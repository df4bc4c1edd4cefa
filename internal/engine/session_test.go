package engine

import (
	"context"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/trace"
	"repro/internal/traceio"
)

// TestSessionMatchesAnalyze: feeding a trace through a resumable session in
// uneven block slices must reproduce the batch Analyze outcome exactly —
// the contract the raced server relies on for report parity.
func TestSessionMatchesAnalyze(t *testing.T) {
	tr := gen.Random(gen.RandomConfig{Seed: 5, Events: 30000, Threads: 4, Locks: 3, Vars: 6})
	for _, name := range sessionEngineNames {
		t.Run(name, func(t *testing.T) {
			e := MustNew(name, Config{})
			se, ok := e.(SessionEngine)
			if !ok {
				t.Fatalf("%s does not implement SessionEngine", name)
			}
			s := se.NewSession(tr.NumThreads(), tr.NumLocks(), tr.NumVars())

			// Slice the trace into uneven blocks, including tiny ones.
			sizes := []int{1, 9000, 3, 117, 9000, 2048}
			i, si := 0, 0
			for i < len(tr.Events) {
				n := sizes[si%len(sizes)]
				si++
				if i+n > len(tr.Events) {
					n = len(tr.Events) - i
				}
				s.ProcessBlock(trace.BlockOf(tr.Events[i : i+n]))
				i += n
			}
			if s.Events() != len(tr.Events) {
				t.Fatalf("session consumed %d events, want %d", s.Events(), len(tr.Events))
			}

			got, want := s.Finish(), e.Analyze(tr)
			if got.RacyEvents != want.RacyEvents || got.FirstRace != want.FirstRace {
				t.Errorf("racy=%d first=%d, want racy=%d first=%d",
					got.RacyEvents, got.FirstRace, want.RacyEvents, want.FirstRace)
			}
			if got.Distinct() != want.Distinct() {
				t.Errorf("distinct=%d, want %d", got.Distinct(), want.Distinct())
			}
			if want.Report != nil {
				g, w := got.Report.Format(tr.Symbols), want.Report.Format(tr.Symbols)
				if g != w {
					t.Errorf("session report differs from batch report:\n%s\n--- want ---\n%s", g, w)
				}
			}
		})
	}
}

// waitGoroutines polls until the goroutine count settles back to at most
// base (plus the test machinery's own), failing after a generous deadline.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: %d > baseline %d\n%s", n, base,
				buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestAnalyzeStreamCancellation: a canceled context stops a streaming
// analysis promptly, returns the context error, and reaps the session
// goroutine.
func TestAnalyzeStreamCancellation(t *testing.T) {
	const nevents = 1_000_000
	path := filepath.Join(t.TempDir(), "big.bin")
	writeSyntheticBinary(t, path, nevents)
	base := runtime.NumGoroutine()

	for _, name := range sessionEngineNames {
		t.Run(name, func(t *testing.T) {
			st, err := traceio.StreamFile(path)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			ctx, cancel := context.WithCancel(context.Background())
			cancel() // canceled before the first block
			if _, err := MustNew(name, Config{}).(StreamAnalyzer).AnalyzeStream(ctx, st); err != context.Canceled {
				t.Fatalf("AnalyzeStream after cancel = %v, want context.Canceled", err)
			}
			// Prompt stop: nearly none of the trace was decoded.
			if got := st.Stats().Events; got > 3*traceio.DefaultBlockSize {
				t.Errorf("decoded %d events after cancellation, want at most a few blocks", got)
			}
		})
	}
	waitGoroutines(t, base)
}

// TestAnalyzeCorpusCancellationNoLeak: canceling a streaming corpus run
// mid-flight stops decoding promptly and leaves no goroutine behind — the
// pool workers, the per-engine session goroutines and the delivery
// goroutine all wind down.
func TestAnalyzeCorpusCancellationNoLeak(t *testing.T) {
	const nevents = 2_000_000
	dir := t.TempDir()
	paths := make([]string, 4)
	for i := range paths {
		paths[i] = filepath.Join(dir, "t.bin")
		if i > 0 {
			paths[i] = filepath.Join(dir, string(rune('a'+i))+".bin")
		}
		writeSyntheticBinary(t, paths[i], nevents)
	}
	engines := []Engine{MustNew("wcp", Config{}), MustNew("hb", Config{})}
	base := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	ch := AnalyzeFiles(ctx, paths, engines, 2)
	// Cancel as soon as the first result (or none — timing) can be in
	// flight, then drain: the channel must still close.
	cancel()
	n := 0
	for range ch {
		n++
	}
	if n > len(paths) {
		t.Errorf("received %d results for %d inputs", n, len(paths))
	}
	waitGoroutines(t, base)
}
