package trace_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/gen"
	"repro/internal/snap"
	"repro/internal/trace"
	"repro/internal/trace/tracetest"
	"repro/internal/window"
)

// checkBlocks runs a fresh Checker over tr's events in blocks of size n.
func checkBlocks(tr *trace.Trace, n int) error {
	c := trace.NewChecker(tr.Symbols)
	for at := 0; at < tr.Len(); at += n {
		if err := c.CheckBlock(trace.BlockOf(tr.Events[at:min(at+n, tr.Len())]), at); err != nil {
			return err
		}
	}
	return nil
}

// TestCheckerIllFormed: on every ill-formed shape, Validate and the block
// checker, at any block size, report the same violation at the shape's
// index.
func TestCheckerIllFormed(t *testing.T) {
	for _, s := range tracetest.IllFormedTraces() {
		want := trace.Validate(s.Trace)
		var ve *trace.ValidationError
		if !errors.As(want, &ve) || ve.Index != s.Index {
			t.Errorf("%s: Validate = %v, want a violation at event %d", s.Name, want, s.Index)
			continue
		}
		for _, n := range []int{1, 2, 3, s.Trace.Len()} {
			if got := checkBlocks(s.Trace, n); got == nil || got.Error() != want.Error() {
				t.Errorf("%s, blocks of %d: %v, want %v", s.Name, n, got, want)
			}
		}
	}
}

// acceptedTraces is the corpus every entry must accept: the Table-1
// traces, gen.Random with and without fork/join, the thread-scaling shapes
// and the window.Split fragments of a few of them.
func acceptedTraces() map[string]*trace.Trace {
	out := map[string]*trace.Trace{}
	for _, b := range gen.Benchmarks {
		out["table1/"+b.Name] = b.Generate(0.1)
	}
	for seed := int64(1); seed <= 20; seed++ {
		out[fmt.Sprintf("random/%d", seed)] = gen.Random(gen.RandomConfig{
			Threads: 2 + int(seed)%11, Locks: 1 + int(seed)%4, Vars: 6, Events: 2000, Seed: seed, ForkJoin: seed%2 == 0,
		})
	}
	for _, shape := range gen.ThreadScalingShapes {
		out["scaling/"+shape] = gen.ThreadScaling(gen.ThreadScalingConfig{Threads: 64, Events: 10_000, Shape: shape, Races: 4})
	}
	for _, name := range []string{"table1/" + gen.Benchmarks[0].Name, "random/3", "random/4", "scaling/forkjoin"} {
		for i, w := range window.Split(out[name], 97) {
			out[fmt.Sprintf("%s/window/%d", name, i)] = w
		}
	}
	return out
}

// TestCheckerAcceptsCorpus: Validate and the block checker accept every
// trace of the accepted corpus.
func TestCheckerAcceptsCorpus(t *testing.T) {
	for name, tr := range acceptedTraces() {
		if err := trace.Validate(tr); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if err := checkBlocks(tr, 500); err != nil {
			t.Errorf("%s, blocks of 500: %v", name, err)
		}
	}
}

// roundTrip snapshots c and restores it after events events.
func roundTrip(t *testing.T, c *trace.Checker, tr *trace.Trace, events int) (*trace.Checker, []byte) {
	t.Helper()
	var buf bytes.Buffer
	w := snap.NewWriter(&buf)
	c.EncodeSnapshot(w)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	frame := bytes.Clone(buf.Bytes())
	rd, err := snap.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	r, err := trace.DecodeChecker(rd, tr.Symbols, uint64(events))
	if err != nil {
		t.Fatalf("restore after %d events: %v", events, err)
	}
	if err := rd.Close(); err != nil {
		t.Fatal(err)
	}
	return r, frame
}

// TestCheckerSnapshotContinues: a checker restored at any block boundary
// re-encodes byte-identically and checks the rest of the trace as the
// straight-through one does — accepting a well-formed trace, and naming
// the same violation on an ill-formed one.
func TestCheckerSnapshotContinues(t *testing.T) {
	traces := map[string]*trace.Trace{
		"random": gen.Random(gen.RandomConfig{Threads: 6, Locks: 3, Vars: 4, Events: 600, Seed: 5, ForkJoin: true}),
	}
	for _, s := range tracetest.IllFormedTraces() {
		traces[s.Name] = s.Trace
	}
	for name, tr := range traces {
		want := checkBlocks(tr, 7)
		for at := 0; at <= tr.Len(); at += 7 {
			c := trace.NewChecker(tr.Symbols)
			if err := c.CheckBlock(trace.BlockOf(tr.Events[:at]), 0); err != nil {
				break // the violation lies before the snapshot
			}
			r, frame := roundTrip(t, c, tr, at)
			if _, again := roundTrip(t, r, tr, at); !bytes.Equal(again, frame) {
				t.Fatalf("%s at %d: the restored checker re-encodes differently", name, at)
			}
			var got error
			for i := at; i < tr.Len() && got == nil; i += 7 {
				got = r.CheckBlock(trace.BlockOf(tr.Events[i:min(i+7, tr.Len())]), i)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s restored at %d: %v, straight through %v", name, at, got, want)
			}
		}
	}
}

// TestDecodeCheckerRejectsImpossibleState: checker state no trace prefix
// could leave is a *snap.DecodeError.
func TestDecodeCheckerRejectsImpossibleState(t *testing.T) {
	b := trace.NewBuilder()
	b.Write("t0", "x")
	b.Write("t1", "x")
	b.Acquire("t0", "l")
	syms := b.Build().Symbols
	// Per thread: flags (1 started, 2 forked, 4 joined), the join index
	// when joined, the open-stack depth and its locks as zigzag varints
	// (2 is lock 1, past the one lock; 1 is lock -1).
	cases := map[string][]uint64{
		"lock open on two threads":       {1, 1, 0, 1, 1, 0},
		"lock out of range":              {1, 1, 2, 1, 0},
		"negative lock":                  {1, 1, 1, 1, 0},
		"unknown flag":                   {8, 0, 1, 0},
		"join at or past the events":     {1, 0, 5, 9, 0},
		"open section on an idle thread": {0, 1, 0, 1, 0},
		"stack deeper than the events":   {1, 1 << 20, 1, 0},
	}
	for name, words := range cases {
		var buf bytes.Buffer
		w := snap.NewWriter(&buf)
		for _, v := range words {
			w.Uvarint(v)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		rd, err := snap.NewReader(&buf)
		if err != nil {
			t.Fatal(err)
		}
		_, err = trace.DecodeChecker(rd, syms, 3)
		var de *snap.DecodeError
		if !errors.As(err, &de) {
			t.Errorf("%s: %v, want a *snap.DecodeError", name, err)
		}
	}
}
