package engine

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/trace"
	"repro/internal/traceio"
)

func TestJobs(t *testing.T) {
	if got := Jobs(3); got != 3 {
		t.Errorf("Jobs(3) = %d", got)
	}
	if got := Jobs(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Jobs(0) = %d, want GOMAXPROCS", got)
	}
	if got := Jobs(-1); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Jobs(-1) = %d, want GOMAXPROCS", got)
	}
}

// TestMapOrder checks that Map returns results in item order even when
// later items finish first.
func TestMapOrder(t *testing.T) {
	items := make([]int, 64)
	for i := range items {
		items[i] = i
	}
	out, err := Map(context.Background(), 8, items, func(_ context.Context, i, item int) (int, error) {
		// Earlier items sleep longer, so completion order is roughly
		// reversed; the output must still be in input order.
		time.Sleep(time.Duration(len(items)-i) * 10 * time.Microsecond)
		return item * 2, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != 2*i {
			t.Fatalf("out[%d] = %d, want %d", i, v, 2*i)
		}
	}
}

// TestMapError checks that one failing item doesn't stop the others and
// that its error surfaces in the joined error.
func TestMapError(t *testing.T) {
	boom := errors.New("boom")
	var ran atomic.Int64
	out, err := Map(context.Background(), 4, []int{0, 1, 2, 3, 4, 5}, func(_ context.Context, i, item int) (int, error) {
		ran.Add(1)
		if item == 3 {
			return 0, boom
		}
		return item, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if ran.Load() != 6 {
		t.Fatalf("ran %d items, want all 6", ran.Load())
	}
	if out[5] != 5 {
		t.Fatalf("later items should still produce results, got %v", out)
	}
}

// TestMapCancel checks that cancellation marks unstarted items with the
// context error instead of hanging.
func TestMapCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	items := make([]int, 100)
	var started atomic.Int64
	_, err := Map(ctx, 2, items, func(ctx context.Context, i, _ int) (int, error) {
		if started.Add(1) == 2 {
			cancel()
		}
		return 0, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if started.Load() == int64(len(items)) {
		t.Error("cancellation did not skip any item")
	}
}

func poolCorpus(n int) ([]Source, []*trace.Trace) {
	corpus := make([]Source, n)
	traces := make([]*trace.Trace, n)
	for i := range corpus {
		tr := gen.Random(gen.RandomConfig{Seed: int64(i + 1), Events: 500, Threads: 4, Locks: 3, Vars: 8})
		traces[i] = tr
		corpus[i] = TraceSource(fmt.Sprintf("trace-%d", i), tr)
	}
	return corpus, traces
}

// TestAnalyzeCorpus checks that every corpus entry is reported exactly
// once with results for every engine, and that Index identifies entries
// across the completion-ordered stream.
func TestAnalyzeCorpus(t *testing.T) {
	const n = 12
	corpus, traces := poolCorpus(n)
	engines := []Engine{MustNew("wcp", Config{}), MustNew("hb", Config{})}
	seen := make(map[int]CorpusResult)
	for res := range AnalyzeCorpus(context.Background(), corpus, engines, 4) {
		if _, dup := seen[res.Index]; dup {
			t.Fatalf("entry %d reported twice", res.Index)
		}
		seen[res.Index] = res
	}
	if len(seen) != n {
		t.Fatalf("got %d results, want %d", len(seen), n)
	}
	for i := 0; i < n; i++ {
		res := seen[i]
		if res.Err != nil {
			t.Fatalf("entry %d: %v", i, res.Err)
		}
		if res.Name != fmt.Sprintf("trace-%d", i) {
			t.Errorf("entry %d named %q", i, res.Name)
		}
		if res.Stats.Events != traces[i].Len() {
			t.Errorf("entry %d: stats report %d events, trace has %d", i, res.Stats.Events, traces[i].Len())
		}
		if len(res.Results) != len(engines) {
			t.Fatalf("entry %d: %d engine results, want %d", i, len(res.Results), len(engines))
		}
		for j, er := range res.Results {
			if er.Engine != engines[j].Name() {
				t.Errorf("entry %d result %d is %q, want %q", i, j, er.Engine, engines[j].Name())
			}
		}
		// Both engines ran over the same trace: HB races ⊆ WCP races.
		if wcp, hb := res.Results[0].Distinct(), res.Results[1].Distinct(); hb > wcp {
			t.Errorf("entry %d: hb found %d pairs, wcp only %d", i, hb, wcp)
		}
	}
}

// TestAnalyzeCorpusDeterministic checks that the per-entry results don't
// depend on pool width or scheduling.
func TestAnalyzeCorpusDeterministic(t *testing.T) {
	corpus, _ := poolCorpus(8)
	engines := All(Config{})
	distinct := func(jobs int) map[int][]int {
		out := make(map[int][]int)
		for res := range AnalyzeCorpus(context.Background(), corpus, engines, jobs) {
			if res.Err != nil {
				t.Fatalf("entry %d: %v", res.Index, res.Err)
			}
			var counts []int
			for _, er := range res.Results {
				counts = append(counts, er.Distinct(), er.RacyEvents)
			}
			out[res.Index] = counts
		}
		return out
	}
	serial, parallel := distinct(1), distinct(0)
	for i, want := range serial {
		got := parallel[i]
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("entry %d: serial %v vs parallel %v", i, want, got)
			}
		}
	}
}

// TestAnalyzeCorpusCancel checks that cancellation winds the stream down:
// no duplicates, no hangs, the channel closes, and entries claimed after
// the cancellation are skipped.
func TestAnalyzeCorpusCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const n = 50
	corpus := make([]Source, n)
	for i := range corpus {
		corpus[i] = Source{Name: fmt.Sprintf("slow-%d", i), Load: func() (*trace.Trace, error) {
			time.Sleep(2 * time.Millisecond)
			return gen.Random(gen.RandomConfig{Seed: 1, Events: 200, Threads: 3, Locks: 2, Vars: 4}), nil
		}}
	}
	engines := []Engine{MustNew("hb", Config{})}
	seen := map[int]bool{}
	got := 0
	for res := range AnalyzeCorpus(ctx, corpus, engines, 2) {
		if seen[res.Index] {
			t.Fatalf("entry %d delivered twice", res.Index)
		}
		seen[res.Index] = true
		got++
		if got == 3 {
			cancel()
		}
	}
	if got < 3 || got == n {
		t.Fatalf("stream delivered %d of %d entries; cancellation after 3 should stop well short", got, n)
	}
}

// TestAnalyzeCorpusAbandoned checks that a consumer that cancels and walks
// away without draining does not leak pool workers: the workers stop
// instead of blocking forever on the undrained channel.
func TestAnalyzeCorpusAbandoned(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	const n = 40
	corpus := make([]Source, n)
	for i := range corpus {
		corpus[i] = Source{Name: fmt.Sprintf("slow-%d", i), Load: func() (*trace.Trace, error) {
			time.Sleep(time.Millisecond)
			return gen.Random(gen.RandomConfig{Seed: 1, Events: 100, Threads: 2, Locks: 1, Vars: 2}), nil
		}}
	}
	ch := AnalyzeCorpus(ctx, corpus, []Engine{MustNew("hb", Config{})}, 4)
	<-ch
	cancel() // and never read ch again
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("pool goroutines leaked: %d before, %d after abandonment", before, runtime.NumGoroutine())
}

// TestAnalyzeCorpusLoadError checks that a failing loader surfaces as that
// entry's Err without disturbing the rest of the batch.
func TestAnalyzeCorpusLoadError(t *testing.T) {
	boom := errors.New("corrupt trace")
	corpus, _ := poolCorpus(3)
	corpus[1] = Source{Name: "bad", Load: func() (*trace.Trace, error) { return nil, boom }}
	engines := []Engine{MustNew("wcp", Config{})}
	failures, successes := 0, 0
	for res := range AnalyzeCorpus(context.Background(), corpus, engines, 2) {
		if res.Err != nil {
			failures++
			if !errors.Is(res.Err, boom) {
				t.Errorf("entry %d: err = %v, want %v", res.Index, res.Err, boom)
			}
		} else {
			successes++
		}
	}
	if failures != 1 || successes != 2 {
		t.Fatalf("failures=%d successes=%d, want 1/2", failures, successes)
	}
}

// TestAnalyzeFiles round-trips a small corpus through real files in both
// trace formats.
func TestAnalyzeFiles(t *testing.T) {
	dir := t.TempDir()
	_, traces := poolCorpus(2)
	paths := make([]string, len(traces))
	for i, tr := range traces {
		paths[i] = fmt.Sprintf("%s/trace%d", dir, i)
		f, err := os.Create(paths[i])
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			err = traceio.WriteText(f, tr)
		} else {
			err = traceio.WriteBinary(f, tr)
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	engines := []Engine{MustNew("wcp", Config{})}
	want := map[string]int{}
	for i, tr := range traces {
		want[paths[i]] = engines[0].Analyze(tr).Distinct()
	}
	got := 0
	for res := range AnalyzeFiles(context.Background(), paths, engines, 0) {
		if res.Err != nil {
			t.Fatalf("%s: %v", res.Name, res.Err)
		}
		got++
		if d := res.Results[0].Distinct(); d != want[res.Name] {
			t.Errorf("%s: %d pairs from file, %d in memory", res.Name, d, want[res.Name])
		}
	}
	if got != len(paths) {
		t.Fatalf("analyzed %d files, want %d", got, len(paths))
	}
}
