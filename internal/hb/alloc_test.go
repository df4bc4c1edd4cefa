package hb_test

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/hb"
	"repro/internal/trace"
)

// TestHBSteadyStateAllocsHighThreads extends the steady-state pin of
// TestHBSteadyStateAllocs to a T=256 thread-pool workload: windowed
// clocks, the per-lock join caches and the per-variable cells must keep
// the streaming step loop allocation-free at high thread counts.
func TestHBSteadyStateAllocsHighThreads(t *testing.T) {
	tr := gen.ThreadScaling(gen.ThreadScalingConfig{Threads: 256, Events: 60_000, Shape: "pools", Races: 4})
	const limit = 0.005
	for _, tc := range []struct {
		name string
		opts hb.Options
	}{
		{"vector", hb.Options{}},
		{"pairs", hb.Options{TrackPairs: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := hb.NewDetector(tr.NumThreads(), tr.NumLocks(), tr.NumVars(), tc.opts)
			feed := func() { d.ProcessBlock(tr.SoA()) }
			feed() // warm-up beyond AllocsPerRun's own
			perEvent := testing.AllocsPerRun(3, feed) / float64(tr.Len())
			if perEvent > limit {
				t.Errorf("steady-state HB T=256 (%s) allocates %.4f allocs/event, want < %v", tc.name, perEvent, limit)
			}
			t.Logf("%s: %.5f allocs/event over %d events", tc.name, perEvent, tr.Len())
		})
	}
}

// TestHBSteadyStateAllocs pins the allocation discipline shared with the
// WCP detector: after warm-up, the HB step loop (with and without pair
// tracking) performs essentially zero heap allocations per event.
func TestHBSteadyStateAllocs(t *testing.T) {
	bench, ok := gen.ByName("montecarlo")
	if !ok {
		t.Fatal("montecarlo benchmark missing")
	}
	tr := bench.Generate(0.25)
	const limit = 0.005
	for _, tc := range []struct {
		name string
		opts hb.Options
	}{
		{"vector", hb.Options{}},
		{"pairs", hb.Options{TrackPairs: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := hb.NewDetector(tr.NumThreads(), tr.NumLocks(), tr.NumVars(), tc.opts)
			feed := func(tr *trace.Trace) { d.ProcessBlock(tr.SoA()) }
			feed(tr) // warm-up beyond AllocsPerRun's own
			perEvent := testing.AllocsPerRun(3, func() { feed(tr) }) / float64(tr.Len())
			if perEvent > limit {
				t.Errorf("steady-state HB (%s) allocates %.4f allocs/event, want < %v", tc.name, perEvent, limit)
			}
			t.Logf("%s: %.5f allocs/event over %d events", tc.name, perEvent, tr.Len())
		})
	}
}
