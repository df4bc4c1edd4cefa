package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/trace"
)

// allocsPerEvent measures steady-state heap allocations per processed event:
// the detector is warmed up on the trace (growing queues and per-lock/
// per-variable state to their high-water marks), then the same event
// sequence is replayed and allocations are averaged. The flat clock rings
// and reusable stack-slot snapshots are specifically there to make this ≈ 0.
func allocsPerEvent(tr *trace.Trace, process func(*trace.Trace)) float64 {
	process(tr) // warm-up beyond AllocsPerRun's own
	avg := testing.AllocsPerRun(3, func() { process(tr) })
	return avg / float64(tr.Len())
}

// steadyStateLimit is deliberately tight: it tolerates stray amortized
// growth (a queue buffer doubling once) but fails on anything per-event.
const steadyStateLimit = 0.005

func TestWCPSteadyStateAllocs(t *testing.T) {
	bench, ok := gen.ByName("montecarlo")
	if !ok {
		t.Fatal("montecarlo benchmark missing")
	}
	tr := bench.Generate(0.25)
	for _, tc := range []struct {
		name string
		opts core.Options
	}{
		{"vector", core.Options{}},
		{"pairs", core.Options{TrackPairs: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := core.NewDetector(tr.NumThreads(), tr.NumLocks(), tr.NumVars(), tc.opts)
			perEvent := allocsPerEvent(tr, func(tr *trace.Trace) {
				for _, e := range tr.Events {
					d.Process(e)
				}
			})
			if perEvent > steadyStateLimit {
				t.Errorf("steady-state WCP (%s) allocates %.4f allocs/event, want < %v", tc.name, perEvent, steadyStateLimit)
			}
			t.Logf("%s: %.5f allocs/event over %d events", tc.name, perEvent, tr.Len())
		})
	}
}

// TestWCPSteadyStateAllocsHighThreads extends the steady-state pin to a
// T=256 thread-pool workload: the windowed-clock machinery (dirty windows,
// join caches, span-packed queue records) must stay allocation-free per
// event at high thread counts too — the regime the thread-scaling
// benchmarks measure.
func TestWCPSteadyStateAllocsHighThreads(t *testing.T) {
	tr := gen.ThreadScaling(gen.ThreadScalingConfig{Threads: 256, Events: 60_000, Shape: "pools", Races: 4})
	for _, tc := range []struct {
		name string
		opts core.Options
	}{
		{"vector", core.Options{}},
		{"pairs", core.Options{TrackPairs: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := core.NewDetector(tr.NumThreads(), tr.NumLocks(), tr.NumVars(), tc.opts)
			perEvent := allocsPerEvent(tr, func(tr *trace.Trace) {
				d.ProcessBlock(tr.SoA())
			})
			if perEvent > steadyStateLimit {
				t.Errorf("steady-state WCP T=256 (%s) allocates %.4f allocs/event, want < %v", tc.name, perEvent, steadyStateLimit)
			}
			t.Logf("%s: %.5f allocs/event over %d events", tc.name, perEvent, tr.Len())
		})
	}
}

// TestWCPQueueStorageSteadyState pins the flat-ring queue discipline
// directly: once the rings have grown to the workload's high-water mark,
// replaying the same event sequence — with all its queue churn — performs
// zero heap allocations, because records are written in place as clock
// words and pops only advance head indices.
func TestWCPQueueStorageSteadyState(t *testing.T) {
	bench, _ := gen.ByName("montecarlo")
	tr := bench.Generate(0.25)
	d := core.NewDetector(tr.NumThreads(), tr.NumLocks(), tr.NumVars(), core.Options{})
	feed := func() {
		for _, e := range tr.Events {
			d.Process(e)
		}
	}
	feed() // warm up queues, rings and per-lock state
	feed()
	if avg := testing.AllocsPerRun(3, feed); avg != 0 {
		t.Errorf("steady-state pass allocated %.1f times, want 0", avg)
	}
}
