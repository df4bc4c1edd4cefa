package engine

import (
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/hb"
	"repro/internal/trace"
	"repro/internal/vc"
)

// This file pins the windowed-clock representation (vc.WC dirty windows,
// generation join caches) to the dense reference: every engine and every
// detector option combination must produce byte-identical results whether
// clocks are windowed (the default) or forced dense (vc.ForceDense, the
// plain full-width representation with no windows and full spans). Any
// window undercoverage, stale join cache, or span-packing bug in the queue
// records shows up as a divergence here.

// clockModeTraces is the workload mix: the randomized shapes of the SoA
// suite, plus the high-thread-count scenario shapes (including T=256, where
// the windowed representation actually diverges from dense in what it
// touches) with and without races.
func clockModeTraces(t *testing.T) map[string]*trace.Trace {
	t.Helper()
	traces := map[string]*trace.Trace{}
	for i, cfg := range []gen.RandomConfig{
		{Threads: 2, Locks: 1, Vars: 2},
		{Threads: 3, Locks: 3, Vars: 8, ForkJoin: true},
		{Threads: 5, Locks: 4, Vars: 6, ForkJoin: true},
		{Threads: 9, Locks: 5, Vars: 10, ForkJoin: true},
		{Threads: 16, Locks: 8, Vars: 12, ForkJoin: true},
	} {
		cfg.Events = 900
		cfg.Seed = int64(31*i + 7)
		traces["random/"+itoa(i)+"/T"+itoa(cfg.Threads)] = gen.Random(cfg)
	}
	for _, shape := range gen.ThreadScalingShapes {
		for _, threads := range []int{8, 64, 256} {
			cfg := gen.ThreadScalingConfig{Threads: threads, Events: 6000, Shape: shape, Races: 4}
			traces[shape+"/T"+itoa(threads)] = gen.ThreadScaling(cfg)
			if threads == 256 {
				cfg.Races = 0
				traces[shape+"/T256/racefree"] = gen.ThreadScaling(cfg)
			}
		}
	}
	for _, name := range []string{"account", "bubblesort", "mergesort"} {
		bench, ok := gen.ByName(name)
		if !ok {
			t.Fatalf("unknown benchmark %s", name)
		}
		traces["bench/"+name] = bench.Generate(1.0)
	}
	return traces
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// withDense runs f with vc.ForceDense in effect.
func withDense(f func()) {
	vc.ForceDense(true)
	defer vc.ForceDense(false)
	f()
}

// TestEnginesWindowedMatchesDense runs all five engines over every
// workload twice — windowed clocks and forced-dense clocks — and requires
// identical results, including the exact distinct race-pair sets.
func TestEnginesWindowedMatchesDense(t *testing.T) {
	engines := All(Config{Window: 120, Budget: 3000})
	for name, tr := range clockModeTraces(t) {
		for _, e := range engines {
			windowed := e.Analyze(tr)
			var dense *Result
			withDense(func() { dense = e.Analyze(tr) })
			if !resultsEqual(windowed, dense) {
				t.Fatalf("%s: engine %s diverges between windowed and dense clocks:\nwindowed %s\ndense    %s",
					name, e.Name(), summarize(windowed), summarize(dense))
			}
		}
	}
}

// TestWCPDetectorWindowedMatchesDense pins the WCP detector option
// combinations — including CollectTimestamps, whose per-event Ce/He vectors
// must be byte-identical, the strongest possible pin on the clock contents.
func TestWCPDetectorWindowedMatchesDense(t *testing.T) {
	for name, tr := range clockModeTraces(t) {
		collect := tr.NumThreads() <= 64 // O(N·T) memory; skip the giants
		opts := []core.Options{
			{},
			{TrackPairs: true},
		}
		if collect {
			opts = append(opts, core.Options{CollectTimestamps: true})
		}
		for _, o := range opts {
			windowed := core.DetectOpts(tr, o)
			var dense *core.Result
			withDense(func() { dense = core.DetectOpts(tr, o) })
			if windowed.RacyEvents != dense.RacyEvents ||
				windowed.FirstRace != dense.FirstRace ||
				windowed.QueueMaxTotal != dense.QueueMaxTotal ||
				!reportsEqual(windowed.Report, dense.Report) {
				t.Fatalf("%s: WCP %+v diverges: racy %d/%d first %d/%d queue %d/%d",
					name, o, windowed.RacyEvents, dense.RacyEvents,
					windowed.FirstRace, dense.FirstRace,
					windowed.QueueMaxTotal, dense.QueueMaxTotal)
			}
			if o.CollectTimestamps {
				for i := range windowed.Times {
					if !windowed.Times[i].Equal(dense.Times[i]) ||
						!windowed.HBTimes[i].Equal(dense.HBTimes[i]) {
						t.Fatalf("%s: WCP timestamps diverge at event %d: %v vs %v / %v vs %v",
							name, i, windowed.Times[i], dense.Times[i],
							windowed.HBTimes[i], dense.HBTimes[i])
					}
				}
			}
		}
	}
}

// TestHBDetectorWindowedMatchesDense pins the HB detector option
// combinations, with and without pair tracking.
func TestHBDetectorWindowedMatchesDense(t *testing.T) {
	for name, tr := range clockModeTraces(t) {
		for _, o := range []hb.Options{{}, {TrackPairs: true}} {
			windowed := hb.DetectOpts(tr, o)
			var dense *hb.Result
			withDense(func() { dense = hb.DetectOpts(tr, o) })
			if windowed.RacyEvents != dense.RacyEvents ||
				windowed.FirstRace != dense.FirstRace ||
				!reportsEqual(windowed.Report, dense.Report) {
				t.Fatalf("%s: HB %+v diverges: racy %d/%d first %d/%d",
					name, o, windowed.RacyEvents, dense.RacyEvents,
					windowed.FirstRace, dense.FirstRace)
			}
		}
	}
}
