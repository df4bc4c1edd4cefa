package hb_test

import (
	"testing"

	"repro/internal/closure"
	"repro/internal/gen"
	"repro/internal/hb"
	"repro/internal/trace"
)

func buildRacy() *trace.Trace {
	b := trace.NewBuilder()
	b.At("a").Write("t1", "x")
	b.At("b").Write("t2", "x")
	return b.MustBuild()
}

func TestDetectSimpleRace(t *testing.T) {
	tr := buildRacy()
	res := hb.Detect(tr)
	if res.RacyEvents != 1 || res.FirstRace != 1 {
		t.Fatalf("racy=%d first=%d", res.RacyEvents, res.FirstRace)
	}
	if res.Report.Distinct() != 1 {
		t.Fatalf("pairs = %d", res.Report.Distinct())
	}
	if !res.Report.Has(tr.Symbols.Location("a"), tr.Symbols.Location("b")) {
		t.Error("wrong pair reported")
	}
}

func TestDetectProtected(t *testing.T) {
	b := trace.NewBuilder()
	b.CriticalSection("t1", "l", func(b *trace.Builder) { b.Write("t1", "x") })
	b.CriticalSection("t2", "l", func(b *trace.Builder) { b.Write("t2", "x") })
	res := hb.Detect(b.MustBuild())
	if res.RacyEvents != 0 {
		t.Errorf("protected accesses flagged: %d", res.RacyEvents)
	}
}

func TestDetectForkJoin(t *testing.T) {
	b := trace.NewBuilder()
	b.Write("t0", "x")
	b.Fork("t0", "t1")
	b.Write("t1", "x") // ordered after parent's write via fork
	b.Join("t0", "t1")
	b.Write("t0", "x") // ordered after child's write via join
	res := hb.Detect(b.MustBuild())
	if res.RacyEvents != 0 {
		t.Errorf("fork/join ordered accesses flagged: %d", res.RacyEvents)
	}

	b2 := trace.NewBuilder()
	b2.Fork("t0", "t1")
	b2.Write("t1", "x")
	b2.Write("t0", "x") // concurrent with child
	res2 := hb.Detect(b2.MustBuild())
	if res2.RacyEvents != 1 {
		t.Errorf("concurrent parent/child writes: racy=%d, want 1", res2.RacyEvents)
	}
}

// TestDetectOptsNoPairs checks the cheap mode agrees on race existence.
func TestDetectOptsNoPairs(t *testing.T) {
	for _, b := range gen.Benchmarks[:6] {
		tr := b.Generate(1.0)
		full := hb.Detect(tr)
		cheap := hb.DetectOpts(tr, hb.Options{})
		if cheap.Report != nil {
			t.Error("cheap mode should not allocate a report")
		}
		if (full.RacyEvents > 0) != (cheap.RacyEvents > 0) {
			t.Errorf("%s: full=%d cheap=%d disagree on existence", b.Name, full.RacyEvents, cheap.RacyEvents)
		}
		if full.FirstRace != cheap.FirstRace {
			t.Errorf("%s: first race %d vs %d", b.Name, full.FirstRace, cheap.FirstRace)
		}
	}
}

// TestDetectMatchesClosure compares the vector-clock detector against the
// reference HB closure on random traces: an event is flagged iff it is the
// later element of some HB-unordered conflicting pair.
func TestDetectMatchesClosure(t *testing.T) {
	for seed := int64(0); seed < 120; seed++ {
		cfg := gen.RandomConfig{
			Threads:  int(2 + seed%4),
			Locks:    int(1 + seed%3),
			Vars:     int(1 + seed%3),
			Events:   60,
			Seed:     seed,
			ForkJoin: seed%3 == 0,
		}
		tr := gen.Random(cfg)
		rel := closure.ComputeHB(tr)
		want := make(map[int]bool)
		for _, p := range closure.RacyPairs(tr, rel) {
			want[p[1]] = true
		}
		res := hb.Detect(tr)
		if res.RacyEvents != len(want) {
			t.Fatalf("seed %d: detector flagged %d events, closure %d", seed, res.RacyEvents, len(want))
		}
	}
}

// TestHBPairReportsMatchClosure pins the whole pair-tracking report —
// pairs in order, Count, FirstEvent, distances and context — to the one
// the closure reference derives from ≤HB with the detector's cell rules,
// on random shapes with and without fork/join, with private and with
// shared program locations.
func TestHBPairReportsMatchClosure(t *testing.T) {
	shapes := []gen.RandomConfig{
		{Threads: 2, Locks: 1, Vars: 2},
		{Threads: 3, Locks: 2, Vars: 3},
		{Threads: 4, Locks: 3, Vars: 4, ForkJoin: true},
		{Threads: 5, Locks: 4, Vars: 3, ForkJoin: true},
		{Threads: 3, Locks: 2, Vars: 2, Locations: 3},
		{Threads: 4, Locks: 1, Vars: 3, Locations: 4, ForkJoin: true},
		{Threads: 9, Locks: 3, Vars: 3, Locations: 5},
		{Threads: 12, Locks: 4, Vars: 4, ForkJoin: true},
	}
	for i := 0; i < 320; i++ {
		cfg := shapes[i%len(shapes)]
		cfg.Events = 150
		cfg.Seed = int64(i)*7919 + 13
		tr := gen.Random(cfg)
		res := hb.DetectOpts(tr, hb.Options{TrackPairs: true})
		if err := closure.HBReference(tr).Check(res.RacyEvents, res.FirstRace, res.Report); err != nil {
			t.Fatalf("seed %d (%+v): %v", cfg.Seed, cfg, err)
		}
	}
}
