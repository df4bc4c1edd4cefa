package engine

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/hb"
	"repro/internal/race"
	"repro/internal/trace"
)

// soaShapes is the randomized trace mix the SoA equivalence properties run
// over: varied thread/lock/variable universes, with and without fork/join.
func soaShapes(t *testing.T) []*trace.Trace {
	t.Helper()
	shapes := []gen.RandomConfig{
		{Threads: 2, Locks: 1, Vars: 2},
		{Threads: 3, Locks: 2, Vars: 3},
		{Threads: 3, Locks: 3, Vars: 8, ForkJoin: true},
		{Threads: 4, Locks: 2, Vars: 4},
		{Threads: 5, Locks: 4, Vars: 6, ForkJoin: true},
		{Threads: 8, Locks: 5, Vars: 10, ForkJoin: true},
	}
	var traces []*trace.Trace
	for i, cfg := range shapes {
		for round := 0; round < 4; round++ {
			cfg.Events = 400 + 150*round
			cfg.Seed = int64(i*101 + round*977 + 5)
			traces = append(traces, gen.Random(cfg))
		}
	}
	return traces
}

// TestSoAViewByteIdentical asserts the structure-of-arrays cursor yields
// exactly the legacy event sequence: every materialized event equals its
// Events counterpart, in order, for every generated trace.
func TestSoAViewByteIdentical(t *testing.T) {
	for ti, tr := range soaShapes(t) {
		soa := tr.SoA()
		if soa.Len() != len(tr.Events) {
			t.Fatalf("trace %d: SoA has %d events, want %d", ti, soa.Len(), len(tr.Events))
		}
		cur := soa.Cursor()
		for i, want := range tr.Events {
			if got := soa.At(i); got != want {
				t.Fatalf("trace %d: SoA event %d = %v, want %v", ti, i, got, want)
			}
			if !cur.Next() || cur.Index() != i || cur.Event() != want {
				t.Fatalf("trace %d: cursor diverged at event %d", ti, i)
			}
		}
		if cur.Next() {
			t.Fatalf("trace %d: cursor yields events past the end", ti)
		}
		// Round trip: materializing the block reproduces the slice.
		back := soa.Events()
		for i := range back {
			if back[i] != tr.Events[i] {
				t.Fatalf("trace %d: round-tripped event %d differs", ti, i)
			}
		}
	}
}

// reportsEqual compares two race reports pair-for-pair.
func reportsEqual(a, b *race.Report) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	if a.Distinct() != b.Distinct() {
		return false
	}
	for _, p := range a.Pairs() {
		if !b.Has(p.A, p.B) {
			return false
		}
	}
	return true
}

// resultsEqual compares the engine-independent fields of two results.
func resultsEqual(a, b *Result) bool {
	return a.RacyEvents == b.RacyEvents &&
		a.FirstRace == b.FirstRace &&
		a.QueueMaxTotal == b.QueueMaxTotal &&
		a.Windows == b.Windows &&
		a.Warnings == b.Warnings &&
		reportsEqual(a.Report, b.Report)
}

// TestSoAEnginesMatchLegacyEventPath asserts, for all five engines, that
// analysis over the SoA view reports exactly the races of the legacy
// event-slice path.
//
// For the streaming detectors (wcp, hb), with and without pairs, the legacy
// path feeds tr.Events as one-event blocks, compared against the
// whole-trace block the engines use. For the windowed/materialized baselines
// (cp, predict, lockset) the SoA cursor is their ingestion path; the legacy
// comparison analyzes a second trace whose event slice is materialized from
// the SoA view, so any divergence between the two representations would
// show up as differing reports.
func TestSoAEnginesMatchLegacyEventPath(t *testing.T) {
	engines := All(Config{Window: 120, Budget: 3000})
	for ti, tr := range soaShapes(t) {
		// Detector-level equivalence: one-event blocks vs the whole-trace block.
		for _, opts := range []core.Options{{TrackPairs: true}, {}} {
			legacy := core.NewDetector(tr.NumThreads(), tr.NumLocks(), tr.NumVars(), opts)
			for i := range tr.Events {
				legacy.ProcessBlock(trace.BlockOf(tr.Events[i : i+1]))
			}
			soa := core.NewDetector(tr.NumThreads(), tr.NumLocks(), tr.NumVars(), opts)
			soa.ProcessBlock(tr.SoA())
			lr, sr := legacy.Result(), soa.Result()
			if lr.RacyEvents != sr.RacyEvents || lr.FirstRace != sr.FirstRace ||
				lr.QueueMaxTotal != sr.QueueMaxTotal || !reportsEqual(lr.Report, sr.Report) {
				t.Fatalf("trace %d: WCP (pairs=%v) SoA path diverges: racy %d/%d first %d/%d queue %d/%d",
					ti, opts.TrackPairs, lr.RacyEvents, sr.RacyEvents, lr.FirstRace, sr.FirstRace,
					lr.QueueMaxTotal, sr.QueueMaxTotal)
			}
		}
		for _, opts := range []hb.Options{{TrackPairs: true}, {}} {
			legacy := hb.NewDetector(tr.NumThreads(), tr.NumLocks(), tr.NumVars(), opts)
			for i := range tr.Events {
				legacy.ProcessBlock(trace.BlockOf(tr.Events[i : i+1]))
			}
			soa := hb.NewDetector(tr.NumThreads(), tr.NumLocks(), tr.NumVars(), opts)
			soa.ProcessBlock(tr.SoA())
			lr, sr := legacy.Result(), soa.Result()
			if lr.RacyEvents != sr.RacyEvents || lr.FirstRace != sr.FirstRace ||
				!reportsEqual(lr.Report, sr.Report) {
				t.Fatalf("trace %d: HB (pairs=%v) SoA path diverges", ti, opts.TrackPairs)
			}
		}

		// Engine-level equivalence over a trace rebuilt from the SoA view.
		rebuilt := &trace.Trace{Events: tr.SoA().Events(), Symbols: tr.Symbols}
		for _, e := range engines {
			got := e.Analyze(tr)
			want := e.Analyze(rebuilt)
			if !resultsEqual(got, want) {
				t.Fatalf("trace %d: engine %s diverges between SoA and rebuilt trace:\n got %s\nwant %s",
					ti, e.Name(), summarize(got), summarize(want))
			}
		}
	}
}

func summarize(r *Result) string {
	return fmt.Sprintf("racy=%d first=%d queue=%d windows=%d warnings=%d distinct=%d",
		r.RacyEvents, r.FirstRace, r.QueueMaxTotal, r.Windows, r.Warnings, r.Distinct())
}
