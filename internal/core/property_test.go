package core_test

import (
	"testing"

	"repro/internal/closure"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/predict"
	"repro/internal/trace"
)

// randomTraces yields n deterministic random traces of varied shape.
func randomTraces(n int, events int) []*trace.Trace {
	shapes := []gen.RandomConfig{
		{Threads: 2, Locks: 1, Vars: 2},
		{Threads: 2, Locks: 2, Vars: 2},
		{Threads: 3, Locks: 2, Vars: 3},
		{Threads: 3, Locks: 3, Vars: 2},
		{Threads: 4, Locks: 2, Vars: 3},
		{Threads: 4, Locks: 3, Vars: 4, ForkJoin: true},
		{Threads: 5, Locks: 4, Vars: 3, ForkJoin: true},
	}
	out := make([]*trace.Trace, 0, n)
	for i := 0; i < n; i++ {
		cfg := shapes[i%len(shapes)]
		cfg.Events = events
		cfg.Seed = int64(i)*7919 + 13
		out = append(out, gen.Random(cfg))
	}
	return out
}

// windowedTraces yields 60 random traces at T ∈ {9, 10, 12}, with and
// without fork/join. randomTraces stays at T ≤ 5, where every clock is
// dense and the queue logs hold fixed-stride records; widths past 8 take
// the windowed clocks and the bucket-compressed records the release drain
// walks.
func windowedTraces() []*trace.Trace {
	var out []*trace.Trace
	for _, threads := range []int{9, 10, 12} {
		for _, forkJoin := range []bool{false, true} {
			for seed := int64(0); seed < 10; seed++ {
				out = append(out, gen.Random(gen.RandomConfig{
					Threads: threads, Locks: 3, Vars: 4, Events: 96,
					ForkJoin: forkJoin, Seed: seed*7919 + int64(threads),
				}))
			}
		}
	}
	return out
}

// TestTheorem2TimestampsMatchClosure is the Theorem 2 cross-check: for all
// events a <tr b, the streaming algorithm's timestamps satisfy
// Ca ⊑ Cb ⟺ a ≤WCP b, where ≤WCP is computed independently by fixpoint
// closure of Definition 3. The HB clocks are checked the same way.
func TestTheorem2TimestampsMatchClosure(t *testing.T) {
	traces := append(randomTraces(200, 64), windowedTraces()...)
	for ti, tr := range traces {
		res := core.DetectOpts(tr, core.Options{CollectTimestamps: true})
		wcp := closure.ComputeWCP(tr)
		hbRel := closure.ComputeHB(tr)
		for i := 0; i < tr.Len(); i++ {
			for j := i + 1; j < tr.Len(); j++ {
				wantWCP := closure.Ordered(tr, wcp, i, j)
				gotWCP := res.Times[i].Leq(res.Times[j])
				if gotWCP != wantWCP {
					t.Fatalf("trace %d: events %s / %s: C%d ⊑ C%d = %v, closure ≤WCP = %v\nCi=%v Cj=%v",
						ti, tr.Describe(i), tr.Describe(j), i, j, gotWCP, wantWCP, res.Times[i], res.Times[j])
				}
				wantHB := hbRel.Has(i, j)
				gotHB := res.HBTimes[i].Leq(res.HBTimes[j])
				if gotHB != wantHB {
					t.Fatalf("trace %d: events %s / %s: H%d ⊑ H%d = %v, closure ≤HB = %v",
						ti, tr.Describe(i), tr.Describe(j), i, j, gotHB, wantHB)
				}
			}
		}
	}
}

// TestWCPRacesMatchClosure checks the streaming detector's racy events
// against the closure's racy pairs: event j is flagged iff some earlier
// conflicting event is WCP-unordered with it.
func TestWCPRacesMatchClosure(t *testing.T) {
	for ti, tr := range randomTraces(200, 72) {
		res := core.DetectOpts(tr, core.Options{CollectTimestamps: true})
		wcp := closure.ComputeWCP(tr)
		want := make(map[int]bool)
		for _, p := range closure.RacyPairs(tr, wcp) {
			want[p[1]] = true
		}
		got := make(map[int]bool)
		// Re-derive flagged events from a fresh run with a per-event probe:
		// the detector reports counts, so recompute via timestamps.
		for j := 0; j < tr.Len(); j++ {
			for i := 0; i < j; i++ {
				if tr.Events[i].Conflicts(tr.Events[j]) && !res.Times[i].Leq(res.Times[j]) {
					got[j] = true
				}
			}
		}
		for j := range want {
			if !got[j] {
				t.Fatalf("trace %d: closure says event %s is racy, timestamps disagree", ti, tr.Describe(j))
			}
		}
		for j := range got {
			if !want[j] {
				t.Fatalf("trace %d: timestamps say event %s is racy, closure disagrees", ti, tr.Describe(j))
			}
		}
		// The detector's flagged-event count must agree with ground truth.
		if (res.RacyEvents > 0) != (len(want) > 0) {
			t.Fatalf("trace %d: detector racy=%d, closure racy events=%d", ti, res.RacyEvents, len(want))
		}
		if res.RacyEvents != len(want) {
			t.Fatalf("trace %d: detector flagged %d events, closure says %d", ti, res.RacyEvents, len(want))
		}
	}
}

// TestContainmentHBCPWCP checks the relation containment the paper proves:
// ≺WCP ⊆ ≺CP ⊆ ≤HB on random traces, hence races(HB) ⊆ races(CP) ⊆
// races(WCP).
func TestContainmentHBCPWCP(t *testing.T) {
	for ti, tr := range randomTraces(200, 64) {
		hbRel := closure.ComputeHB(tr)
		cpRel := closure.ComputeCP(tr)
		wcpRel := closure.ComputeWCP(tr)
		if !wcpRel.SubsetOf(cpRel) {
			t.Fatalf("trace %d: ≺WCP ⊄ ≺CP", ti)
		}
		if !cpRel.SubsetOf(hbRel) {
			t.Fatalf("trace %d: ≺CP ⊄ ≤HB", ti)
		}
		hbRaces := closure.RacyPairs(tr, hbRel)
		cpRaces := closure.RacyPairs(tr, cpRel)
		wcpRaces := closure.RacyPairs(tr, wcpRel)
		inSet := func(pairs [][2]int) map[[2]int]bool {
			m := make(map[[2]int]bool, len(pairs))
			for _, p := range pairs {
				m[p] = true
			}
			return m
		}
		cpSet, wcpSet := inSet(cpRaces), inSet(wcpRaces)
		for _, p := range hbRaces {
			if !cpSet[p] {
				t.Fatalf("trace %d: HB race %v not a CP race", ti, p)
			}
		}
		for _, p := range cpRaces {
			if !wcpSet[p] {
				t.Fatalf("trace %d: CP race %v not a WCP race", ti, p)
			}
		}
	}
}

// TestTheorem1WeakSoundness empirically validates Theorem 1: on traces
// small enough to search exhaustively, the *first* WCP race must be
// certified by a predictable race or a predictable deadlock.
func TestTheorem1WeakSoundness(t *testing.T) {
	budget := predict.Budget{Nodes: 2_000_000}
	checked := 0
	for ti, tr := range randomTraces(60, 36) {
		wcp := closure.ComputeWCP(tr)
		pairs := closure.RacyPairs(tr, wcp)
		if len(pairs) == 0 {
			continue
		}
		// The paper's guarantee covers the first race: the pair (e1, e2)
		// with minimal e2, and maximal e1 among those (§A: "no other event
		// e1' with e1 <tr e1' <tr e2 in race with e2").
		first := pairs[0]
		for _, p := range pairs {
			if p[1] < first[1] || (p[1] == first[1] && p[0] > first[0]) {
				first = p
			}
		}
		e1, e2 := first[0], first[1]
		wit, ok := predict.FindRaceWitness(tr, e1, e2, budget)
		if ok {
			if err := trace.CheckReordering(tr, wit.Reordering); err != nil {
				t.Fatalf("trace %d: race witness invalid: %v", ti, err)
			}
			if !trace.RevealsRace(tr, wit.Reordering, e1, e2) {
				t.Fatalf("trace %d: witness does not reveal the race", ti)
			}
			checked++
			continue
		}
		if wit.Exhausted {
			continue // inconclusive; budget ran out
		}
		// No race witness exists: Theorem 1 promises a deadlock.
		dwit, dok := predict.FindDeadlock(tr, budget)
		if !dok {
			if dwit.Exhausted {
				continue
			}
			t.Fatalf("trace %d: first WCP race (%s, %s) has neither race nor deadlock witness — soundness violated",
				ti, tr.Describe(e1), tr.Describe(e2))
		}
		if err := trace.CheckReordering(tr, dwit.Reordering); err != nil {
			t.Fatalf("trace %d: deadlock witness invalid: %v", ti, err)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no WCP races found across random traces; test is vacuous")
	}
}

// TestFigure5DeadlockWitness checks the paper's Figure 5 claim end to end:
// WCP flags the r(z)/w(z) pair, no race witness exists, and the predictive
// engine finds the 3-thread predictable deadlock (reordering e1, e6, e10).
func TestFigure5DeadlockWitness(t *testing.T) {
	tr := gen.Figure5()
	wcp := closure.ComputeWCP(tr)
	pairs := closure.RacyPairs(tr, wcp)
	if len(pairs) != 1 {
		t.Fatalf("WCP races = %v, want exactly the r(z)/w(z) pair", pairs)
	}
	e1, e2 := pairs[0][0], pairs[0][1]
	budget := predict.Budget{Nodes: 5_000_000}
	if _, ok := predict.FindRaceWitness(tr, e1, e2, budget); ok {
		t.Fatalf("Figure 5 should have no predictable race on (%d, %d)", e1, e2)
	}
	wit, ok := predict.FindDeadlock(tr, budget)
	if !ok {
		t.Fatalf("Figure 5 predictable deadlock not found (exhausted=%v)", wit.Exhausted)
	}
	if err := trace.CheckReordering(tr, wit.Reordering); err != nil {
		t.Fatalf("deadlock witness invalid: %v", err)
	}
	if d := trace.RevealsDeadlock(tr, wit.Reordering); len(d) < 3 {
		t.Errorf("deadlock involves %d threads, want 3 (threads %v)", len(d), d)
	}
}

// TestWCPDefaultModeMatchesVectorCheck is the differential pin for the
// epoch form of the Rx/Wx cells: over random traces with and without
// fork/join ancestry, Options{} must flag exactly the events the closure's
// ≤WCP says are racy. The fork/join shapes are the regression case:
// ancestry (Ot) components are not characterized by the Lemma C.8
// single-component compare, so an access recorded with ancestry active
// must enter its cell as a whole effective time, never as an epoch.
func TestWCPDefaultModeMatchesVectorCheck(t *testing.T) {
	shapes := []gen.RandomConfig{
		{Threads: 3, Locks: 2, Vars: 3, ForkJoin: true},
		{Threads: 3, Locks: 1, Vars: 2, ForkJoin: true},
		{Threads: 4, Locks: 3, Vars: 4, ForkJoin: true},
		{Threads: 5, Locks: 2, Vars: 3, ForkJoin: true},
		{Threads: 3, Locks: 2, Vars: 3},
		{Threads: 6, Locks: 4, Vars: 5, ForkJoin: true},
	}
	for i := 0; i < 300; i++ {
		cfg := shapes[i%len(shapes)]
		cfg.Events = 200
		cfg.Seed = int64(i)
		tr := gen.Random(cfg)
		res := core.DetectOpts(tr, core.Options{})
		if err := closure.WCPReference(tr).Check(res.RacyEvents, res.FirstRace, nil); err != nil {
			t.Fatalf("seed %d (%+v): default mode: %v", i, cfg, err)
		}
	}
}

// pairTraces yields random traces for the pair-report pins: the shapes of
// randomTraces, whose locations are private to one (thread, variable,
// kind), plus shared-location shapes, where one location collects
// unordered accesses by several threads and its cell takes vector form.
func pairTraces(n, events int) []*trace.Trace {
	out := randomTraces(n, events)
	shared := []gen.RandomConfig{
		{Threads: 3, Locks: 2, Vars: 2, Locations: 3},
		{Threads: 2, Locks: 1, Vars: 2, Locations: 2, ForkJoin: true},
		{Threads: 4, Locks: 1, Vars: 3, Locations: 4, ForkJoin: true},
		{Threads: 3, Locks: 1, Vars: 1, Locations: 2, ForkJoin: true},
		{Threads: 6, Locks: 3, Vars: 2, Locations: 2, ForkJoin: true},
		{Threads: 5, Locks: 2, Vars: 4, Locations: 6},
	}
	for i := 0; i < n; i++ {
		cfg := shared[i%len(shared)]
		cfg.Events = events
		cfg.Seed = int64(i)*104729 + 7
		out = append(out, gen.Random(cfg))
	}
	return out
}

// TestWCPPairReportsMatchClosure pins the whole pair-tracking report —
// pairs in order, Count, FirstEvent, distances and context — to the one
// the closure reference derives from ≤WCP with the detector's cell rules.
func TestWCPPairReportsMatchClosure(t *testing.T) {
	for ti, tr := range pairTraces(150, 120) {
		res := core.DetectOpts(tr, core.Options{TrackPairs: true})
		if err := closure.WCPReference(tr).Check(res.RacyEvents, res.FirstRace, res.Report); err != nil {
			t.Fatalf("trace %d: %v", ti, err)
		}
	}
}
