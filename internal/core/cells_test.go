package core

import (
	"testing"

	"repro/internal/trace"
	"repro/internal/vc"
)

// TestWxReArms: two unordered writes put Wx in vector form, and a later
// write that both are ordered before returns it to that write's epoch —
// but only once the writing thread is pure. With fork/join ancestry, a
// forked child's write, and a write ordered after the others through joins
// alone, carry ancestry components the epoch compare does not
// characterize, so Wx stays a vector, even when fresh or dominated, until
// a pure write dominates it.
func TestWxReArms(t *testing.T) {
	type want struct {
		at     int  // event index after which to check
		vector bool // Wx in vector form; otherwise the epoch of event at
		pure   bool // the writing thread's oZero at that point
	}
	noAncestry := trace.NewBuilder()
	noAncestry.Acquire("t1", "l").Write("t1", "x").Release("t1", "l") // 0-2
	noAncestry.Acquire("t2", "m").Write("t2", "x").Release("t2", "m") // 3-5: races with 1
	noAncestry.Acquire("t3", "l").Acquire("t3", "m")                  // 6-7
	noAncestry.Write("t3", "x")                                       // 8: rule (a) orders 1 and 4 before it
	noAncestry.Release("t3", "m").Release("t3", "l")                  // 9-10

	ancestry := trace.NewBuilder()
	ancestry.Fork("t0", "t1").Fork("t0", "t2")                      // 0-1
	ancestry.Acquire("t1", "l").Write("t1", "x").Release("t1", "l") // 2-4
	ancestry.Acquire("t2", "m").Write("t2", "x").Release("t2", "m") // 5-7: races with 3
	ancestry.Join("t0", "t1").Join("t0", "t2")                      // 8-9
	ancestry.Write("t0", "x")                                       // 10: ordered by ancestry only
	ancestry.Acquire("t0", "l").Acquire("t0", "m")                  // 11-12
	ancestry.Write("t0", "x")                                       // 13: rule (a) joins, still impure
	ancestry.Release("t0", "m").Release("t0", "l")                  // 14-15: Pt overtakes Ot
	ancestry.Write("t0", "x")                                       // 16: pure, dominates Wx

	for _, tc := range []struct {
		name   string
		b      *trace.Builder
		racyAt int
		checks []want
	}{
		{"no-ancestry", noAncestry, 4, []want{{1, false, true}, {4, true, true}, {8, false, true}}},
		{"fork-join", ancestry, 6, []want{{3, true, false}, {6, true, false}, {10, true, false}, {13, true, false}, {16, false, true}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := tc.b.MustBuild()
			d := NewDetector(tr.NumThreads(), tr.NumLocks(), tr.NumVars(), Options{TrackPairs: true})
			w := &d.vars[tr.Symbols.Var("x")].w
			i := 0
			for _, c := range tc.checks {
				for ; i <= c.at; i++ {
					d.ProcessBlock(trace.BlockOf(tr.Events[i : i+1]))
				}
				e := tr.Events[c.at]
				ts := &d.threads[e.Thread]
				if ts.oZero != c.pure {
					t.Fatalf("event %d: thread oZero = %v, want %v", c.at, ts.oZero, c.pure)
				}
				if c.vector {
					if w.Ep != vc.NoEpoch || w.Vec == nil {
						t.Fatalf("event %d: Wx = %v (vec %v), want vector form", c.at, w.Ep, w.Vec)
					}
				} else if want := vc.MakeEpoch(int(e.Thread), ts.n); w.Ep != want {
					t.Fatalf("event %d: Wx = %v (vec %v), want epoch %v", c.at, w.Ep, w.Vec, want)
				}
			}
			if d.res.RacyEvents != 1 || d.res.FirstRace != tc.racyAt {
				t.Fatalf("racy events %d, first %d; want 1 at %d", d.res.RacyEvents, d.res.FirstRace, tc.racyAt)
			}
		})
	}
}
