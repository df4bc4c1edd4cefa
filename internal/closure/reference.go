package closure

import (
	"fmt"
	"slices"

	"repro/internal/event"
	"repro/internal/race"
	"repro/internal/trace"
)

// Reference is the outcome a streaming detector with pair tracking must
// reproduce on a trace, derived from a relation computed by closure instead
// of from vector clocks.
type Reference struct {
	Report *race.Report
	// Racy lists the racy events in trace order: each access that is
	// unordered with some earlier conflicting access.
	Racy []int
}

// WCPReference derives the WCP reference outcome of tr from ≤WCP.
func WCPReference(tr *trace.Trace) *Reference {
	wcp := ComputeWCP(tr)
	return PairReference(tr, func(i, j int) bool { return Ordered(tr, wcp, i, j) })
}

// HBReference derives the HB reference outcome of tr from ≤HB.
func HBReference(tr *trace.Trace) *Reference {
	return PairReference(tr, ComputeHB(tr).Has)
}

// refCell is one (variable, location, kind) of the reference: every access
// made there so far, in trace order.
type refCell struct {
	loc      event.Loc
	accesses []int
}

// PairReference derives the race outcome of tr from ordered, which reports
// whether event i is ordered before event j for i <tr j. It applies the
// detectors' attribution rules literally. An access races with a *cell* —
// the earlier accesses at one (variable, location, kind) — when some access
// there is conflicting and unordered with it. A racy access records one
// observation per racing cell, walking its variable's write cells and then
// (for a write) its read cells, each in location order; the distance is
// to the cell's latest earlier access. The observation's context is the
// variable and the locks the accessing thread holds, innermost last.
func PairReference(tr *trace.Trace, ordered func(i, j int) bool) *Reference {
	ref := &Reference{Report: race.NewReport()}
	type key struct {
		x     event.VID
		write bool
	}
	cells := map[key][]*refCell{}
	held := map[event.TID][]event.LID{}
	for j, e := range tr.Events {
		switch e.Kind {
		case event.Acquire:
			held[e.Thread] = append(held[e.Thread], e.Lock())
			continue
		case event.Release:
			h := held[e.Thread]
			for k := len(h) - 1; k >= 0; k-- {
				if h[k] == e.Lock() {
					held[e.Thread] = slices.Delete(h, k, k+1)
					break
				}
			}
			continue
		}
		if !e.Kind.IsAccess() {
			continue
		}
		x, isWrite := e.Var(), e.Kind == event.Write
		ctx := race.Ctx{Var: x, Locks: held[e.Thread]}
		partners := cells[key{x, true}]
		if isWrite {
			partners = append(slices.Clip(partners), cells[key{x, false}]...)
		}
		racy := false
		for _, c := range partners {
			for _, a := range c.accesses {
				if !ordered(a, j) {
					last := c.accesses[len(c.accesses)-1]
					ref.Report.RecordCtx(c.loc, e.Loc, j, j-last, ctx)
					racy = true
					break
				}
			}
		}
		if racy {
			ref.Racy = append(ref.Racy, j)
		}
		own := cells[key{x, isWrite}]
		k, found := slices.BinarySearchFunc(own, e.Loc, func(c *refCell, loc event.Loc) int {
			return int(c.loc) - int(loc)
		})
		if !found {
			own = slices.Insert(own, k, &refCell{loc: e.Loc})
			cells[key{x, isWrite}] = own
		}
		own[k].accesses = append(own[k].accesses, j)
	}
	return ref
}

// FirstRace returns the first racy event, or -1.
func (ref *Reference) FirstRace() int {
	if len(ref.Racy) == 0 {
		return -1
	}
	return ref.Racy[0]
}

// Check returns an error describing the first difference between a
// detector's outcome and the reference, or nil. With a nil report only the
// racy-event counters are compared; otherwise the report must hold the same
// pairs in the same order, each with the same Count, FirstEvent,
// MinDistance, MaxDistance, Var and Locks.
func (ref *Reference) Check(racyEvents, firstRace int, rep *race.Report) error {
	if racyEvents != len(ref.Racy) || firstRace != ref.FirstRace() {
		return fmt.Errorf("racy events %d (first %d), reference %d (first %d)",
			racyEvents, firstRace, len(ref.Racy), ref.FirstRace())
	}
	if rep == nil {
		return nil
	}
	got, want := rep.Pairs(), ref.Report.Pairs()
	if !slices.Equal(got, want) {
		return fmt.Errorf("pairs %v, reference %v", got, want)
	}
	for _, p := range want {
		g, w := rep.Info(p), ref.Report.Info(p)
		if g.Count != w.Count || g.FirstEvent != w.FirstEvent ||
			g.MinDistance != w.MinDistance || g.MaxDistance != w.MaxDistance ||
			g.Var != w.Var || !slices.Equal(g.Locks, w.Locks) {
			return fmt.Errorf("pair %v: %+v, reference %+v", p, *g, *w)
		}
	}
	return nil
}
