// Package lockset implements an Eraser-style lockset race detector
// (Savage et al., SOSP 1997), the classic *unsound* baseline the paper's
// introduction contrasts with partial-order methods: fast, low overhead,
// but it reports potential races that no execution can exhibit.
//
// It exists here to make that contrast measurable: the examples and benches
// run lockset next to HB/WCP and count its false alarms on traces whose
// ground truth the closure reference settles.
package lockset

import (
	"repro/internal/event"
	"repro/internal/race"
	"repro/internal/trace"
)

// state is the per-variable Eraser state machine.
type state uint8

const (
	virgin state = iota
	exclusive
	shared
	sharedModified
)

// Result is the outcome of a lockset analysis.
type Result struct {
	// Report holds the reported (potential) race pairs: each warning pairs
	// the current access location with the variable's previous access
	// location.
	Report *race.Report
	// Warnings counts accesses at which the candidate set became empty in
	// the shared-modified state.
	Warnings int
	// FirstWarning is the trace index of the first warning, or -1.
	FirstWarning int
}

type varState struct {
	st        state
	owner     event.TID
	candidate map[event.LID]struct{} // C(x); nil means "all locks" (⊤)
	lastLoc   event.Loc
	reported  bool
}

// Detect runs the Eraser lockset algorithm over tr.
func Detect(tr *trace.Trace) *Result {
	res := &Result{Report: race.NewReport(), FirstWarning: -1}
	vars := make([]varState, tr.NumVars())
	held := make(map[event.TID][]event.LID)

	intersect := func(vs *varState, locks []event.LID) {
		if vs.candidate == nil {
			vs.candidate = make(map[event.LID]struct{}, len(locks))
			for _, l := range locks {
				vs.candidate[l] = struct{}{}
			}
			return
		}
		heldSet := make(map[event.LID]struct{}, len(locks))
		for _, l := range locks {
			heldSet[l] = struct{}{}
		}
		for l := range vs.candidate {
			if _, ok := heldSet[l]; !ok {
				delete(vs.candidate, l)
			}
		}
	}

	// Walk the SoA view: the Eraser pass needs only the kind/thread/object
	// streams for lock events, touching the location stream at accesses.
	soa := tr.SoA()
	kinds, threads, objs, locs := soa.Kinds, soa.Threads, soa.Objs, soa.Locs
	for i, k := range kinds {
		thread := event.TID(threads[i])
		switch event.Kind(k) {
		case event.Acquire:
			held[thread] = append(held[thread], event.LID(objs[i]))
		case event.Release:
			if s := held[thread]; len(s) > 0 {
				held[thread] = s[:len(s)-1] // §2.1: the innermost held lock
			}
		case event.Read, event.Write:
			isWrite := event.Kind(k) == event.Write
			loc := event.Loc(locs[i])
			vs := &vars[objs[i]]
			switch vs.st {
			case virgin:
				vs.st = exclusive
				vs.owner = thread
			case exclusive:
				if thread != vs.owner {
					if !isWrite {
						vs.st = shared
					} else {
						vs.st = sharedModified
					}
					intersect(vs, held[thread])
				}
			case shared:
				intersect(vs, held[thread])
				if isWrite {
					vs.st = sharedModified
				}
			case sharedModified:
				intersect(vs, held[thread])
			}
			if vs.st == sharedModified && len(vs.candidate) == 0 && !vs.reported {
				vs.reported = true // Eraser warns once per variable
				res.Warnings++
				if res.FirstWarning < 0 {
					res.FirstWarning = i
				}
				res.Report.Record(vs.lastLoc, loc, i, 0)
			}
			vs.lastLoc = loc
		}
	}
	return res
}
