package core

import (
	"repro/internal/event"
	"repro/internal/trace"
)

// This file implements the epoch-optimized WCP race check, the first item
// of the paper's future work (§6: "use of epoch based optimizations for
// improving memory requirements of the implementation"). The clock
// machinery of Algorithm 1 is untouched; only the per-variable race-check
// state shrinks from vector clocks (plus per-location cells) to the
// FastTrack state of race.Epochs, the same state machine the HB
// detector's epoch mode runs.
//
// Epochs are as precise for WCP as they are for HB: by Lemma C.8 (and its
// corollary), for cross-thread events a <tr b, a ≤WCP b holds iff
// N(a) ≤ Cb(t(a)) — a single-component comparison — and thread order covers
// the rest. The same-epoch fast paths can suppress re-reports within a
// segment but never affect whether a race exists or which event races
// first; the property tests pin both.

// checkEpoch is the epoch-mode replacement for check.
func (d *Detector) checkEpoch(i, t int, x event.VID, isWrite bool) {
	vs := &d.vars[x].ep
	now := d.effectiveTime(t).VC()
	var racy bool
	if isWrite {
		racy = vs.Write(t, now)
	} else {
		racy = vs.Read(t, now)
	}
	if racy {
		d.res.RacyEvents++
		if d.res.FirstRace < 0 {
			d.res.FirstRace = i
		}
	}
}

// DetectEpoch runs the WCP detector with the epoch-optimized race check.
// It reports race existence, the first racy event and the queue statistics
// exactly like Detect, but no pair report, and possibly fewer flagged
// events (fast-path suppression within an epoch).
func DetectEpoch(tr *trace.Trace) *Result {
	return DetectOpts(tr, Options{EpochCheck: true})
}
