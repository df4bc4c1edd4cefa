package race

import (
	"repro/internal/snap"
	"repro/internal/vc"
)

// Epochs is the FastTrack per-variable race-check state shared by the
// epoch modes of the WCP and HB detectors: the last write as one
// clock@thread epoch, the reads as one epoch while they stay totally
// ordered, and a read vector only once concurrent readers appear. The
// zero value is a fresh variable.
//
// The transitions need only one property of the detector's time now of
// the accessing thread t: an earlier access at epoch c@u (u ≠ t) is
// ordered before it iff c ≤ now[u], and now[t] is t's own clock. HB
// clocks have it by construction and WCP effective times by Lemma C.8, so
// both detectors run the same code. The same-epoch fast paths can skip a
// re-report within one epoch but never change whether a race exists or
// which event races first.
type Epochs struct {
	W      vc.Epoch // last write
	R      vc.Epoch // last read while reads are totally ordered
	Shared vc.VC    // read vector under concurrent readers, nil otherwise
}

// Read records a read by thread t at time now and reports whether it
// races with the last write.
func (s *Epochs) Read(t int, now vc.VC) bool {
	self := vc.MakeEpoch(t, now[t])
	if s.Shared == nil && s.R == self {
		return false // same-epoch read
	}
	racy := !s.W.LeqVC(now)
	switch {
	case s.Shared != nil:
		s.Shared.Set(t, now[t])
	case s.R.LeqVC(now):
		s.R = self // reads still totally ordered
	default:
		// Concurrent readers: inflate to a read vector.
		s.Shared = vc.New(len(now))
		s.Shared.Set(s.R.TID(), s.R.Clock())
		s.Shared.Set(t, now[t])
	}
	return racy
}

// Write records a write by thread t at time now and reports whether it
// races with the last write or with any read since. A write resets read
// sharing: the read vector is dropped.
func (s *Epochs) Write(t int, now vc.VC) bool {
	self := vc.MakeEpoch(t, now[t])
	if s.Shared == nil && s.W == self {
		return false // same-epoch write
	}
	racy := !s.W.LeqVC(now)
	if s.Shared != nil {
		racy = racy || !s.Shared.Leq(now)
		s.Shared = nil
	} else if !s.R.LeqVC(now) {
		racy = true
	}
	s.W, s.R = self, vc.NoEpoch
	return racy
}

// Fresh reports whether the variable has seen no access (or was reset).
func (s *Epochs) Fresh() bool {
	return s.W == vc.NoEpoch && s.R == vc.NoEpoch && s.Shared == nil
}

// DominatedBy reports whether every recorded access is ⊑ floor, so no
// future access can race with it and the state may reset to fresh.
func (s *Epochs) DominatedBy(floor vc.VC) bool {
	return s.W.LeqVC(floor) && s.R.LeqVC(floor) &&
		(s.Shared == nil || s.Shared.Leq(floor))
}

// DecodeEpoch reads an epoch written as a uvarint and rejects one whose
// thread lies outside the clock width, which the first comparison against
// a clock of that width would index past.
func DecodeEpoch(rd *snap.Reader, width int) (vc.Epoch, error) {
	v, err := rd.Uvarint()
	if err != nil {
		return vc.NoEpoch, err
	}
	if e := vc.Epoch(v); e.TID() < width {
		return e, nil
	}
	return vc.NoEpoch, &snap.DecodeError{Reason: "epoch thread out of range"}
}
