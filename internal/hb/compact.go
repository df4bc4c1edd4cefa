package hb

import (
	"math"

	"repro/internal/vc"
)

// Compaction for the HB detector mirrors internal/core's: a thread that has
// been joined is dead (its clock is frozen), and any per-variable or
// per-lock time ⊑ the pointwise minimum of the live threads' clocks can
// never be unordered against a future access, so the state carrying it
// resets to the fresh zero value. Verdict trajectories are unchanged — the
// differential suites pin compacted sessions byte-identical to
// straight-through runs.

// floor returns the pointwise minimum of the live threads' C_t clocks
// (+∞ components when every thread is dead).
func (d *Detector) floor() vc.VC {
	f := vc.New(d.width)
	for i := range f {
		f[i] = math.MaxInt32
	}
	for t := range d.ct {
		if d.joined[t] {
			continue
		}
		cv := d.ct[t].VC()
		for i, c := range cv {
			if c < f[i] {
				f[i] = c
			}
		}
	}
	return f
}

// Compact retires dominated detector state. Safe at any event boundary;
// invoked by the engine session's compaction policy off the hot path.
func (d *Detector) Compact() {
	f := d.floor()
	for t := range d.ct {
		if !d.joined[t] {
			d.ct[t].Tighten()
		}
	}
	for l, lk := range d.locks {
		if lk == nil {
			continue
		}
		if lk.c.LeqVC(f) {
			// An acquire joining this clock would be a no-op for every
			// live thread; recreation on the next release is fresh.
			d.locks[l] = nil
		} else {
			lk.c.Tighten()
		}
	}
	for x := range d.vars {
		// Rx and Wx cover every access of their kind, so their domination
		// covers the pair-tracking cells too.
		if vs := &d.vars[x]; vs.r.LeqVC(f) && vs.w.LeqVC(f) {
			*vs = varState{}
		}
	}
}

// StateBytes estimates the detector's retained state in bytes, for
// compaction budgets and soak-test flatness assertions.
func (d *Detector) StateBytes() int {
	const clockB = 4
	n := d.width * d.width * clockB // ct bank
	for _, lk := range d.locks {
		if lk != nil {
			n += d.width*clockB + len(lk.joinGen)*4
		}
	}
	for x := range d.vars {
		vs := &d.vars[x]
		n += vs.r.Bytes(d.width) + vs.w.Bytes(d.width)
		n += vs.reads.Bytes(d.width) + vs.writes.Bytes(d.width)
	}
	return n
}
