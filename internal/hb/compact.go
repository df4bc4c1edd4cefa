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
		vs := &d.vars[x]
		// A pair-tracking cell holds components of its accesses' times, so
		// the aggregates' domination covers the cells too.
		if wcDominatedHB(&vs.readAll, f) && wcDominatedHB(&vs.writeAll, f) &&
			(vs.readAll.Ready() || vs.writeAll.Ready()) {
			*vs = varState{}
		}
	}
	for x := range d.evars {
		vs := &d.evars[x]
		if vs.w == vc.NoEpoch && vs.r == vc.NoEpoch && vs.shared == nil {
			continue
		}
		if !vs.w.LeqVC(f) || !vs.r.LeqVC(f) {
			continue
		}
		if vs.shared != nil {
			if !vs.shared.VC().Leq(f) {
				continue
			}
			d.arena.Release(vs.shared)
		}
		*vs = ftVar{}
	}
}

func wcDominatedHB(w *vc.WC, floor vc.VC) bool {
	return !w.Ready() || w.LeqVC(floor)
}

// Release returns every arena clock still referenced by per-variable state
// to the freelist. Call it when the detector is finished (session finalize
// or abort): inflated read vectors otherwise hold their slabs hostage even
// after the detector itself is unreachable from the session — the stale-
// session leak class the eviction regression test pins.
func (d *Detector) Release() {
	for x := range d.evars {
		if s := d.evars[x].shared; s != nil {
			d.arena.Release(s)
			d.evars[x].shared = nil
		}
	}
}

// StateBytes estimates the detector's retained state in bytes, for
// compaction budgets and soak-test flatness assertions.
func (d *Detector) StateBytes() int {
	const clockB = 4
	n := d.width * d.width * clockB // ct bank
	n += d.arena.Allocs() * d.width * clockB
	for _, lk := range d.locks {
		if lk != nil {
			n += d.width*clockB + len(lk.joinGen)*4
		}
	}
	for x := range d.vars {
		vs := &d.vars[x]
		if vs.readAll.Ready() {
			n += d.width * clockB
		}
		if vs.writeAll.Ready() {
			n += d.width * clockB
		}
		n += vs.reads.Bytes(d.width) + vs.writes.Bytes(d.width)
	}
	n += len(d.evars) * 24
	return n
}
