package core

import (
	"math"
	"unsafe"

	"repro/internal/event"
	"repro/internal/vc"
)

// This file implements whole-detector state compaction for long-lived
// sessions. The detector's state classes all grow monotonically with the
// thread/lock/variable universe; compaction retires the parts whose clocks
// have been dominated by every thread that can still act, which is exactly
// the state that can never influence another verdict:
//
//   - a thread that has been joined and has no open critical section is
//     dead — its clocks are frozen, it will never release again, so its
//     own-queues and stack/cache storage are freed (its P/H/O clocks stay:
//     later joins may still read them);
//   - a variable whose Rx and Wx times are ⊑ the effective-time floor (the
//     pointwise minimum over live threads) can never race again — every
//     future check against it would report "ordered" — so its state resets
//     to the fresh zero value;
//   - a lock's rule-(a) release records, and eventually the whole lock,
//     quiesce the same way once their release times are ⊑ the floor and
//     the queues are drained; an acquire of a retired lock recreates it
//     fresh, and the joins that recreation skips are exactly the ones the
//     dominated times would have made no-ops.
//
// None of this touches the queued/QueueMaxTotal accounting: dead threads
// never drain in an uncompacted run either, so the compacted session's
// Result trajectory is bit-identical to straight-through analysis — the
// invariant the differential suites pin.

// floors carries the pointwise minima over live threads of the clock kinds
// state is compared against: the effective time (race checks), the C-time
// (rule-(a)/Pℓ joins), and the H-time (Hℓ joins). Any time ⊑ the floor is
// ⊑ the corresponding clock of every live thread forever, by monotonicity.
type floors struct {
	eff vc.VC
	ct  vc.VC
	h   vc.VC
	// live is the number of non-dead threads; with zero live threads the
	// floors are +∞ and everything is retireable.
	live int
}

func (d *Detector) computeFloors() floors {
	width := len(d.threads)
	f := floors{eff: vc.New(width), ct: vc.New(width), h: vc.New(width)}
	for i := 0; i < width; i++ {
		f.eff[i], f.ct[i], f.h[i] = math.MaxInt32, math.MaxInt32, math.MaxInt32
	}
	for t := range d.threads {
		if d.dead[t] {
			continue
		}
		f.live++
		ts := &d.threads[t]
		eff := d.effectiveTime(t).VC()
		pv := ts.p.VC()
		hv := ts.h.VC()
		for i := 0; i < width; i++ {
			if eff[i] < f.eff[i] {
				f.eff[i] = eff[i]
			}
			c := pv[i]
			if i == t {
				c = ts.n
			}
			if c < f.ct[i] {
				f.ct[i] = c
			}
			if hv[i] < f.h[i] {
				f.h[i] = hv[i]
			}
		}
	}
	return f
}

// wcDominated reports whether w carries no information above the floor —
// unready clocks trivially so.
func wcDominated(w *vc.WC, floor vc.VC) bool {
	return !w.Ready() || w.LeqVC(floor)
}

// refDominated reports whether the release time r references is ⊑ the
// floor — an absent one, or ⊥, trivially so. tmp is a scratch clock of the
// detector's width.
func (d *Detector) refDominated(r relRef, g *csLog, floor, tmp vc.VC) bool {
	if int(r) < g.base {
		return true
	}
	tmp.Zero()
	w, lo, hi, mask, _ := relAt(g.buf, int(r)-g.base+2, len(d.threads), d.denseQ)
	unpackRel(tmp, w, lo, hi, mask, d.threads[0].p.ChunkShift())
	return tmp.Leq(floor)
}

// Compact retires dominated detector state. It is safe at any event
// boundary and changes no verdict, count, distance, or queue statistic;
// callers (the engine session's compaction policy) invoke it off the hot
// path every few million events or when the state-byte estimate crosses a
// budget.
func (d *Detector) Compact() {
	for t := range d.threads {
		if !d.dead[t] && d.joined[t] && len(d.threads[t].stack) == 0 {
			d.dead[t] = true
		}
	}
	f := d.computeFloors()

	for t := range d.threads {
		ts := &d.threads[t]
		// The rule-(a) join caches key on relTimes generations; compaction
		// below may reset records to generation zero, which could collide
		// with a stale cached generation after the record regrows. Dropping
		// every cache makes any (pointer, gen) pair held after this point
		// postdate the reset — the next access simply re-joins.
		ts.cacheR, ts.cacheW = nil, nil
		if d.dead[t] {
			ts.stack = nil
			continue
		}
		ts.p.Tighten()
		ts.h.Tighten()
		ts.o.Tighten()
		ts.eff.Tighten()
	}

	for x := range d.vars {
		if vs := &d.vars[x]; d.varDominated(vs, f.eff) {
			*vs = varState{}
		}
	}

	for l, ls := range d.locks {
		if ls == nil {
			continue
		}
		if d.compactLock(ls, &f) {
			d.locks[l] = nil
		}
	}
}

// varDominated reports whether every recorded access time of vs is ⊑ the
// effective-time floor, so no future access can be unordered against it.
// Rx and Wx cover every access of their kind, so their domination covers
// the pair-tracking cells too: a pure latest access ⊑ the floor orders its
// whole effective time before every live thread's (Lemma C.8), and with it
// every access it dominates.
func (d *Detector) varDominated(vs *varState, floor vc.VC) bool {
	return vs.r.LeqVC(floor) && vs.w.LeqVC(floor)
}

// compactLock quiesces one lock's state and reports whether the lock can
// be retired entirely (recreated fresh on its next acquire).
func (d *Detector) compactLock(ls *lockState, f *floors) bool {
	width := len(d.threads)
	end := ls.log.base + len(ls.log.buf)
	drained := true
	for t := range ls.cons {
		q := &ls.own[t]
		before := ownQBytes(q)
		if d.dead[t] {
			// Dead threads never release again: drop their own-queues.
			// Their cursors pin nothing — the log keeps only its unsettled
			// tail, whatever the cursors behind it.
			*q = ownQ{}
		} else {
			if c := &ls.cons[t]; c.idx < ls.log.settledN || c.off < end || !q.empty() {
				drained = false
			}
			q.refs, q.head = shrink(q.refs, q.head), 0
		}
		ls.bytes += ownQBytes(q) - before
	}

	// Quiesce dominated rule-(a) records and recompute the presence masks
	// from what survives.
	ls.acc.rMask, ls.acc.wMask = 0, 0
	busy := 0
	tmp := vc.New(width)
	if ls.acc.dense != nil {
		for x := range ls.acc.dense {
			busy += d.quiescePair(ls, &ls.acc.dense[x], int32(x), f.ct, tmp)
		}
	} else if ls.acc.m != nil {
		for x, pair := range ls.acc.m {
			if d.quiescePair(ls, pair, int32(x), f.ct, tmp) == 0 {
				delete(ls.acc.m, x)
				ls.bytes -= relPairB + mapEntryB
			} else {
				busy++
			}
		}
	}
	// Unlike release's amortized compaction, drop the dead part of the
	// settled run now, and hand an oversized log buffer back.
	if g := &ls.log; g.last > g.base {
		g.compact()
	}
	c := cap(ls.log.buf)
	ls.log.buf = shrink(ls.log.buf, 0)
	ls.bytes += (cap(ls.log.buf) - c) * clockB

	if busy > 0 || !drained {
		ls.pl.Tighten()
		return false
	}
	if !d.refDominated(ls.hl, &ls.log, f.h, tmp) || !wcDominated(&ls.pl, f.ct) {
		ls.pl.Tighten()
		return false
	}
	// The lock is fully quiesced; make sure no live thread still has it
	// open (its release would publish to the retired state).
	for t := range d.threads {
		if d.dead[t] {
			continue
		}
		for i := range d.threads[t].stack {
			if ls == d.locks[d.threads[t].stack[i].lock] {
				return false
			}
		}
	}
	return true
}

// quiescePair resets the relTimes of one (lock, variable) record whose
// latest contribution is ⊑ the C-time floor — along the lock chain it
// dominates the runner-up — and folds the survivors into the index masks.
// It returns the number of live records remaining (0–2).
func (d *Detector) quiescePair(ls *lockState, pair *relPair, x int32, ctFloor, tmp vc.VC) int {
	live := 0
	for _, rt := range []*relTimes{&pair.r, &pair.w} {
		if !rt.a.present() {
			continue
		}
		if d.refDominated(rt.a, &ls.log, ctFloor, tmp) {
			*rt = relTimes{}
			continue
		}
		if rt == &pair.r {
			ls.acc.rMask |= 1 << (uint32(x) & 63)
		} else {
			ls.acc.wMask |= 1 << (uint32(x) & 63)
		}
		live++
	}
	return live
}

// Byte sizes of the state StateBytes counts.
const (
	clockB     = int(unsafe.Sizeof(vc.Clock(0)))
	lockStateB = int(unsafe.Sizeof(lockState{}))
	consumerB  = int(unsafe.Sizeof(consumer{}))
	ownQB      = int(unsafe.Sizeof(ownQ{}))
	ownRefB    = int(unsafe.Sizeof(ownRef{}))
	relPairB   = int(unsafe.Sizeof(relPair{}))
	// mapEntryB is a hashed rule-(a) index entry's key and pointer.
	mapEntryB = int(unsafe.Sizeof(event.VID(0)) + unsafe.Sizeof((*relPair)(nil)))
)

// StateBytes estimates the detector's retained state in bytes: clock
// storage, queue buffers, rule-(a) records, and per-variable maps. It is
// an estimate for compaction budgets and soak assertions, not an exact
// heap measurement. Each lock keeps its share current as it changes
// (lockBytes defines it), so a call costs O(threads + variables + locks).
func (d *Detector) StateBytes() int {
	width := len(d.threads)
	n := 4 * width * width * clockB // p/h/o/eff banks
	for t := range d.threads {
		ts := &d.threads[t]
		stack := ts.stack[:cap(ts.stack)]
		for i := range stack {
			n += (cap(stack[i].reads.list) + cap(stack[i].writes.list)) * 4
			n += (len(stack[i].reads.seen) + len(stack[i].writes.seen)) * 8
		}
	}
	for x := range d.vars {
		vs := &d.vars[x]
		n += vs.r.Bytes(width) + vs.w.Bytes(width)
		n += vs.reads.Bytes(width) + vs.writes.Bytes(width)
	}
	for _, ls := range d.locks {
		if ls != nil {
			n += ls.bytes
		}
	}
	return n
}

// lockBytes counts a lock's share of StateBytes from scratch: its struct,
// per-thread cursors, own-queue headers and join generations, the
// capacities of its log and own-queue buffers, Pℓ, and its rule-(a) index
// — dense tables whole, hashed ones per entry. lockState.bytes holds the
// same sum, kept current.
func (d *Detector) lockBytes(ls *lockState) int {
	n := lockStateB + len(ls.cons)*consumerB + len(ls.own)*ownQB + len(ls.joinGen)*4
	n += cap(ls.log.buf) * clockB
	if ls.pl.Ready() {
		n += len(d.threads) * clockB
	}
	for t := range ls.own {
		n += ownQBytes(&ls.own[t])
	}
	n += len(ls.acc.dense)*relPairB + len(ls.acc.m)*(relPairB+mapEntryB)
	return n
}

// ownQBytes returns the capacity of an own-queue's buffer in bytes.
func ownQBytes(q *ownQ) int { return cap(q.refs) * ownRefB }
