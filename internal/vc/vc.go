// Package vc implements the vector times of §3.1 of the paper: functions
// from thread index to a non-negative scalar clock, supporting pointwise
// comparison (⊑), pointwise maximum (⊔), and component assignment, plus a
// FastTrack-style epoch representation for the detectors' ordered access
// times.
//
// Vector clocks are represented as fixed-width []int32 slices sized to the
// number of threads in the trace; detectors know the thread count up front
// (traceio headers and trace containers expose it), which keeps every
// operation a tight loop with no map overhead.
package vc

import (
	"fmt"
	"strings"
)

// Clock is a scalar component of a vector time. Local clocks increment only
// after release events (§3.2, "Local Clock Increment"), so int32 is ample
// for traces of a few hundred million events; all arithmetic is bounds-free.
type Clock = int32

// VC is a vector time: index i holds the clock of thread i. A nil VC is the
// ⊥ vector time of any width for reads (Get returns 0) but must be allocated
// before writes.
type VC []Clock

// New returns the ⊥ vector time for n threads.
func New(n int) VC { return make(VC, n) }

// Get returns component t, treating missing components as 0 so that a VC of
// any width compares correctly against wider clocks.
func (v VC) Get(t int) Clock {
	if t < len(v) {
		return v[t]
	}
	return 0
}

// Set assigns component t (V[t := n] in the paper). It panics if t is out of
// range: widths are fixed by the trace's thread count.
func (v VC) Set(t int, c Clock) { v[t] = c }

// Clock widths are the trace's thread count, and real small traces sit at
// 2–4 threads, where loop setup and per-iteration bookkeeping cost as much
// as the comparisons themselves. The hot operations therefore unroll the
// small widths behind one length switch (perfectly predicted — a detector's
// clocks all share one width) and keep the general loop for wide clocks.

// Leq reports v ⊑ w: pointwise ≤.
func (v VC) Leq(w VC) bool {
	if len(v) <= len(w) {
		// Same-universe comparison (the detector hot path): index w
		// directly so the loop carries no per-component width branch.
		switch len(v) {
		case 2:
			return v[0] <= w[0] && v[1] <= w[1]
		case 3:
			return v[0] <= w[0] && v[1] <= w[1] && v[2] <= w[2]
		case 4:
			return v[0] <= w[0] && v[1] <= w[1] && v[2] <= w[2] && v[3] <= w[3]
		}
		w = w[:len(v)]
		for t, c := range v {
			if c > w[t] {
				return false
			}
		}
		return true
	}
	for t, c := range v {
		if c > w.Get(t) {
			return false
		}
	}
	return true
}

// Join sets v to v ⊔ w (pointwise maximum) in place. w must not be wider
// than v.
func (v VC) Join(w VC) {
	u := v[:len(w)] // hoist the bounds check out of the loop
	switch len(w) {
	case 2:
		if w[0] > u[0] {
			u[0] = w[0]
		}
		if w[1] > u[1] {
			u[1] = w[1]
		}
		return
	case 3:
		if w[0] > u[0] {
			u[0] = w[0]
		}
		if w[1] > u[1] {
			u[1] = w[1]
		}
		if w[2] > u[2] {
			u[2] = w[2]
		}
		return
	}
	for t, c := range w {
		if c > u[t] {
			u[t] = c
		}
	}
}

// JoinChanged sets v to v ⊔ w in place, like Join, and reports whether any
// component of v grew — the signal hot paths use to keep derived clocks
// (the WCP effective-time cache) valid without recomputing them.
func (v VC) JoinChanged(w VC) bool {
	changed := false
	u := v[:len(w)]
	switch len(w) {
	case 2:
		if w[0] > u[0] {
			u[0] = w[0]
			changed = true
		}
		if w[1] > u[1] {
			u[1] = w[1]
			changed = true
		}
		return changed
	case 3:
		if w[0] > u[0] {
			u[0] = w[0]
			changed = true
		}
		if w[1] > u[1] {
			u[1] = w[1]
			changed = true
		}
		if w[2] > u[2] {
			u[2] = w[2]
			changed = true
		}
		return changed
	}
	for t, c := range w {
		if c > u[t] {
			u[t] = c
			changed = true
		}
	}
	return changed
}

// Copy sets v to an exact copy of w in place. w must not be wider than v;
// components of v beyond len(w) are zeroed.
func (v VC) Copy(w VC) {
	if len(v) == len(w) {
		switch len(w) {
		case 2:
			v[0], v[1] = w[0], w[1]
			return
		case 3:
			v[0], v[1], v[2] = w[0], w[1], w[2]
			return
		case 4:
			v[0], v[1], v[2], v[3] = w[0], w[1], w[2], w[3]
			return
		}
	}
	if len(w) > 32 {
		n := copy(v, w)
		for i := n; i < len(v); i++ {
			v[i] = 0
		}
		return
	}
	// Detector clocks are usually a handful of components wide, where the
	// memmove call behind copy() costs more than the move itself; iterate
	// backwards so the compiler does not convert the loop to memmove.
	for i := len(v) - 1; i >= len(w); i-- {
		v[i] = 0
	}
	for i := len(w) - 1; i >= 0; i-- {
		v[i] = w[i]
	}
}

// Clone returns a fresh VC equal to v.
func (v VC) Clone() VC {
	w := make(VC, len(v))
	copy(w, v)
	return w
}

// Equal reports pointwise equality, treating missing components as 0.
func (v VC) Equal(w VC) bool { return v.Leq(w) && w.Leq(v) }

// Comparable reports whether v ⊑ w or w ⊑ v, i.e. the times are ordered.
// Two conflicting events with incomparable times are a race (Theorem 2).
func (v VC) Comparable(w VC) bool { return v.Leq(w) || w.Leq(v) }

// Zero resets every component to 0.
func (v VC) Zero() {
	for i := range v {
		v[i] = 0
	}
}

// IsZero reports whether v is the ⊥ vector time.
func (v VC) IsZero() bool {
	for _, c := range v {
		if c != 0 {
			return false
		}
	}
	return true
}

// String renders the vector time as "[c0,c1,...]".
func (v VC) String() string {
	var b strings.Builder
	b.WriteByte('[')
	for i, c := range v {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", c)
	}
	b.WriteByte(']')
	return b.String()
}
