package vc

// This file implements the windowed vector-clock representation behind the
// high-thread-count fast paths: clock operations proportional to what
// actually changed, not to the thread count T.
//
// A WC (windowed clock) wraps the dense []Clock storage with a *dirty
// window*: a contiguous span [lo,hi) plus a 64-bucket dirty bitmap, together
// a superset of the clock's support {i : v[i] != 0}. Every mutating
// operation maintains the window, so
//
//   - Join only merges the source's dirty span (components outside it are
//     zero and cannot raise anything);
//   - Leq early-exits outside the left operand's window (zero ⊑ anything);
//   - Copy memmoves only the source's dirty span and zero-fills only the
//     destination's previously-dirty components, and none of them when the
//     destination's window lies inside the source's.
//
// The span alone is exact for workloads whose thread neighborhoods are
// contiguous; once a span grows past spanScan components the operations
// switch to the bitmap, which keeps scattered support (e.g. "my pool plus
// the main thread") cheap: bit k of the bitmap covers the 2^shift-component
// bucket starting at k<<shift, with shift chosen at Init so 64 buckets cover
// the width. For width ≤ 4096 a bucket is ≤ 64 components; beyond that the
// buckets widen and the bitmap degrades gracefully toward the span.
//
// Tiny widths (≤ denseWidth) and ForceDense builds opt out: their window is
// permanently [0,width), so every operation takes the unrolled dense VC
// paths that win at T ∈ {2,3,4}, and windows never have to be maintained.
// Dense and windowed clocks of the same width may be mixed freely; a dense
// clock simply behaves as one whose window never shrinks.
//
// Invariant (fuzzed in window_test.go): the window is a superset of the
// true modified set — for every i with v[i] != 0, lo ≤ i < hi and the
// bitmap bucket containing i is set (windowed clocks only).

import (
	"math/bits"
	"sync/atomic"
)

const (
	// denseWidth is the width at or below which clocks are always dense:
	// window maintenance costs more than it saves when the whole clock is a
	// couple of cache lines, and the dense paths keep the width-2/3/4
	// unrolls.
	denseWidth = 8
	// spanScan is the widest dirty span that is scanned linearly; wider
	// spans go through the dirty bitmap.
	spanScan = 64
	// maskBuckets is the number of buckets in the dirty bitmap.
	maskBuckets = 64
)

// forceDense, when set, makes every subsequently-initialized WC dense
// regardless of width. It exists for the differential test suites, which pin
// the windowed and dense code paths to byte-identical results; it is not a
// production mode. Toggle only while no detector is running.
var forceDense atomic.Bool

// ForceDense forces all subsequently-initialized windowed clocks to the
// dense representation (on=true) or restores the default (on=false).
// Intended for tests; do not toggle concurrently with detector execution.
func ForceDense(on bool) { forceDense.Store(on) }

// chunkShift returns the bucket shift for a width: the smallest s such that
// maskBuckets buckets of 2^s components cover the width.
func chunkShift(width int) uint8 {
	s := uint8(0)
	for (width+(1<<s)-1)>>s > maskBuckets {
		s++
	}
	return s
}

// fullMask returns the bitmap with every bucket of a width set.
func fullMask(width int, shift uint8) uint64 {
	if width <= 0 {
		return 0
	}
	n := (width + (1 << shift) - 1) >> shift
	if n >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << n) - 1
}

// WC is a windowed vector clock: dense []Clock storage plus the dirty
// window. The zero WC is not usable; call Init
// (or carve one out of NewWCMatrix) first. All mutations must go through WC
// methods — writing the storage directly would break the window invariant.
type WC struct {
	v      VC
	lo, hi int32 // dirty span [lo,hi); empty when lo == hi
	mask   uint64
	shift  uint8
	dense  bool
}

// Init allocates zeroed storage of the given width and resets the window.
func (w *WC) Init(width int) {
	w.InitFrom(make(VC, width))
}

// InitFrom adopts existing zeroed storage (e.g. a slice of a contiguous
// bank) and resets the window.
func (w *WC) InitFrom(v VC) {
	w.v = v
	w.shift = chunkShift(len(v))
	w.dense = len(v) <= denseWidth || forceDense.Load()
	if w.dense {
		w.lo, w.hi = 0, int32(len(v))
		w.mask = fullMask(len(v), w.shift)
	} else {
		w.lo, w.hi = 0, 0
		w.mask = 0
	}
}

// NewWC returns an initialized windowed clock of the given width.
func NewWC(width int) WC {
	var w WC
	w.Init(width)
	return w
}

// NewWCMatrix returns rows windowed clocks of the given width whose storage
// is carved out of one contiguous allocation, for per-thread clock banks:
// one backing array keeps the bank cache-dense and costs one allocation
// instead of rows.
func NewWCMatrix(rows, width int) []WC {
	flat := make(VC, rows*width)
	m := make([]WC, rows)
	for i := range m {
		m[i].InitFrom(flat[i*width : (i+1)*width : (i+1)*width])
	}
	return m
}

// Ready reports whether the clock has storage (Init was called).
func (w *WC) Ready() bool { return w.v != nil }

// VC returns the dense storage view. Callers may read it freely but must
// not write through it.
func (w *WC) VC() VC { return w.v }

// Width returns the clock width.
func (w *WC) Width() int { return len(w.v) }

// Get returns component t.
func (w *WC) Get(t int) Clock { return w.v[t] }

// Span returns the dirty span [lo,hi).
func (w *WC) Span() (lo, hi int) { return int(w.lo), int(w.hi) }

// Mask returns the dirty bitmap.
func (w *WC) Mask() uint64 { return w.mask }

// ChunkShift returns the bitmap bucket shift: bit k covers components
// [k<<shift, (k+1)<<shift).
func (w *WC) ChunkShift() uint { return uint(w.shift) }

// Dense reports whether the clock is in the dense (full-window)
// representation.
func (w *WC) Dense() bool { return w.dense }

// markDirty extends the window to cover component i.
func (w *WC) markDirty(i int) {
	if w.lo == w.hi {
		w.lo, w.hi = int32(i), int32(i+1)
	} else {
		if int32(i) < w.lo {
			w.lo = int32(i)
		}
		if int32(i) >= w.hi {
			w.hi = int32(i + 1)
		}
	}
	w.mask |= 1 << (uint(i) >> w.shift)
}

// absorb extends the window to cover another window.
func (w *WC) absorb(lo, hi int32, mask uint64) {
	if lo == hi {
		return
	}
	if w.lo == w.hi {
		w.lo, w.hi = lo, hi
	} else {
		if lo < w.lo {
			w.lo = lo
		}
		if hi > w.hi {
			w.hi = hi
		}
	}
	w.mask |= mask
}

// Set assigns component t.
func (w *WC) Set(t int, c Clock) {
	w.v[t] = c
	if !w.dense {
		w.markDirty(t)
	}
}

// Zero resets every dirty component to 0 and empties the window.
func (w *WC) Zero() {
	if w.dense {
		w.v.Zero()
		return
	}
	w.zeroDirty()
	w.lo, w.hi = 0, 0
	w.mask = 0
}

// zeroDirty zeroes the components covered by the window.
func (w *WC) zeroDirty() {
	lo, hi := int(w.lo), int(w.hi)
	if hi-lo <= spanScan {
		z := w.v[lo:hi]
		for i := range z {
			z[i] = 0
		}
		return
	}
	shift := uint(w.shift)
	for m := w.mask; m != 0; m &= m - 1 {
		k := bits.TrailingZeros64(m)
		a, b := bucketBounds(k, shift, lo, hi)
		z := w.v[a:b]
		for i := range z {
			z[i] = 0
		}
	}
}

// bucketBounds clamps bitmap bucket k to the span [lo,hi).
func bucketBounds(k int, shift uint, lo, hi int) (a, b int) {
	a = k << shift
	b = a + (1 << shift)
	if a < lo {
		a = lo
	}
	if b > hi {
		b = hi
	}
	if a > b {
		a = b
	}
	return a, b
}

// BucketBounds returns the component range covered by the lowest set bit of
// mask m, clamped to the span [lo,hi) — the walk step for callers that scan
// a dirty bitmap themselves (iterate with m &= m-1).
func BucketBounds(m uint64, shift uint, lo, hi int) (a, b int) {
	return bucketBounds(bits.TrailingZeros64(m), shift, lo, hi)
}

// MaskRuns iterates the maximal runs of consecutive set bitmap buckets of a
// window as component ranges, clamped to the span. A full mask yields one
// run covering the whole span, so dense clocks degrade to a single linear
// pass. Writers and readers of bucket-compressed records (see
// core/queue.go) must walk the same runs in the same order; this iterator
// is that shared definition. Next is small enough to inline, so hot loops
// walk runs without a call.
type MaskRuns struct {
	m      uint64 // buckets not yet walked, at their absolute bit positions
	shift  uint
	lo, hi int
}

// NewMaskRuns returns a run iterator over a window.
func NewMaskRuns(mask uint64, shift uint, lo, hi int) MaskRuns {
	return MaskRuns{m: mask, shift: shift, lo: lo, hi: hi}
}

// Next returns the next run's component range [a,b), or ok=false when done.
func (r *MaskRuns) Next() (a, b int, ok bool) {
	for r.m != 0 {
		// Adding the lowest set bit carries through the lowest run: the
		// sum's lowest set bit is the bucket after the run (64, the sum
		// 0, when the run reaches bit 63), and masking with it clears
		// the run.
		low := r.m & -r.m
		end := r.m + low
		a = max(bits.TrailingZeros64(low)<<r.shift, r.lo)
		b = min(bits.TrailingZeros64(end)<<r.shift, r.hi)
		r.m &= end
		if a < b {
			return a, b, true
		}
	}
	return 0, 0, false
}

// PackedWords returns the number of clock words the window occupies in
// bucket-compressed form: the sum of its mask-run widths.
func PackedWords(mask uint64, shift uint, lo, hi int) int {
	n := 0
	it := NewMaskRuns(mask, shift, lo, hi)
	for {
		a, b, ok := it.Next()
		if !ok {
			return n
		}
		n += b - a
	}
}

// AppendPacked writes the clock's window components into dst in
// bucket-compressed form (mask-run order) and returns the words written;
// dst must have room for them: the clock's width when dense, else
// PackedWords of its window. Dense clocks (and any clock
// whose dirty buckets form one contiguous run) take a straight copy.
func (w *WC) AppendPacked(dst []Clock) int {
	if w.dense {
		n := len(w.v)
		if n <= 8 {
			for i := 0; i < n; i++ {
				dst[i] = w.v[i]
			}
			return n
		}
		return copy(dst, w.v)
	}
	off := 0
	it := NewMaskRuns(w.mask, uint(w.shift), int(w.lo), int(w.hi))
	for {
		a, b, ok := it.Next()
		if !ok {
			return off
		}
		if b-a <= 8 {
			for i := a; i < b; i++ {
				dst[off] = w.v[i]
				off++
			}
			continue
		}
		off += copy(dst[off:], w.v[a:b])
	}
}

// JoinPacked sets w to w ⊔ r, where r is a bucket-compressed record with
// the given window (written by AppendPacked from a clock of the same
// width). Reports whether any component grew. A record whose word count
// equals its span width is one contiguous run — every dense record, and
// most narrow windowed ones — and joins with a straight loop, no bitmap
// walk.
func (w *WC) JoinPacked(r []Clock, lo, hi int, mask uint64) bool {
	changed := false
	v := w.v
	if len(r) == hi-lo {
		if lo == 0 && hi == 3 {
			// The width-3 unroll (tiny-T detectors are all width 3).
			r, v := r[:3], v[:3]
			if r[0] > v[0] {
				v[0] = r[0]
				changed = true
			}
			if r[1] > v[1] {
				v[1] = r[1]
				changed = true
			}
			if r[2] > v[2] {
				v[2] = r[2]
				changed = true
			}
		} else {
			u := v[lo : lo+len(r)]
			for i, c := range r {
				if c > u[i] {
					u[i] = c
					changed = true
				}
			}
		}
	} else {
		off := 0
		it := NewMaskRuns(mask, uint(w.shift), lo, hi)
		for {
			a, b, ok := it.Next()
			if !ok {
				break
			}
			for i := a; i < b; i++ {
				if c := r[off]; c > v[i] {
					v[i] = c
					changed = true
				}
				off++
			}
		}
	}
	if changed && !w.dense {
		w.absorb(int32(lo), int32(hi), mask)
	}
	return changed
}

// SpanScan is the widest dirty span that windowed operations scan linearly
// instead of walking the bitmap; callers implementing their own windowed
// loops should use the same cutoff.
const SpanScan = spanScan

// Join sets w to w ⊔ src in place, merging only src's dirty window, and
// reports whether any component grew. Both clocks must have the same
// width. The width-3 case (tiny-T clocks are always dense, no window
// upkeep) is an unroll that inlines into Join; Join itself is a call.
func (w *WC) Join(src *WC) bool {
	if len(src.v) == 3 {
		return w.join3(src)
	}
	return w.joinWide(src)
}

func (w *WC) join3(src *WC) bool {
	v, sv := w.v, src.v
	changed := false
	if sv[0] > v[0] {
		v[0] = sv[0]
		changed = true
	}
	if sv[1] > v[1] {
		v[1] = sv[1]
		changed = true
	}
	if sv[2] > v[2] {
		v[2] = sv[2]
		changed = true
	}
	return changed
}

func (w *WC) joinWide(src *WC) bool {
	if w.dense && src.dense {
		return w.v.JoinChanged(src.v)
	}
	changed := false
	v, sv := w.v, src.v
	lo, hi := int(src.lo), int(src.hi)
	if hi-lo <= spanScan {
		for i := lo; i < hi; i++ {
			if c := sv[i]; c > v[i] {
				v[i] = c
				changed = true
			}
		}
	} else {
		shift := uint(src.shift)
		for m := src.mask; m != 0; m &= m - 1 {
			k := bits.TrailingZeros64(m)
			a, b := bucketBounds(k, shift, lo, hi)
			for i := a; i < b; i++ {
				if c := sv[i]; c > v[i] {
					v[i] = c
					changed = true
				}
			}
		}
	}
	if changed && !w.dense {
		w.absorb(src.lo, src.hi, src.mask)
	}
	return changed
}

// Copy sets w to an exact copy of src: only src's dirty span is moved, and
// only w's previously-dirty components outside it are zero-filled — none
// when w's span and bitmap lie inside src's, since the move overwrites
// every component w's window covers. Both clocks must have the same width.
// Copy is a call; detector loops that want the width-3 copy inline write
// the storage themselves.
func (w *WC) Copy(src *WC) {
	if sv := src.v; len(sv) == 3 && len(w.v) == 3 {
		v := w.v[:3]
		v[0], v[1], v[2] = sv[0], sv[1], sv[2]
		return
	}
	w.copyWide(src)
}

func (w *WC) copyWide(src *WC) {
	if w == src {
		return
	}
	if w.dense {
		w.v.Copy(src.v)
		return
	}
	if w.lo < src.lo || w.hi > src.hi || w.mask&^src.mask != 0 {
		w.zeroDirty()
	}
	lo, hi := int(src.lo), int(src.hi)
	if hi-lo <= spanScan {
		copy(w.v[lo:hi], src.v[lo:hi])
	} else {
		shift := uint(src.shift)
		for m := src.mask; m != 0; m &= m - 1 {
			k := bits.TrailingZeros64(m)
			a, b := bucketBounds(k, shift, lo, hi)
			copy(w.v[a:b], src.v[a:b])
		}
	}
	w.lo, w.hi = src.lo, src.hi
	w.mask = src.mask
}

// JoinEff sets w to w ⊔ (p ⊔ o)[t := n] — the WCP effective-time join —
// merging only the sources' dirty windows. With oZero, the ⊔ o leg is
// skipped (o adds nothing beyond p).
func (w *WC) JoinEff(p, o *WC, t int, n Clock, oZero bool) {
	if oZero && len(p.v) == 3 && len(w.v) == 3 {
		w.joinEff3(p, t, n)
		return
	}
	w.joinEffWide(p, o, t, n, oZero)
}

func (w *WC) joinEff3(p *WC, t int, n Clock) {
	v, pv := w.v[:3], p.v[:3]
	if pv[0] > v[0] {
		v[0] = pv[0]
	}
	if pv[1] > v[1] {
		v[1] = pv[1]
	}
	if pv[2] > v[2] {
		v[2] = pv[2]
	}
	if n > v[t] {
		v[t] = n
	}
}

func (w *WC) joinEffWide(p, o *WC, t int, n Clock, oZero bool) {
	w.Join(p)
	if !oZero {
		w.Join(o)
	}
	if n > w.v[t] {
		w.Set(t, n)
	}
}

// LeqVC reports w ⊑ x (pointwise ≤), early-exiting outside w's dirty
// window: components there are zero and ⊑ anything. x must not be narrower
// than w. The width-3 case is unrolled, but LeqVC is a call.
func (w *WC) LeqVC(x VC) bool {
	if v := w.v; len(v) == 3 {
		x = x[:3]
		return v[0] <= x[0] && v[1] <= x[1] && v[2] <= x[2]
	}
	return w.leqWide(x)
}

func (w *WC) leqWide(x VC) bool {
	if w.dense {
		return w.v.Leq(x)
	}
	v := w.v
	lo, hi := int(w.lo), int(w.hi)
	if hi-lo <= spanScan {
		for i := lo; i < hi; i++ {
			if v[i] > x[i] {
				return false
			}
		}
		return true
	}
	shift := uint(w.shift)
	for m := w.mask; m != 0; m &= m - 1 {
		k := bits.TrailingZeros64(m)
		a, b := bucketBounds(k, shift, lo, hi)
		for i := a; i < b; i++ {
			if v[i] > x[i] {
				return false
			}
		}
	}
	return true
}

// Leq reports w ⊑ x for two windowed clocks of the same width.
func (w *WC) Leq(x *WC) bool { return w.LeqVC(x.v) }

// Tighten recomputes the dirty window from the clock's actual support,
// shrinking spans and masks that have grown looser than the nonzero
// components they cover — absorb only ever widens windows, so a long-lived
// clock that repeatedly joined scattered sources can end up scanning buckets
// whose components are all zero. Compaction passes call this on long-lived
// clocks; it is O(width) and leaves the content unchanged. Dense clocks
// have no window to tighten.
func (w *WC) Tighten() {
	if w.dense {
		return
	}
	lo, hi := int32(-1), int32(0)
	var mask uint64
	for i, c := range w.v {
		if c == 0 {
			continue
		}
		if lo < 0 {
			lo = int32(i)
		}
		hi = int32(i + 1)
		mask |= 1 << (uint(i) >> w.shift)
	}
	if lo < 0 {
		w.lo, w.hi, w.mask = 0, 0, 0
		return
	}
	w.lo, w.hi, w.mask = lo, hi, mask
}

// Clone returns a fresh dense VC equal to w.
func (w *WC) Clone() VC { return w.v.Clone() }

// String renders the clock like VC.String.
func (w *WC) String() string { return w.v.String() }
