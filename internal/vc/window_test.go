package vc

import (
	"fmt"
	"math/rand"
	"testing"
)

// checkWindow verifies the representation invariant: the window is a
// superset of the true modified set — every nonzero component lies inside
// the span and in a set bitmap bucket.
func checkWindow(t *testing.T, w *WC) {
	t.Helper()
	lo, hi := w.Span()
	mask, shift := w.Mask(), w.ChunkShift()
	for i, c := range w.VC() {
		if c == 0 {
			continue
		}
		if i < lo || i >= hi {
			t.Fatalf("width %d: component %d=%d outside span [%d,%d)", w.Width(), i, c, lo, hi)
		}
		if mask&(1<<(uint(i)>>shift)) == 0 {
			t.Fatalf("width %d: component %d=%d in unset bitmap bucket %d", w.Width(), i, c, uint(i)>>shift)
		}
	}
}

// wcModel pairs a windowed clock with its dense reference; every operation
// is applied to both and the contents compared.
type wcModel struct {
	w   WC
	ref VC
}

func newModel(width int) *wcModel {
	m := &wcModel{ref: New(width)}
	m.w.Init(width)
	return m
}

func (m *wcModel) verify(t *testing.T) {
	t.Helper()
	checkWindow(t, &m.w)
	for i, c := range m.ref {
		if m.w.VC()[i] != c {
			t.Fatalf("width %d: component %d: windowed %d, dense %d\nwindowed %v\ndense    %v",
				len(m.ref), i, m.w.VC()[i], c, m.w.VC(), m.ref)
		}
	}
}

// step applies one pseudo-random operation to the model pair. Operations
// mirror exactly what detectors do: Set, Join, JoinPacked (queue records),
// Copy, Zero, Leq comparisons, and the release-side publish that joins a
// clock into a newer one and copies the result back (Copy into a
// destination whose window lies inside the source's).
func step(t *testing.T, rng *rand.Rand, clocks []*wcModel) {
	t.Helper()
	a := clocks[rng.Intn(len(clocks))]
	width := len(a.ref)
	switch rng.Intn(11) {
	case 0, 1, 2: // Set
		i := rng.Intn(width)
		c := Clock(rng.Intn(50))
		a.w.Set(i, c)
		a.ref.Set(i, c)
	case 3, 4, 5: // Join
		b := clocks[rng.Intn(len(clocks))]
		gotChanged := a.w.Join(&b.w)
		wantChanged := a.ref.JoinChanged(b.ref)
		if gotChanged != wantChanged {
			t.Fatalf("Join changed=%v, dense changed=%v", gotChanged, wantChanged)
		}
	case 6: // queue-record round trip: pack b, join the record into a
		b := clocks[rng.Intn(len(clocks))]
		lo, hi := b.w.Span()
		rec := make([]Clock, PackedWords(b.w.Mask(), b.w.ChunkShift(), lo, hi))
		if n := b.w.AppendPacked(rec); n != len(rec) {
			t.Fatalf("AppendPacked wrote %d of %d words", n, len(rec))
		}
		gotChanged := a.w.JoinPacked(rec, lo, hi, b.w.Mask())
		wantChanged := a.ref.JoinChanged(b.ref)
		if gotChanged != wantChanged {
			t.Fatalf("packed join changed=%v, dense changed=%v", gotChanged, wantChanged)
		}
	case 7: // Copy
		b := clocks[rng.Intn(len(clocks))]
		a.w.Copy(&b.w)
		a.ref.Copy(b.ref)
	case 8: // Zero
		a.w.Zero()
		a.ref.Zero()
	case 9: // Leq both directions
		b := clocks[rng.Intn(len(clocks))]
		if got, want := a.w.LeqVC(b.w.VC()), a.ref.Leq(b.ref); got != want {
			t.Fatalf("LeqVC=%v, dense Leq=%v\na %v\nb %v", got, want, a.ref, b.ref)
		}
		if got, want := a.w.Leq(&b.w), a.ref.Leq(b.ref); got != want {
			t.Fatalf("Leq=%v, dense Leq=%v", got, want)
		}
	case 10: // join b into a, then copy a into b
		b := clocks[rng.Intn(len(clocks))]
		a.w.Join(&b.w)
		a.ref.JoinChanged(b.ref)
		b.w.Copy(&a.w)
		b.ref.Copy(a.ref)
		b.verify(t)
	}
	a.verify(t)
}

// TestWCMatchesDense drives long random operation sequences over clock
// families of many widths — spanning the dense cutoff, the span-scan
// cutoff, and bitmap bucket widths beyond one component — and pins the
// windowed representation to the dense reference after every step.
func TestWCMatchesDense(t *testing.T) {
	for _, width := range []int{1, 2, 3, 4, 8, 9, 16, 64, 65, 100, 256, 300, 1024} {
		t.Run(fmt.Sprintf("width%d", width), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(width)))
			clocks := make([]*wcModel, 5)
			for i := range clocks {
				clocks[i] = newModel(width)
			}
			for step_ := 0; step_ < 3000; step_++ {
				step(t, rng, clocks)
			}
		})
	}
}

// TestNewWCMatrix pins the contiguous clock bank: each row has exactly its
// width of capacity (an append cannot run into the next row) and rows do
// not alias.
func TestNewWCMatrix(t *testing.T) {
	m := NewWCMatrix(3, 4)
	if len(m) != 3 {
		t.Fatalf("rows = %d, want 3", len(m))
	}
	for i := range m {
		if v := m[i].VC(); len(v) != 4 || cap(v) != 4 {
			t.Fatalf("row %d: len=%d cap=%d, want 4/4", i, len(v), cap(v))
		}
		m[i].Set(i, Clock(i+1))
	}
	for i := range m {
		for j, c := range m[i].VC() {
			want := Clock(0)
			if j == i {
				want = Clock(i + 1)
			}
			if c != want {
				t.Fatalf("m[%d][%d] = %d, want %d", i, j, c, want)
			}
		}
	}
}

// TestWCJoinReportsChange: Join reports whether any component grew, so a
// repeated join of an unchanged source reports no change.
func TestWCJoinReportsChange(t *testing.T) {
	a, b := NewWC(100), NewWC(100)
	b.Set(7, 5)
	if !a.Join(&b) {
		t.Fatal("first join must change a")
	}
	if a.Join(&b) {
		t.Fatal("second join of unchanged source must be a no-op")
	}
}

// TestWCForceDense pins that ForceDense produces full windows (so windowed
// call sites degrade to the dense behavior) without changing contents.
func TestWCForceDense(t *testing.T) {
	ForceDense(true)
	defer ForceDense(false)
	w := NewWC(256)
	if !w.Dense() {
		t.Fatal("ForceDense clock not dense")
	}
	if lo, hi := w.Span(); lo != 0 || hi != 256 {
		t.Fatalf("ForceDense span [%d,%d), want [0,256)", lo, hi)
	}
	w.Set(200, 3)
	x := New(256)
	if w.LeqVC(x) {
		t.Fatal("nonzero clock ⊑ ⊥")
	}
	x.Set(200, 3)
	if !w.LeqVC(x) {
		t.Fatal("clock !⊑ its copy")
	}
}

// TestWCSparseOpsTouchLittle sanity-checks the point of the representation:
// a join of a sparse wide clock must not have scanned the whole width. We
// can't count loop iterations, but we can pin the window stays narrow.
func TestWCSparseOpsTouchLittle(t *testing.T) {
	a, b := NewWC(1024), NewWC(1024)
	b.Set(0, 7)
	b.Set(900, 3)
	a.Join(&b)
	checkWindow(t, &a)
	if got := popcount(a.Mask()); got > 2 {
		t.Fatalf("sparse join dirtied %d buckets, want ≤ 2", got)
	}
	c := NewWC(1024)
	c.Copy(&a)
	checkWindow(t, &c)
	if c.VC()[0] != 7 || c.VC()[900] != 3 {
		t.Fatal("copy lost components")
	}
}

// TestMaskRunsMatchesBuckets checks MaskRuns against a bucket-by-bucket
// walk: set buckets merged into maximal runs, clamped to the span, empty
// runs dropped. The masks include the empty and the full one (a run of 64
// buckets) and runs touching bit 63.
func TestMaskRunsMatchesBuckets(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	masks := []uint64{0, ^uint64(0), 1, 1 << 63, ^uint64(1), ^uint64(0) >> 1, 0xf0f0f0f0f0f0f0f0}
	for range 2000 {
		masks = append(masks, rng.Uint64()&rng.Uint64())
	}
	for _, mask := range masks {
		shift := uint(rng.Intn(5))
		span := 64 << shift
		lo := rng.Intn(span)
		hi := lo + rng.Intn(span-lo+1)
		var want [][2]int
		for i := 0; i < 64; i++ {
			if mask&(1<<uint(i)) == 0 {
				continue
			}
			a, b := max(i<<shift, lo), min((i+1)<<shift, hi)
			if a >= b {
				continue
			}
			if n := len(want); n > 0 && want[n-1][1] == i<<shift {
				want[n-1][1] = b
			} else {
				want = append(want, [2]int{a, b})
			}
		}
		var got [][2]int
		it := NewMaskRuns(mask, shift, lo, hi)
		for {
			a, b, ok := it.Next()
			if !ok {
				break
			}
			got = append(got, [2]int{a, b})
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("mask %#x shift %d span [%d,%d): runs %v, want %v", mask, shift, lo, hi, got, want)
		}
	}
}

func popcount(m uint64) int {
	n := 0
	for ; m != 0; m &= m - 1 {
		n++
	}
	return n
}

// FuzzWindowInvariants drives arbitrary operation sequences from fuzz input
// over a family of windowed clocks, checking after every operation that the
// window remains a superset of the true modified set and the contents match
// the dense reference.
func FuzzWindowInvariants(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 250, 13, 100}, uint16(100))
	f.Add([]byte{9, 9, 9, 1, 1, 7, 7, 8, 3}, uint16(1024))
	f.Add([]byte{6, 6, 6, 0, 200, 7}, uint16(65))
	f.Fuzz(func(t *testing.T, ops []byte, w16 uint16) {
		width := int(w16)%2048 + 1
		clocks := make([]*wcModel, 3)
		for i := range clocks {
			clocks[i] = newModel(width)
		}
		if len(ops) > 512 {
			ops = ops[:512]
		}
		// Reuse the byte stream as a deterministic rng substitute.
		seed := int64(0)
		for _, b := range ops {
			seed = seed*31 + int64(b)
		}
		rng := rand.New(rand.NewSource(seed))
		for range ops {
			step(t, rng, clocks)
		}
	})
}
