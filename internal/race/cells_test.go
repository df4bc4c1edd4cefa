package race

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/snap"
	"repro/internal/vc"
)

// TestCellForms walks one cell through its forms: fresh, an epoch, a
// vector seeded with that epoch's component, and back to an epoch that
// keeps the vector's storage. Each form compares and round-trips through
// the snapshot codec as its time says.
func TestCellForms(t *testing.T) {
	var c Cell
	if !c.Fresh() || !c.LeqVC(vc.VC{0, 0}) {
		t.Fatal("zero cell is not a fresh ⊥")
	}
	c.Ep = vc.MakeEpoch(1, 3)
	if c.Fresh() || c.LeqVC(vc.VC{9, 2}) || !c.LeqVC(vc.VC{0, 3}) {
		t.Fatal("epoch 3@1 compares wrong")
	}
	v := c.Vector(2)
	if c.Ep != vc.NoEpoch || v.Get(1) != 3 || v.Get(0) != 0 {
		t.Fatalf("vector form not seeded from the epoch: %v", v.VC())
	}
	v.Set(0, 5)
	if c.LeqVC(vc.VC{4, 3}) || !c.LeqVC(vc.VC{5, 3}) {
		t.Fatal("vector [5 3] compares wrong")
	}
	roundTripTime(t, &c)
	c.Ep = vc.MakeEpoch(0, 7)
	roundTripTime(t, &c)
	if c.Vector(2) != v || v.Get(0) != 7 || v.Get(1) != 0 {
		t.Fatalf("vector storage not reused and reseeded: %v", v.VC())
	}
	roundTripTime(t, &Cell{})
}

// roundTripTime encodes c's time and requires the decoded cell to be in
// the same form with the same clock.
func roundTripTime(t *testing.T, c *Cell) {
	t.Helper()
	var buf bytes.Buffer
	w := snap.NewWriter(&buf)
	c.EncodeTime(w)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rd, err := snap.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var got Cell
	if err := got.DecodeTime(rd, vc.New(2)); err != nil {
		t.Fatal(err)
	}
	if got.Ep != c.Ep || got.Fresh() != c.Fresh() {
		t.Fatalf("decoded epoch %v fresh %v, want %v fresh %v", got.Ep, got.Fresh(), c.Ep, c.Fresh())
	}
	if c.Ep == vc.NoEpoch && c.Vec != nil && !got.Vec.VC().Equal(c.Vec.VC()) {
		t.Fatalf("decoded clock %v, want %v", got.Vec.VC(), c.Vec.VC())
	}
}

// TestDecodeEpochBoundsThread: an epoch decodes only when its thread lies
// inside the clock width.
func TestDecodeEpochBoundsThread(t *testing.T) {
	var buf bytes.Buffer
	w := snap.NewWriter(&buf)
	w.Uvarint(uint64(vc.MakeEpoch(2, 9)))
	w.Uvarint(uint64(vc.MakeEpoch(3, 9)))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rd, err := snap.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if e, err := DecodeEpoch(rd, 3); err != nil || e != vc.MakeEpoch(2, 9) {
		t.Fatalf("DecodeEpoch = %v, %v; want 9@2", e, err)
	}
	var de *snap.DecodeError
	if _, err := DecodeEpoch(rd, 3); !errors.As(err, &de) {
		t.Fatalf("epoch of thread 3 at width 3: err=%v, want *snap.DecodeError", err)
	}
}
