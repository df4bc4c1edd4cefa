package race

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/snap"
	"repro/internal/vc"
)

// TestEpochsTransitions walks one variable through FastTrack's states:
// ordered reads stay one epoch, a concurrent read inflates to a read
// vector, a write racing with it is flagged and drops the vector, and the
// floor that dominates every access retires the state.
func TestEpochsTransitions(t *testing.T) {
	var s Epochs
	if !s.Fresh() {
		t.Fatal("zero value is not fresh")
	}
	if s.Write(0, vc.VC{1, 0}) {
		t.Fatal("first write flagged")
	}
	if s.Read(1, vc.VC{1, 1}) {
		t.Fatal("read ordered after the write flagged")
	}
	if s.Shared != nil || s.R != vc.MakeEpoch(1, 1) {
		t.Fatalf("ordered read: R=%v shared=%v, want 1@1 and no vector", s.R, s.Shared)
	}
	if s.Read(0, vc.VC{2, 0}) {
		t.Fatal("read after the same thread's write flagged")
	}
	if s.Shared == nil || s.Shared.Get(0) != 2 || s.Shared.Get(1) != 1 {
		t.Fatalf("concurrent reads did not inflate to [2 1]: %v", s.Shared)
	}
	if !s.Write(1, vc.VC{1, 3}) {
		t.Fatal("write concurrent with thread 0's read not flagged")
	}
	if s.Shared != nil || s.W != vc.MakeEpoch(1, 3) || s.R != vc.NoEpoch {
		t.Fatalf("write did not reset read sharing: %+v", s)
	}
	if s.Write(1, vc.VC{1, 3}) {
		t.Fatal("same-epoch write flagged")
	}
	if s.DominatedBy(vc.VC{5, 2}) {
		t.Fatal("write 3@1 dominated by floor [5 2]")
	}
	if !s.DominatedBy(vc.VC{0, 3}) {
		t.Fatal("write 3@1 not dominated by floor [0 3]")
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
