package snap

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

func frame(t *testing.T, fill func(w *Writer)) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	fill(w)
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	return buf.Bytes()
}

func TestRoundTrip(t *testing.T) {
	b := frame(t, func(w *Writer) {
		w.Uvarint(0)
		w.Uvarint(1 << 40)
		w.Varint(-5)
		w.Int(12345)
		w.Byte(0xab)
		w.Bool(true)
		w.Bool(false)
		w.String("hello")
		w.Bytes([]byte{1, 2, 3})
		w.I32s([]int32{-1, 0, 1 << 30, -32768})
		w.Sparse([]int32{0, 7, 0, 0, -2, 9})
	})
	r, err := NewReader(bytes.NewReader(b))
	if err != nil {
		t.Fatalf("reader: %v", err)
	}
	if v, _ := r.Uvarint(); v != 0 {
		t.Fatalf("uvarint: %d", v)
	}
	if v, _ := r.Uvarint(); v != 1<<40 {
		t.Fatalf("uvarint: %d", v)
	}
	if v, _ := r.Varint(); v != -5 {
		t.Fatalf("varint: %d", v)
	}
	if v, _ := r.Int(); v != 12345 {
		t.Fatalf("int: %d", v)
	}
	if v, _ := r.Byte(); v != 0xab {
		t.Fatalf("byte: %x", v)
	}
	if v, _ := r.Bool(); !v {
		t.Fatal("bool true")
	}
	if v, _ := r.Bool(); v {
		t.Fatal("bool false")
	}
	if v, _ := r.String(100); v != "hello" {
		t.Fatalf("string: %q", v)
	}
	if v, _ := r.Bytes(100); !bytes.Equal(v, []byte{1, 2, 3}) {
		t.Fatalf("bytes: %v", v)
	}
	v32, err := r.I32s(100)
	if err != nil || len(v32) != 4 || v32[0] != -1 || v32[2] != 1<<30 || v32[3] != -32768 {
		t.Fatalf("i32s: %v %v", v32, err)
	}
	sp := make([]int32, 6)
	if err := r.Sparse(sp); err != nil {
		t.Fatalf("sparse: %v", err)
	}
	want := []int32{0, 7, 0, 0, -2, 9}
	for i := range want {
		if sp[i] != want[i] {
			t.Fatalf("sparse[%d] = %d, want %d", i, sp[i], want[i])
		}
	}
	if err := r.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

func TestConcatenatedFrames(t *testing.T) {
	a := frame(t, func(w *Writer) { w.Uvarint(1) })
	b := frame(t, func(w *Writer) { w.Uvarint(2) })
	stream := bytes.NewReader(append(append([]byte{}, a...), b...))
	for want := uint64(1); want <= 2; want++ {
		r, err := NewReader(stream)
		if err != nil {
			t.Fatalf("frame %d: %v", want, err)
		}
		if v, _ := r.Uvarint(); v != want {
			t.Fatalf("frame %d: got %d", want, v)
		}
		if err := r.Close(); err != nil {
			t.Fatalf("frame %d close: %v", want, err)
		}
	}
	if _, err := NewReader(stream); err != io.EOF {
		t.Fatalf("expected clean EOF, got %v", err)
	}
}

func wantDecodeError(t *testing.T, b []byte) {
	t.Helper()
	r, err := NewReader(bytes.NewReader(b))
	if err == nil {
		err = r.Close()
	}
	var de *DecodeError
	if !errors.As(err, &de) {
		t.Fatalf("expected DecodeError, got %v", err)
	}
}

func TestCorruption(t *testing.T) {
	b := frame(t, func(w *Writer) { w.String("payload bytes here") })

	// Every single-bit flip must fail the checksum, the magic, the
	// version, or the framing — never decode successfully.
	for i := 0; i < len(b)*8; i++ {
		c := append([]byte{}, b...)
		c[i/8] ^= 1 << (i % 8)
		r, err := NewReader(bytes.NewReader(c))
		if err != nil {
			continue
		}
		if _, err := r.String(100); err == nil {
			if err := r.Close(); err == nil {
				t.Fatalf("bit flip %d decoded cleanly", i)
			}
		}
	}

	// Truncations at every boundary.
	for n := 0; n < len(b); n++ {
		r, err := NewReader(bytes.NewReader(b[:n]))
		if err == nil {
			t.Fatalf("truncation to %d bytes decoded cleanly (%v)", n, r)
		}
	}

	// Version skew.
	c := append([]byte{}, b...)
	c[4] = Version + 1
	wantDecodeError(t, c)
}

func TestTrailingPayload(t *testing.T) {
	b := frame(t, func(w *Writer) {
		w.Uvarint(1)
		w.Uvarint(2) // decoder below only reads one value
	})
	r, err := NewReader(bytes.NewReader(b))
	if err != nil {
		t.Fatalf("reader: %v", err)
	}
	if _, err := r.Uvarint(); err != nil {
		t.Fatalf("uvarint: %v", err)
	}
	var de *DecodeError
	if err := r.Close(); !errors.As(err, &de) {
		t.Fatalf("expected trailing-bytes DecodeError, got %v", err)
	}
}

func TestBoundsEnforced(t *testing.T) {
	b := frame(t, func(w *Writer) { w.String("much too long") })
	r, err := NewReader(bytes.NewReader(b))
	if err != nil {
		t.Fatalf("reader: %v", err)
	}
	var de *DecodeError
	if _, err := r.String(3); !errors.As(err, &de) {
		t.Fatalf("expected bound DecodeError, got %v", err)
	}
}

// TestSparseIndexOverflow: a sparse index or increment too large for an
// int must fail as a DecodeError, not wrap negative and index dst.
func TestSparseIndexOverflow(t *testing.T) {
	for _, idx := range [][]uint64{{1 << 63}, {^uint64(0)}, {1, 1<<64 - 1}} {
		b := frame(t, func(w *Writer) {
			w.Uvarint(uint64(len(idx)))
			for _, d := range idx {
				w.Uvarint(d)
				w.Int(7)
			}
		})
		r, err := NewReader(bytes.NewReader(b))
		if err != nil {
			t.Fatalf("reader: %v", err)
		}
		var de *DecodeError
		if err := r.Sparse(make([]int32, 4)); !errors.As(err, &de) {
			t.Fatalf("indices %v: expected DecodeError, got %v", idx, err)
		}
	}
}
