package traceio

import (
	"bytes"
	"io"
	"testing"

	"repro/internal/gen"
	"repro/internal/trace"
)

// drainSoA decodes a whole stream through NextBlockSoA into one reused
// block, returning the materialized event sequence.
func drainSoA(t *testing.T, st *Stream, blockSize int) *trace.Block {
	t.Helper()
	all := trace.NewBlock(0)
	buf := trace.NewBlock(blockSize)
	for {
		n, err := st.NextBlockSoA(buf)
		for i := 0; i < n; i++ {
			all.Append(buf.At(i))
		}
		if err == io.EOF {
			return all
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestNextBlockSoAMatchesTrace checks the SoA block decoder yields the
// exact event sequence of the encoded trace, for both formats and for
// block sizes that do and do not divide the trace length.
func TestNextBlockSoAMatchesTrace(t *testing.T) {
	tr := gen.Random(gen.RandomConfig{Threads: 4, Locks: 3, Vars: 5, Events: 700, Seed: 3})
	for _, write := range []struct {
		name string
		fn   func(*bytes.Buffer) error
	}{
		{"binary", func(b *bytes.Buffer) error { return WriteBinary(b, tr) }},
		{"text", func(b *bytes.Buffer) error { return WriteText(b, tr) }},
	} {
		t.Run(write.name, func(t *testing.T) {
			var raw bytes.Buffer
			if err := write.fn(&raw); err != nil {
				t.Fatal(err)
			}
			for _, blockSize := range []int{1, 7, 256, 4096} {
				st, err := OpenStream(bytes.NewReader(raw.Bytes()))
				if err != nil {
					t.Fatal(err)
				}
				got := drainSoA(t, st, blockSize)
				if got.Len() != tr.Len() {
					t.Fatalf("block %d: decoded %d events, want %d", blockSize, got.Len(), tr.Len())
				}
				for i := range tr.Events {
					if got.At(i) != tr.Events[i] {
						t.Fatalf("block %d: event %d = %v, want %v", blockSize, i, got.At(i), tr.Events[i])
					}
				}
				if st.Stats().Events != tr.Len() {
					t.Fatalf("block %d: stats tally %d events", blockSize, st.Stats().Events)
				}
			}
		})
	}
}

// TestNextBlockSoAZeroCapacity checks a zero-capacity block is rejected,
// in either format, without latching the stream into an error state.
func TestNextBlockSoAZeroCapacity(t *testing.T) {
	tr := gen.Random(gen.RandomConfig{Threads: 2, Vars: 2, Events: 10, Seed: 4})
	for _, encode := range []func(io.Writer, *trace.Trace) error{WriteBinary, WriteText} {
		var raw bytes.Buffer
		if err := encode(&raw, tr); err != nil {
			t.Fatal(err)
		}
		st, err := OpenStream(bytes.NewReader(raw.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.NextBlockSoA(trace.NewBlock(0)); err == nil || err == io.EOF {
			t.Fatalf("zero-capacity block: err = %v, want a real error", err)
		}
		if got := drainSoA(t, st, 16); got.Len() != tr.Len() {
			t.Fatalf("stream unusable after zero-capacity call: decoded %d of %d", got.Len(), tr.Len())
		}
	}
}

// TestSymbolsPreallocateFromHeaders checks both formats' headers pre-size
// the intern tables so decoding interns every symbol without growing them.
func TestSymbolsPreallocateFromHeaders(t *testing.T) {
	tr := gen.Random(gen.RandomConfig{Threads: 5, Locks: 4, Vars: 9, Events: 300, Seed: 5})
	var bin, txt bytes.Buffer
	if err := WriteBinary(&bin, tr); err != nil {
		t.Fatal(err)
	}
	if err := WriteText(&txt, tr); err != nil {
		t.Fatal(err)
	}
	for name, raw := range map[string][]byte{"binary": bin.Bytes(), "text": txt.Bytes()} {
		st, err := OpenStream(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		if name == "text" {
			// The header comments precede the first event: one block pull
			// interns through the pre-sized tables.
			if _, err := st.NextBlockSoA(trace.NewBlock(1)); err != nil {
				t.Fatal(err)
			}
		}
		drainSoA(t, st, 64)
		s := st.Symbols()
		if s.NumThreads() != tr.NumThreads() || s.NumLocks() != tr.NumLocks() || s.NumVars() != tr.NumVars() {
			t.Fatalf("%s: symbol universe %d/%d/%d, want %d/%d/%d", name,
				s.NumThreads(), s.NumLocks(), s.NumVars(), tr.NumThreads(), tr.NumLocks(), tr.NumVars())
		}
	}
}
