package traceio

import (
	"bytes"
	"errors"
	"io"
	"slices"
	"testing"

	"repro/internal/event"
	"repro/internal/gen"
	"repro/internal/trace"
)

// FuzzBinaryDecode throws arbitrary bytes at every binary decode path —
// ReadBinary, OpenStream with NextBlockSoA, and ReadHeader with
// NewEventStream — and checks the ingestion contract:
// every failure is a typed *DecodeError, every decoded operand is in range
// of the trace's own symbol tables, the streaming paths agree with the
// batch decode event by event and on where the input goes bad, and a
// decoded trace re-encodes to the input's bytes whenever the input is
// canonical (and otherwise to a canonical fixpoint of the same trace).
func FuzzBinaryDecode(f *testing.F) {
	var valid bytes.Buffer
	if err := WriteBinary(&valid, gen.Random(gen.RandomConfig{Seed: 2, Events: 40, Threads: 3, Locks: 2, Vars: 3})); err != nil {
		f.Fatal(err)
	}
	var dup bytes.Buffer
	if err := WriteBinary(&dup, dupNameTrace()); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add(dup.Bytes())
	for _, cut := range []int{3, 5, 9, 20, valid.Len() / 2, valid.Len() - 1} {
		f.Add(valid.Bytes()[:cut])
	}
	tenByte := "\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01"
	f.Add([]byte("WCPT\x01" + tenByte + "\x00\x00\x00"))                               // 2^63 threads
	f.Add([]byte("WCPT\x01" + "\xff\xff\xff\xff\xff\xff\xff\xff\xff\x02"))             // count overflows
	f.Add([]byte("WCPT\x01\x01\x00\x01\x00\x01t\x01x" + tenByte))                      // 2^63 events
	f.Add([]byte("WCPT\x01\x01\x00\x01\x00\x01t\x01x\x01\x03" + tenByte + "\x00\x00")) // thread 2^63
	f.Add([]byte("WCPT\x01\x01\x00\x01\x00\x01t\x01x\x01\x03\x80\x00\x00\x00"))        // non-canonical 0

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadBinary(bytes.NewReader(data))
		var batchErr *DecodeError
		if err != nil && !errors.As(err, &batchErr) {
			t.Fatalf("ReadBinary error is not a *DecodeError: %T %v", err, err)
		}
		if err == nil {
			checkOperands(t, tr.Symbols, tr.Events)
		}
		if !bytes.HasPrefix(data, []byte(binaryMagic)) {
			if err == nil {
				t.Fatal("ReadBinary accepted input without the magic")
			}
			return // OpenStream reads it as text
		}

		// Streaming with a declared count, at a block size that splits the
		// body unevenly. prefix keeps what the stream decoded, all of the
		// trace or what precedes the failure.
		st, serr := OpenStream(bytes.NewReader(data))
		if serr != nil {
			sameDecodeError(t, "OpenStream", serr, batchErr)
			if batchErr.Event != -1 {
				t.Fatalf("OpenStream failed in the header, ReadBinary at event %d", batchErr.Event)
			}
			if _, herr := ReadHeader(bytes.NewReader(data)); herr == nil {
				t.Fatal("ReadHeader accepted a header OpenStream rejected")
			}
			return
		}
		hdrLen := st.bin.offset()
		prefix, end := drainStream(st, 7)
		checkOperands(t, st.Symbols(), prefix)
		if err == nil {
			if end != io.EOF || !slices.Equal(prefix, tr.Events) || !sameTables(st.Symbols(), tr.Symbols) {
				t.Fatalf("stream ended with %v after %d events; ReadBinary decoded %d", end, len(prefix), len(tr.Events))
			}
		} else {
			sameDecodeError(t, "stream", end, batchErr)
			if int64(len(prefix)) != batchErr.Event {
				t.Fatalf("stream decoded %d events before failing, ReadBinary failed at event %d", len(prefix), batchErr.Event)
			}
		}

		// A standalone header, then the rest as an open-ended event body.
		h, herr := ReadHeader(bytes.NewReader(data[:hdrLen]))
		if herr != nil {
			t.Fatalf("ReadHeader on the %d header bytes OpenStream consumed: %v", hdrLen, herr)
		}
		if !sameTables(h.Syms, st.Symbols()) {
			t.Fatal("ReadHeader and OpenStream decoded different symbol tables")
		}
		events, end := drainStream(NewEventStream(bytes.NewReader(data[hdrLen:]), h, 0), 5)
		checkOperands(t, h.Syms, events)
		if end != io.EOF {
			var de *DecodeError
			if !errors.As(end, &de) {
				t.Fatalf("event stream error is not a *DecodeError: %T %v", end, end)
			}
		}
		// The open-ended body ignores the declared count, so it agrees with
		// the counted stream up to where that stopped.
		if n := min(len(events), len(prefix)); !slices.Equal(events[:n], prefix[:n]) {
			t.Fatal("event stream and OpenStream decoded different events")
		}
		if err != nil && batchErr.Event >= 0 && int64(len(events)) > batchErr.Event && !isTruncation(batchErr) {
			t.Fatalf("event stream decoded past event %d, where ReadBinary failed: %v", batchErr.Event, batchErr)
		}

		if err != nil {
			return
		}
		var out bytes.Buffer
		if werr := WriteBinary(&out, tr); werr != nil {
			t.Fatalf("WriteBinary on a decoded trace: %v", werr)
		}
		// The encoding is canonical: the input can only be longer (padded
		// varints, trailing bytes), and an input of the same length is
		// byte-identical.
		if out.Len() > len(data) || (out.Len() == len(data) && !bytes.Equal(out.Bytes(), data)) {
			t.Fatalf("re-encoding gives %d bytes, input had %d and differs", out.Len(), len(data))
		}
		back, rerr := ReadBinary(bytes.NewReader(out.Bytes()))
		if rerr != nil {
			t.Fatalf("re-reading the re-encoded trace: %v", rerr)
		}
		if !slices.Equal(back.Events, tr.Events) || !sameTables(back.Symbols, tr.Symbols) {
			t.Fatal("re-encoded trace decodes differently")
		}
	})
}

// drainStream decodes st to its end through NextBlockSoA with blocks of
// size n, returning the events and the error that ended the stream.
func drainStream(st *Stream, n int) ([]event.Event, error) {
	var all []event.Event
	block := trace.NewBlock(n)
	for {
		k, err := st.NextBlockSoA(block)
		for i := 0; i < k; i++ {
			all = append(all, block.At(i))
		}
		if err != nil {
			return all, err
		}
	}
}

// checkOperands fails unless every event has a valid kind and operands in
// range of syms' tables.
func checkOperands(t *testing.T, syms *event.Symbols, events []event.Event) {
	t.Helper()
	for i, e := range events {
		var objs int
		switch e.Kind {
		case event.Acquire, event.Release:
			objs = syms.NumLocks()
		case event.Read, event.Write:
			objs = syms.NumVars()
		case event.Fork, event.Join:
			objs = syms.NumThreads()
		default:
			t.Fatalf("event %d: invalid kind %d", i, e.Kind)
		}
		if e.Thread < 0 || int(e.Thread) >= syms.NumThreads() || e.Obj < 0 || int(e.Obj) >= objs ||
			(e.Loc != event.NoLoc && (e.Loc < 0 || int(e.Loc) >= syms.NumLocations())) {
			t.Fatalf("event %d %v out of range of %d threads, %d operands, %d locations",
				i, e, syms.NumThreads(), objs, syms.NumLocations())
		}
	}
}

// sameDecodeError fails unless err is a *DecodeError equal to want.
func sameDecodeError(t *testing.T, path string, err error, want *DecodeError) {
	t.Helper()
	var de *DecodeError
	if !errors.As(err, &de) {
		t.Fatalf("%s error is not a *DecodeError: %T %v", path, err, err)
	}
	if want == nil {
		t.Fatalf("%s failed (%v) where ReadBinary succeeded", path, err)
	}
	if de.Error() != want.Error() {
		t.Fatalf("%s error %q, ReadBinary %q", path, de, want)
	}
}

// isTruncation reports whether de is input that ran out: an open-ended
// body stream ends cleanly where the declared count wanted more.
func isTruncation(de *DecodeError) bool { return errors.Is(de, io.ErrUnexpectedEOF) }

func sameTables(a, b *event.Symbols) bool {
	return slices.Equal(a.ThreadNames(), b.ThreadNames()) && slices.Equal(a.LockNames(), b.LockNames()) &&
		slices.Equal(a.VarNames(), b.VarNames()) && slices.Equal(a.LocationNames(), b.LocationNames())
}
