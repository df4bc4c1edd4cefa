package traceio

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"runtime"
	"slices"
	"testing"

	"repro/internal/event"
	"repro/internal/gen"
	"repro/internal/trace"
)

// dupNameTrace is a trace whose symbol tables repeat names: threads
// "t0","t0", variables "x","x" and locations "a","b","a","c". Its events
// use the second copy of each repeated name, and location "c" after the
// repeat, so a decoder that interned names by value would misplace them.
func dupNameTrace() *trace.Trace {
	syms := event.NewPositionalSymbols(
		[]string{"t0", "t0"}, []string{"m"}, []string{"x", "x"}, []string{"a", "b", "a", "c"})
	return &trace.Trace{Symbols: syms, Events: []event.Event{
		{Kind: event.Write, Thread: 1, Obj: 1, Loc: 2},
		{Kind: event.Acquire, Thread: 1, Obj: 0, Loc: 3},
		{Kind: event.Release, Thread: 1, Obj: 0, Loc: event.NoLoc},
		{Kind: event.Read, Thread: 0, Obj: 1, Loc: 2},
	}}
}

// checkSameTrace fails unless got has want's symbol tables, position by
// position, and want's events.
func checkSameTrace(t *testing.T, path string, got *event.Symbols, gotEvents []event.Event, want *trace.Trace) {
	t.Helper()
	tables := func(s *event.Symbols) [4][]string {
		return [4][]string{s.ThreadNames(), s.LockNames(), s.VarNames(), s.LocationNames()}
	}
	if g, w := tables(got), tables(want.Symbols); !slices.EqualFunc(g[:], w[:], slices.Equal) {
		t.Errorf("%s: symbol tables %q, want %q", path, g, w)
	}
	if !slices.Equal(gotEvents, want.Events) {
		t.Errorf("%s: events %v, want %v", path, gotEvents, want.Events)
	}
}

// TestDuplicateSymbolNamesKeepTheirIndices: binary symbol tables are
// positional, so a header that repeats a name keeps every copy at its own
// index on every decode path. Interning them by name used to shrink the
// tables below the operand range checks (a detector then indexed past its
// per-thread state) and renamed every later symbol.
func TestDuplicateSymbolNamesKeepTheirIndices(t *testing.T) {
	want := dupNameTrace()
	var full, hdr, body bytes.Buffer
	if err := WriteBinary(&full, want); err != nil {
		t.Fatal(err)
	}
	if err := WriteHeader(&hdr, want.Symbols, 0); err != nil {
		t.Fatal(err)
	}
	if err := EncodeEvents(&body, want.Events); err != nil {
		t.Fatal(err)
	}

	tr, err := ReadBinary(bytes.NewReader(full.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	checkSameTrace(t, "ReadBinary", tr.Symbols, tr.Events, want)
	if got := tr.Symbols.LocationName(3); got != "c" {
		t.Errorf("location 3 = %q, want \"c\"", got)
	}

	st, err := OpenStream(bytes.NewReader(full.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	checkSameTrace(t, "OpenStream+NextBlockSoA", st.Symbols(), drainSoA(t, st, 3).Events(), want)

	h, err := ReadHeader(&hdr)
	if err != nil {
		t.Fatal(err)
	}
	st = NewEventStream(&body, h, 0)
	checkSameTrace(t, "ReadHeader+NewEventStream", h.Syms, drainSoA(t, st, 3).Events(), want)
}

// tableSymbols returns a symbol universe of n names split over the four
// tables, the shape of a large generated trace's header.
func tableSymbols(n int) *event.Symbols {
	var s event.Symbols
	for i := 0; i < n; i++ {
		switch i % 4 {
		case 0:
			s.Thread(fmt.Sprintf("thread-%d", i))
		case 1:
			s.Lock(fmt.Sprintf("lock-%d", i))
		case 2:
			s.Var(fmt.Sprintf("Class.field%d", i))
		case 3:
			s.Location(fmt.Sprintf("Source%d.java:%d", i%97, i))
		}
	}
	return &s
}

// TestHeaderCodecAllocs pins the header codec's allocations to a constant
// independent of the name count: the decoded names of a header of known
// size share one backing string, and encoding writes the header once at
// its exact size.
func TestHeaderCodecAllocs(t *testing.T) {
	const maxAllocs = 32
	for _, n := range []int{1 << 10, 1 << 16} {
		syms := tableSymbols(n)
		var hdr bytes.Buffer
		if err := WriteHeader(&hdr, syms, 0); err != nil {
			t.Fatal(err)
		}
		raw := hdr.Bytes()
		read := testing.AllocsPerRun(5, func() {
			if _, err := ReadHeader(bytes.NewReader(raw)); err != nil {
				t.Fatal(err)
			}
		})
		write := testing.AllocsPerRun(5, func() {
			if err := WriteHeader(io.Discard, syms, 0); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%d names: ReadHeader %.0f, WriteHeader %.0f allocations", n, read, write)
		if read > maxAllocs || write > maxAllocs {
			t.Errorf("%d names: ReadHeader %.0f, WriteHeader %.0f allocations, want at most %d each",
				n, read, write, maxAllocs)
		}
	}
}

// TestHeaderCodecSizes checks that WriteHeader writes AppendHeader's
// bytes, and that the header decodes to the same symbols whether or not
// the reader reports its length (a known length sizes the name arena up
// front).
func TestHeaderCodecSizes(t *testing.T) {
	syms := tableSymbols(1 << 14)
	want := AppendHeader(nil, syms, 7)
	var buf bytes.Buffer
	if err := WriteHeader(&buf, syms, 7); err != nil || !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("WriteHeader differs from AppendHeader (err %v)", err)
	}
	for _, r := range []io.Reader{bytes.NewReader(want), struct{ io.Reader }{bytes.NewReader(want)}} {
		h, err := ReadHeader(r)
		if err != nil {
			t.Fatal(err)
		}
		if h.Events != 7 || !slices.Equal(h.Syms.VarNames(), syms.VarNames()) ||
			!slices.Equal(h.Syms.LocationNames(), syms.LocationNames()) ||
			!slices.Equal(h.Syms.ThreadNames(), syms.ThreadNames()) ||
			!slices.Equal(h.Syms.LockNames(), syms.LockNames()) {
			t.Fatalf("%T: decoded header differs from the encoded symbols", r)
		}
	}
}

// TestHeaderInflatedCounts reads a header that declares huge symbol counts
// but holds a few megabytes, most of them after a bad first name, through
// a reader that reports its length. The declared counts may preallocate at
// most maxPrealloc names whatever the reader's length, so the failed read
// allocates about the length (the name arena) and no multiple of it.
func TestHeaderInflatedCounts(t *testing.T) {
	const size = 4 << 20
	raw := append([]byte(binaryMagic), binaryVersion)
	for range 4 {
		raw = binary.AppendUvarint(raw, 1<<40)
	}
	raw = binary.AppendUvarint(raw, maxName+1)
	raw = append(raw, make([]byte, size-len(raw))...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadHeader(bytes.NewReader(raw))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a header whose first name exceeds maxName decoded")
	}
	bound := uint64(size + 4*maxPrealloc + 64<<10)
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > bound {
		t.Errorf("a failed %d-byte header read allocated %d bytes, want at most %d", size, alloc, bound)
	}
}

// TestEventEncodeAllocs pins body encoding at zero allocations per event:
// varints are appended in place into the writer's buffer.
func TestEventEncodeAllocs(t *testing.T) {
	tr := gen.Random(gen.RandomConfig{Seed: 9, Events: 20000, Threads: 6, Locks: 3, Vars: 300})
	encode := testing.AllocsPerRun(5, func() {
		if err := EncodeEvents(io.Discard, tr.Events); err != nil {
			t.Fatal(err)
		}
	})
	if perEvent := encode / float64(len(tr.Events)); perEvent > 0.001 {
		t.Errorf("EncodeEvents: %.0f allocations for %d events, want amortized 0 per event", encode, len(tr.Events))
	}

	w, err := NewBinaryWriter(io.Discard, tr.Symbols, 1<<40)
	if err != nil {
		t.Fatal(err)
	}
	write := testing.AllocsPerRun(5, func() {
		if err := w.WriteEvents(tr.Events); err != nil {
			t.Fatal(err)
		}
	})
	if write != 0 {
		t.Errorf("BinaryWriter.WriteEvents: %.0f allocations per %d-event block, want 0", write, len(tr.Events))
	}
}

// TestAppendEventsMatchesEncodeEvents: the slice form of the body encoder
// produces EncodeEvents' bytes, growing its result once.
func TestAppendEventsMatchesEncodeEvents(t *testing.T) {
	tr := gen.Random(gen.RandomConfig{Seed: 4, Events: 3000, Threads: 5, Locks: 4, Vars: 200})
	var want bytes.Buffer
	if err := EncodeEvents(&want, tr.Events); err != nil {
		t.Fatal(err)
	}
	got := AppendEvents(nil, tr.Events)
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatal("AppendEvents differs from EncodeEvents")
	}
	if allocs := testing.AllocsPerRun(5, func() { AppendEvents(nil, tr.Events) }); allocs != 1 {
		t.Errorf("AppendEvents made %.0f allocations, want 1 (sized up front)", allocs)
	}
	prefix := []byte("prefix")
	if got := AppendEvents(prefix, tr.Events[:10]); !bytes.HasPrefix(got, prefix) {
		t.Error("AppendEvents dropped dst's contents")
	}
}
