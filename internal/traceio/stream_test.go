package traceio

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"

	"repro/internal/event"
	"repro/internal/gen"
	"repro/internal/trace"
)

func streamRoundTrip(t *testing.T, encode func(io.Writer, *trace.Trace) error) {
	t.Helper()
	tr := gen.Random(gen.RandomConfig{Seed: 7, Events: 1000, Threads: 4, Locks: 3, Vars: 8})
	var buf bytes.Buffer
	if err := encode(&buf, tr); err != nil {
		t.Fatal(err)
	}
	s, err := OpenStream(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got := drainSoA(t, s, 64).Events()
	if len(got) != len(tr.Events) {
		t.Fatalf("streamed %d events, want %d", len(got), len(tr.Events))
	}
	for i, e := range got {
		if e != tr.Events[i] {
			t.Fatalf("event %d = %v, want %v", i, e, tr.Events[i])
		}
	}
	if got, want := s.Stats(), trace.ComputeStats(tr); got != want {
		t.Errorf("Stats = %+v, want %+v", got, want)
	}
	if s.Symbols().NumThreads() != tr.NumThreads() || s.Symbols().NumVars() != tr.NumVars() {
		t.Errorf("symbols: %d threads %d vars, want %d/%d",
			s.Symbols().NumThreads(), s.Symbols().NumVars(), tr.NumThreads(), tr.NumVars())
	}
	// A drained stream keeps reporting EOF.
	if n, err := s.NextBlockSoA(trace.NewBlock(4)); n != 0 || err != io.EOF {
		t.Errorf("NextBlockSoA after EOF = %d, %v", n, err)
	}
}

func TestStreamBinary(t *testing.T) { streamRoundTrip(t, WriteBinary) }
func TestStreamText(t *testing.T)   { streamRoundTrip(t, WriteText) }

func TestStreamBinaryDims(t *testing.T) {
	tr := gen.Random(gen.RandomConfig{Seed: 3, Events: 500, Threads: 3, Locks: 2, Vars: 5})
	var buf bytes.Buffer
	if err := WriteBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	s, err := OpenStream(&buf)
	if err != nil {
		t.Fatal(err)
	}
	dims, known := s.Dims()
	if !known {
		t.Fatal("binary stream dims not known up front")
	}
	if dims.Threads != tr.NumThreads() || dims.Locks != tr.NumLocks() ||
		dims.Vars != tr.NumVars() || dims.Events != tr.Len() {
		t.Fatalf("dims = %+v, want threads=%d locks=%d vars=%d events=%d",
			dims, tr.NumThreads(), tr.NumLocks(), tr.NumVars(), tr.Len())
	}
}

func TestStreamTextEventsHeader(t *testing.T) {
	in := "# events 2\nt1|w(x)\nt2|w(x)\n"
	s, err := OpenStream(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if dims, known := s.Dims(); known || dims.Events != -1 {
		t.Fatalf("pre-scan dims = %+v known=%v, want events=-1 known=false", dims, known)
	}
	got := drainSoA(t, s, 16).Events()
	if len(got) != 2 {
		t.Fatalf("streamed %d events, want 2", len(got))
	}
	if dims, _ := s.Dims(); dims.Events != 2 {
		t.Errorf("post-scan dims.Events = %d, want 2 (from header)", dims.Events)
	}
}

func TestStreamTextParseError(t *testing.T) {
	s, err := OpenStream(strings.NewReader("t1|w(x)\nbogus line\n"))
	if err != nil {
		t.Fatal(err)
	}
	buf := trace.NewBlock(8)
	n, err := s.NextBlockSoA(buf)
	var perr *ParseError
	if n != 1 || err == nil {
		t.Fatalf("NextBlockSoA = %d, %v; want 1 good event and an error", n, err)
	}
	if ok := errors.As(err, &perr); !ok || perr.Line != 2 {
		t.Fatalf("error = %v, want ParseError at line 2", err)
	}
	// The error is sticky.
	if _, err2 := s.NextBlockSoA(buf); err2 != err {
		t.Errorf("second NextBlockSoA error = %v, want the same sticky error", err2)
	}
}

func TestReadTextPreSizesFromHeader(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("# events 100\n")
	for i := 0; i < 100; i++ {
		sb.WriteString("t1|w(x)\n")
	}
	tr, err := ReadText(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Events) != 100 {
		t.Fatalf("len = %d, want 100", len(tr.Events))
	}
	if cap(tr.Events) != 100 {
		t.Errorf("cap = %d, want exactly 100 (pre-sized from header, no regrowth)", cap(tr.Events))
	}
}

func TestWriteTextReadTextHeaderRoundTrip(t *testing.T) {
	tr := gen.Random(gen.RandomConfig{Seed: 11, Events: 400, Threads: 3, Locks: 2, Vars: 4})
	var buf bytes.Buffer
	if err := WriteText(&buf, tr); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "# events ") {
		t.Fatalf("WriteText output missing events header: %q", buf.String()[:40])
	}
	back, err := ReadText(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Events) != tr.Len() {
		t.Fatalf("round trip lost events: %d vs %d", len(back.Events), tr.Len())
	}
	if cap(back.Events) != tr.Len() {
		t.Errorf("cap = %d, want exactly %d (pre-sized from the emitted header)", cap(back.Events), tr.Len())
	}
	for i := range back.Events {
		if back.Events[i] != tr.Events[i] {
			t.Fatalf("event %d differs after round trip", i)
		}
	}
}

func TestParseEventsHeader(t *testing.T) {
	cases := []struct {
		line string
		n    int
		ok   bool
	}{
		{"# events 42", 42, true},
		{"#events 7", 7, true},
		{"#  events   0", 0, true},
		{"# events", 0, false},
		{"# events x", 0, false},
		{"# events -3", 0, false},
		{"# eventful 3", 0, false},
		{"events 3", 0, false},
	}
	for _, tc := range cases {
		n, ok := parseEventsHeader(tc.line)
		if n != tc.n || ok != tc.ok {
			t.Errorf("parseEventsHeader(%q) = %d, %v; want %d, %v", tc.line, n, ok, tc.n, tc.ok)
		}
	}
}

func TestBinaryWriterCountMismatch(t *testing.T) {
	syms := &event.Symbols{}
	syms.Thread("t1")
	syms.Var("x")
	ev := event.Event{Kind: event.Write, Thread: 0, Obj: 0, Loc: event.NoLoc}

	var buf bytes.Buffer
	w, err := NewBinaryWriter(&buf, syms, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteEvents([]event.Event{ev, ev}); err == nil {
		t.Error("overflowing the declared count did not error")
	}

	buf.Reset()
	w, err = NewBinaryWriter(&buf, syms, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteEvents([]event.Event{ev}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err == nil {
		t.Error("short trace did not error at Flush")
	}
}

func TestBinaryWriterStreamsBlocks(t *testing.T) {
	tr := gen.Random(gen.RandomConfig{Seed: 5, Events: 777, Threads: 3, Locks: 2, Vars: 6})
	var buf bytes.Buffer
	w, err := NewBinaryWriter(&buf, tr.Symbols, tr.Len())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < tr.Len(); i += 100 {
		end := i + 100
		if end > tr.Len() {
			end = tr.Len()
		}
		if err := w.WriteEvents(tr.Events[i:end]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Events) != tr.Len() {
		t.Fatalf("read back %d events, want %d", len(back.Events), tr.Len())
	}
	for i := range back.Events {
		if back.Events[i] != tr.Events[i] {
			t.Fatalf("event %d differs", i)
		}
	}
}
