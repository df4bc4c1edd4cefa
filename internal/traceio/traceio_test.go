package traceio

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/event"
	"repro/internal/gen"
	"repro/internal/trace"
)

const sampleText = `
# a comment
t1|acq(l)|Main.java:10
t1|w(x)|Main.java:11
t1|rel(l)|Main.java:12

t0|fork(t2)
t2|r(x)|Worker.java:5
t0|join(t2)
`

func TestReadText(t *testing.T) {
	tr, err := ReadText(strings.NewReader(sampleText))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 6 {
		t.Fatalf("events = %d, want 6 (comments/blanks skipped)", tr.Len())
	}
	if tr.NumThreads() != 3 {
		t.Errorf("threads = %d", tr.NumThreads())
	}
	e := tr.Events[0]
	if e.Kind != event.Acquire || tr.Symbols.LockName(e.Lock()) != "l" {
		t.Errorf("event 0 = %v", e)
	}
	if tr.Symbols.LocationName(e.Loc) != "Main.java:10" {
		t.Errorf("loc = %q", tr.Symbols.LocationName(e.Loc))
	}
	if tr.Events[3].Kind != event.Fork || tr.Events[3].Loc != event.NoLoc {
		t.Errorf("fork event = %v", tr.Events[3])
	}
	if tr.Events[5].Kind != event.Join {
		t.Errorf("join event = %v", tr.Events[5])
	}
}

func TestReadTextAliases(t *testing.T) {
	in := "t1|acquire(l)\nt1|read(x)\nt1|write(x)\nt1|release(l)\n"
	tr, err := ReadText(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := []event.Kind{event.Acquire, event.Read, event.Write, event.Release}
	for i, k := range want {
		if tr.Events[i].Kind != k {
			t.Errorf("event %d kind = %v, want %v", i, tr.Events[i].Kind, k)
		}
	}
}

func TestReadTextErrors(t *testing.T) {
	cases := []struct {
		name, in, reason string
	}{
		{"missing fields", "t1\n", "fields"},
		{"bad op form", "t1|acq l|pc\n", "not of the form"},
		{"unknown op", "t1|frobnicate(l)|pc\n", "unknown operation"},
		{"empty operand", "t1|acq()|pc\n", "empty operand"},
		{"empty thread", "|acq(l)|pc\n", "empty thread"},
		{"too many fields", "t1|acq(l)|pc|extra\n", "fields"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadText(strings.NewReader(tc.in))
			if err == nil {
				t.Fatal("expected parse error")
			}
			var perr *ParseError
			if !errors.As(err, &perr) {
				t.Fatalf("error type %T, want *ParseError", err)
			}
			if perr.Line != 1 {
				t.Errorf("line = %d, want 1", perr.Line)
			}
			if !strings.Contains(err.Error(), tc.reason) {
				t.Errorf("error %q does not mention %q", err, tc.reason)
			}
		})
	}
}

// TestTextHeaderHintsCapped: the "# events N" and "# symbols T L V P"
// comments are sizing hints from untrusted input. A huge count must not
// size an allocation — unchecked, it panics with "makeslice: cap out of
// range" inside ReadAuto, the loaded-trace decoder — and the trace still
// parses through both the batch reader and the text Stream.
func TestTextHeaderHintsCapped(t *testing.T) {
	const body = "t1|acq(l)|a.go:1\nt1|rel(l)\n"
	for _, hdr := range []string{
		"# events 999999999999999\n",
		"# symbols 999999999999999 1 1 1\n",
		"# symbols 1 1 1 999999999999999\n",
	} {
		tr, err := ReadAuto(strings.NewReader(hdr + body))
		if err != nil || len(tr.Events) != 2 {
			t.Errorf("ReadAuto with %q: %v", hdr, err)
		}
		st, err := OpenStream(strings.NewReader(hdr + body))
		if err != nil {
			t.Fatalf("OpenStream with %q: %v", hdr, err)
		}
		if n, err := st.NextBlockSoA(trace.NewBlock(8)); n != 2 || err != nil {
			t.Errorf("text Stream with %q: decoded %d events, err %v", hdr, n, err)
		}
	}
}

func TestTextRoundTrip(t *testing.T) {
	orig, err := ReadText(strings.NewReader(sampleText))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteText(&buf, orig); err != nil {
		t.Fatal(err)
	}
	back, err := ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertTracesEqual(t, orig, back)
}

func TestBinaryRoundTrip(t *testing.T) {
	b, _ := gen.ByName("account")
	orig := b.Generate(1.0)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, orig); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertTracesEqual(t, orig, back)
}

func TestBinaryRejectsGarbage(t *testing.T) {
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"bad magic", []byte("NOPE1234")},
		{"bad version", []byte("WCPT\x7f")},
		{"truncated", []byte("WCPT\x01\x02")},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ReadBinary(bytes.NewReader(tc.data)); err == nil {
				t.Error("expected error")
			}
		})
	}
}

func TestBinaryRejectsOutOfRangeIndices(t *testing.T) {
	b := trace.NewBuilder()
	b.Acquire("t1", "l")
	tr := b.MustBuild()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Corrupt the final event's operand varint (last-but-one byte is the
	// lock index 0; bump it out of range).
	data[len(data)-2] = 0x7f
	if _, err := ReadBinary(bytes.NewReader(data)); err == nil {
		t.Error("expected out-of-range operand error")
	}
}

func assertTracesEqual(t *testing.T, a, b *trace.Trace) {
	t.Helper()
	if a.Len() != b.Len() {
		t.Fatalf("lengths differ: %d vs %d", a.Len(), b.Len())
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatalf("event %d differs: %v vs %v", i, a.Events[i], b.Events[i])
		}
	}
	if a.Symbols.NumThreads() != b.Symbols.NumThreads() ||
		a.Symbols.NumLocks() != b.Symbols.NumLocks() ||
		a.Symbols.NumVars() != b.Symbols.NumVars() ||
		a.Symbols.NumLocations() != b.Symbols.NumLocations() {
		t.Fatal("symbol table sizes differ")
	}
	for i, name := range a.Symbols.ThreadNames() {
		if b.Symbols.ThreadNames()[i] != name {
			t.Fatalf("thread %d name differs", i)
		}
	}
	for i, name := range a.Symbols.LocationNames() {
		if b.Symbols.LocationNames()[i] != name {
			t.Fatalf("location %d name differs", i)
		}
	}
}

func TestParseErrorUnwrap(t *testing.T) {
	_, err := ReadText(strings.NewReader("t1|bogus(x)\n"))
	var perr *ParseError
	if !errors.As(err, &perr) {
		t.Fatalf("error type %T", err)
	}
	if perr.Unwrap() == nil {
		t.Error("Unwrap should expose the underlying reason")
	}
	if !strings.Contains(perr.Error(), "line 1") {
		t.Errorf("error = %q", perr.Error())
	}
}

func TestWriteTextNoLoc(t *testing.T) {
	// Events without locations round-trip as two-field lines, behind the
	// pre-sizing headers WriteText always emits.
	in := "t1|acq(l)\nt1|rel(l)\n"
	tr, err := ReadText(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteText(&buf, tr); err != nil {
		t.Fatal(err)
	}
	if got, want := buf.String(), "# events 2\n# symbols 1 1 0 0\n"+in; got != want {
		t.Errorf("round trip = %q, want %q", got, want)
	}
}
