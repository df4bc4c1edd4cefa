package traceio

import (
	"bufio"
	"bytes"
	"errors"
	"testing"
)

// FuzzTextDecode throws arbitrary bytes at both text-format readers and
// checks the ingestion-robustness contract: no input may panic, every
// failure is a typed *ParseError (or the scanner's too-long-line error),
// the streaming Scanner agrees with the batch reader on where the input
// goes bad and stays inert — no panic, stable error — when driven past the
// malformed line, and anything that parses cleanly round-trips exactly.
func FuzzTextDecode(f *testing.F) {
	f.Add([]byte("# events 2\n# symbols 2 1 1 1\nt1|acq(l0)|Main.java:17\nt1|rel(l0)\n"))
	f.Add([]byte("t1|fork(t2)\nt2|w(x)|a.go:1\nt2|join(t1)\n"))
	f.Add([]byte("t1|read(x)\n\n# comment\nt1|write(x)\n"))
	f.Add([]byte("t1|boom(l)\n"))
	f.Add([]byte("t1|acq()\n"))
	f.Add([]byte("|||\n"))
	f.Add([]byte("# events -1\nt1|acq(l)\n"))
	f.Add([]byte("# events 999999999999999\nt1|acq(l)\n"))
	f.Add([]byte("# symbols 999999999999999 1 1 1\nt1|acq(l)\n"))
	f.Add([]byte("garbage"))
	f.Add(bytes.Repeat([]byte("x"), 2<<20)) // one line past the scanner's max token

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadText(bytes.NewReader(data))
		if err != nil {
			var pe *ParseError
			if !errors.As(err, &pe) && !errors.Is(err, bufio.ErrTooLong) {
				t.Fatalf("ReadText error is not a *ParseError or too-long-line: %T %v", err, err)
			}
		}

		sc := NewScanner(bytes.NewReader(data))
		scanned := 0
		for sc.Scan() {
			scanned++
			if scanned > len(data)+1 {
				t.Fatal("Scanner yields more events than input lines")
			}
		}
		scanErr := sc.Err()
		if scanErr != nil {
			var pe *ParseError
			if !errors.As(scanErr, &pe) && !errors.Is(scanErr, bufio.ErrTooLong) {
				t.Fatalf("Scanner error is not a *ParseError or too-long-line: %T %v", scanErr, scanErr)
			}
		}
		// Driving the scanner past the failure is safe and changes nothing.
		for i := 0; i < 3; i++ {
			if sc.Scan() {
				t.Fatal("Scan returned true after reporting end/error")
			}
		}
		if !errors.Is(sc.Err(), scanErr) && (sc.Err() == nil) != (scanErr == nil) {
			t.Fatalf("Scanner error changed after extra Scans: %v -> %v", scanErr, sc.Err())
		}

		// Batch and streaming readers must agree on whether the input is
		// well-formed, and on the event count when it is.
		if (err == nil) != (scanErr == nil) {
			t.Fatalf("ReadText err=%v but Scanner err=%v", err, scanErr)
		}
		if err != nil {
			return
		}
		if scanned != len(tr.Events) {
			t.Fatalf("Scanner produced %d events, ReadText %d", scanned, len(tr.Events))
		}

		// Well-formed input round-trips exactly.
		var out bytes.Buffer
		if werr := WriteText(&out, tr); werr != nil {
			t.Fatalf("WriteText on parsed trace: %v", werr)
		}
		tr2, rerr := ReadText(bytes.NewReader(out.Bytes()))
		if rerr != nil {
			t.Fatalf("re-reading written trace: %v", rerr)
		}
		if len(tr2.Events) != len(tr.Events) {
			t.Fatalf("round-trip changed event count: %d -> %d", len(tr.Events), len(tr2.Events))
		}
		for i := range tr.Events {
			if tr.Events[i] != tr2.Events[i] {
				t.Fatalf("round-trip changed event %d: %+v -> %+v", i, tr.Events[i], tr2.Events[i])
			}
		}
	})
}
