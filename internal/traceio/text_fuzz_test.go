package traceio

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"slices"
	"testing"

	"repro/internal/trace"
)

// FuzzTextDecode throws arbitrary bytes at both text-format readers —
// ReadText, and Stream's NextBlockSoA at block sizes that split the input
// unevenly — and checks the ingestion-robustness contract: no input may
// panic, every failure is a typed *ParseError (or the scanner's
// too-long-line error), the stream agrees with the batch reader event by
// event and on where the input goes bad, a stream driven past its end or
// failure stays inert (no events, the same latched error), and anything
// that parses cleanly round-trips exactly.
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

		if !bytes.HasPrefix(data, []byte(binaryMagic)) { // else OpenStream decodes binary
			for _, size := range []int{1, 3, 64} {
				st, serr := OpenStream(bytes.NewReader(data))
				if serr != nil {
					t.Fatalf("OpenStream on text input: %v", serr)
				}
				events, end := drainStream(st, size)
				for i := 0; i < 3; i++ {
					if n, again := st.NextBlockSoA(trace.NewBlock(size)); n != 0 || again != end {
						t.Fatalf("block %d: stream yielded %d events and %v after ending with %v", size, n, again, end)
					}
				}
				if err != nil {
					if end == io.EOF || end.Error() != err.Error() {
						t.Fatalf("block %d: ReadText failed with %v, stream ended with %v", size, err, end)
					}
					continue
				}
				if end != io.EOF || !slices.Equal(events, tr.Events) || !sameTables(st.Symbols(), tr.Symbols) {
					t.Fatalf("block %d: stream ended with %v after %d events; ReadText parsed %d", size, end, len(events), len(tr.Events))
				}
			}
		}
		if err != nil {
			return
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
