package traceio

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/event"
	"repro/internal/gen"
	"repro/internal/trace"
)

// binaryBytes encodes tr in the binary format and returns the raw bytes
// plus the length of the header (everything before the first event).
func binaryBytes(t *testing.T, tr *trace.Trace) (full []byte, headerLen int) {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	var hdr bytes.Buffer
	if err := WriteHeader(&hdr, tr.Symbols, len(tr.Events)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), hdr.Len()
}

func smallTrace(t *testing.T) *trace.Trace {
	t.Helper()
	return gen.Random(gen.RandomConfig{Seed: 3, Events: 200, Threads: 3, Locks: 2, Vars: 4})
}

func TestTruncatedBinaryHeader(t *testing.T) {
	full, headerLen := binaryBytes(t, smallTrace(t))
	// Cut the stream at every prefix of the header: each must fail with a
	// DecodeError that says it died in the header, at an offset no further
	// than the cut. (Prefixes shorter than the magic fall back to the text
	// format by design, so start at the full magic.)
	for cut := len(binaryMagic); cut < headerLen; cut += 7 {
		_, err := OpenStream(bytes.NewReader(full[:cut]))
		if err == nil {
			t.Fatalf("cut=%d: truncated header decoded without error", cut)
		}
		var de *DecodeError
		if !errors.As(err, &de) {
			t.Fatalf("cut=%d: error %v (%T) is not a *DecodeError", cut, err, err)
		}
		if de.Event != -1 {
			t.Errorf("cut=%d: Event = %d, want -1 (header)", cut, de.Event)
		}
		if de.Offset < 0 || de.Offset > int64(cut) {
			t.Errorf("cut=%d: Offset = %d, want within [0, %d]", cut, de.Offset, cut)
		}
		if !strings.Contains(err.Error(), "byte offset") {
			t.Errorf("cut=%d: error %q does not name the byte offset", cut, err)
		}
	}
}

func TestTruncatedBinaryBlock(t *testing.T) {
	tr := smallTrace(t)
	full, headerLen := binaryBytes(t, tr)
	// Cut midway through the event body: the stream opens fine, yields the
	// decodable prefix, then reports a DecodeError locating the bad event.
	cut := headerLen + (len(full)-headerLen)/2
	s, err := OpenStream(bytes.NewReader(full[:cut]))
	if err != nil {
		t.Fatal(err)
	}
	buf := trace.NewBlock(64)
	decoded := 0
	var de *DecodeError
	for {
		n, err := s.NextBlockSoA(buf)
		decoded += n
		if err == nil {
			continue
		}
		if err == io.EOF {
			t.Fatalf("truncated body reached clean EOF after %d events", decoded)
		}
		if !errors.As(err, &de) {
			t.Fatalf("error %v (%T) is not a *DecodeError", err, err)
		}
		break
	}
	if de.Event != int64(decoded) {
		t.Errorf("DecodeError.Event = %d, want %d (first undecodable event)", de.Event, decoded)
	}
	if de.Offset < int64(headerLen) || de.Offset > int64(cut) {
		t.Errorf("DecodeError.Offset = %d, want within body [%d, %d]", de.Offset, headerLen, cut)
	}
	if !errors.Is(de, io.ErrUnexpectedEOF) {
		t.Errorf("truncation error = %v, want to wrap io.ErrUnexpectedEOF", de.Err)
	}
	if decoded >= len(tr.Events) {
		t.Errorf("decoded %d events from a truncated body of %d", decoded, len(tr.Events))
	}
	// The error is latched.
	if _, err := s.NextBlockSoA(buf); !errors.As(err, new(*DecodeError)) {
		t.Errorf("latched error = %v, want the DecodeError again", err)
	}
}

func TestDecodeErrorCarriesFilePath(t *testing.T) {
	full, headerLen := binaryBytes(t, smallTrace(t))
	dir := t.TempDir()

	// Corrupt body: path surfaces through the block reader.
	bodyPath := filepath.Join(dir, "corrupt-body.bin")
	cut := headerLen + (len(full)-headerLen)/2
	if err := os.WriteFile(bodyPath, full[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := StreamFile(bodyPath)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	buf := trace.NewBlock(64)
	for {
		_, err := s.NextBlockSoA(buf)
		if err == nil {
			continue
		}
		var de *DecodeError
		if !errors.As(err, &de) {
			t.Fatalf("error %v (%T) is not a *DecodeError", err, err)
		}
		if de.Path != bodyPath {
			t.Errorf("DecodeError.Path = %q, want %q", de.Path, bodyPath)
		}
		if !strings.Contains(err.Error(), bodyPath) {
			t.Errorf("error %q does not name the file", err)
		}
		break
	}

	// Corrupt header: path surfaces at open.
	hdrPath := filepath.Join(dir, "corrupt-header.bin")
	if err := os.WriteFile(hdrPath, full[:headerLen/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := StreamFile(hdrPath); err == nil || !strings.Contains(err.Error(), hdrPath) {
		t.Errorf("StreamFile on truncated header = %v, want error naming %q", err, hdrPath)
	}
}

func TestHeaderRoundTrip(t *testing.T) {
	tr := smallTrace(t)
	var buf bytes.Buffer
	if err := WriteHeader(&buf, tr.Symbols, len(tr.Events)); err != nil {
		t.Fatal(err)
	}
	h, err := ReadHeader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h.Events != len(tr.Events) {
		t.Errorf("Events = %d, want %d", h.Events, len(tr.Events))
	}
	d := h.Dims()
	if d.Threads != tr.NumThreads() || d.Vars != tr.NumVars() {
		t.Errorf("Dims = %+v, want %d threads %d vars", d, tr.NumThreads(), tr.NumVars())
	}
	for i, want := range tr.Symbols.ThreadNames() {
		if got := h.Syms.ThreadName(event.TID(i)); got != want {
			t.Fatalf("thread %d = %q, want %q", i, got, want)
		}
	}
}

// TestEventStreamChunks is the session-ingestion contract: a header decoded
// once, then the event body split into arbitrary per-event chunks, each
// decoded with NewEventStream into shared SoA blocks — the concatenation
// must reproduce the trace exactly.
func TestEventStreamChunks(t *testing.T) {
	tr := gen.Random(gen.RandomConfig{Seed: 11, Events: 5000, Threads: 4, Locks: 3, Vars: 6})
	var hdr bytes.Buffer
	if err := WriteHeader(&hdr, tr.Symbols, 0); err != nil {
		t.Fatal(err)
	}
	h, err := ReadHeader(&hdr)
	if err != nil {
		t.Fatal(err)
	}
	if h.Dims().Events != -1 {
		t.Fatalf("open-ended header Dims().Events = %d, want -1", h.Dims().Events)
	}

	// Uneven chunk sizes exercise block-boundary handling.
	sizes := []int{1, 7, 1000, 0, 313, 2000}
	var got []event.Event
	base := uint64(0)
	block := trace.NewBlock(256)
	i := 0
	for _, sz := range sizes {
		end := min(i+sz, len(tr.Events))
		var body bytes.Buffer
		if err := EncodeEvents(&body, tr.Events[i:end]); err != nil {
			t.Fatal(err)
		}
		st := NewEventStream(&body, h, base)
		if _, known := st.Dims(); !known {
			t.Fatal("event stream must report known dims")
		}
		for {
			n, err := st.NextBlockSoA(block)
			for j := 0; j < n; j++ {
				got = append(got, block.At(j))
			}
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		base += uint64(end - i)
		i = end
	}
	// The tail beyond the chunk sizes, in one final chunk.
	var body bytes.Buffer
	if err := EncodeEvents(&body, tr.Events[i:]); err != nil {
		t.Fatal(err)
	}
	st := NewEventStream(&body, h, base)
	for {
		n, err := st.NextBlockSoA(block)
		for j := 0; j < n; j++ {
			got = append(got, block.At(j))
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}

	if len(got) != len(tr.Events) {
		t.Fatalf("decoded %d events, want %d", len(got), len(tr.Events))
	}
	for j, e := range got {
		if e != tr.Events[j] {
			t.Fatalf("event %d = %v, want %v", j, e, tr.Events[j])
		}
	}
}

// TestEventStreamTruncatedChunk: a chunk cut mid-event is a DecodeError
// whose Event index is absolute (offset by base), so server logs locate the
// corruption in the whole session, not just the chunk.
func TestEventStreamTruncatedChunk(t *testing.T) {
	tr := smallTrace(t)
	var hdr bytes.Buffer
	if err := WriteHeader(&hdr, tr.Symbols, 0); err != nil {
		t.Fatal(err)
	}
	h, err := ReadHeader(&hdr)
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	if err := EncodeEvents(&body, tr.Events); err != nil {
		t.Fatal(err)
	}
	raw := body.Bytes()
	const base = 1_000_000
	st := NewEventStream(bytes.NewReader(raw[:len(raw)-1]), h, base)
	block := trace.NewBlock(64)
	decoded := 0
	for {
		n, err := st.NextBlockSoA(block)
		decoded += n
		if err == nil {
			continue
		}
		var de *DecodeError
		if !errors.As(err, &de) {
			t.Fatalf("error %v (%T) is not a *DecodeError", err, err)
		}
		if de.Event != int64(base+decoded) {
			t.Errorf("DecodeError.Event = %d, want %d (base-adjusted)", de.Event, base+decoded)
		}
		if de.Offset <= 0 || de.Offset > int64(len(raw)) {
			t.Errorf("DecodeError.Offset = %d, want within the chunk body", de.Offset)
		}
		return
	}
}
