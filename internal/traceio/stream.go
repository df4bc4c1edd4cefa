package traceio

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/event"
	"repro/internal/trace"
)

// DefaultBlockSize is the event-buffer size streaming consumers use when
// they have no better number: large enough to amortize per-block overhead,
// small enough that a block is a rounding error next to detector state.
const DefaultBlockSize = 8192

// Dims are the trace dimensions a streaming consumer needs to size detector
// state up front. Events is -1 when the input does not declare its length
// (a text trace without a "# events N" header).
type Dims struct {
	Threads, Locks, Vars, Locs int
	Events                     int
}

// Stream decodes a trace incrementally, block by block, without ever
// materializing the whole event sequence. Binary streams carry their full
// symbol universe and event count in the header, so Dims reports complete
// dimensions before the first block; text streams intern symbols as lines
// are scanned, so Dims only learns the universe as the scan progresses
// (Events is known up front when a "# events N" header comment is present).
//
// Stream also tallies the event mix as it decodes: Stats is the streaming
// replacement for trace.ComputeStats over a materialized trace.
type Stream struct {
	syms   *event.Symbols
	binary bool
	dims   Dims   // binary only; text dims come from syms as the scan runs
	path   string // source file, when known, for decode-error context

	// decoded is the index of the next event in the whole trace: the
	// events decoded so far, plus a NewEventStream's base.
	decoded uint64
	// kinds counts the events decoded per kind; Stats folds it.
	kinds [event.Join + 1]int

	// binary state
	bin       *binaryReader
	counts    [4]uint64
	remaining uint64
	// unbounded marks a headerless event-body stream (NewEventStream): the
	// body ends cleanly at the first event boundary where input runs out,
	// instead of after a declared count.
	unbounded bool

	// text state
	sc     *bufio.Scanner
	lineNo int

	closer io.Closer
	err    error
}

// OpenStream starts decoding a trace from r, auto-detecting the format: a
// stream beginning with the binary magic is decoded as binary, anything
// else as the line-oriented text format.
func OpenStream(r io.Reader) (*Stream, error) {
	br := bufio.NewReader(r)
	magic, err := br.Peek(len(binaryMagic))
	if err == nil && string(magic) == binaryMagic {
		bin := &binaryReader{br: br}
		syms, nev, err := readBinaryHeader(bin, 0)
		if err != nil {
			return nil, err
		}
		counts := Header{Syms: syms}.counts()
		return &Stream{
			syms:   syms,
			binary: true,
			dims: Dims{
				Threads: int(counts[0]),
				Locks:   int(counts[1]),
				Vars:    int(counts[2]),
				Locs:    int(counts[3]),
				Events:  int(nev),
			},
			bin:       bin,
			counts:    counts,
			remaining: nev,
		}, nil
	}
	sc := bufio.NewScanner(br)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	return &Stream{
		syms: &event.Symbols{},
		dims: Dims{Events: -1},
		sc:   sc,
	}, nil
}

// StreamFile starts decoding a trace file, auto-detecting the format. The
// returned stream owns the file handle; Close releases it. Decode errors —
// at open and from the block readers — carry the file path, so corpus and
// server logs say where a trace is corrupt.
func StreamFile(path string) (*Stream, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	s, err := OpenStream(f)
	if err != nil {
		f.Close()
		return nil, notePath(err, path)
	}
	s.path = path
	s.closer = f
	return s, nil
}

// NewEventStream decodes a headerless binary event body from r: the events
// of a trace whose header (symbol universe) arrived separately, the
// chunked-ingestion path of the raced server. The stream is open-ended —
// it ends cleanly (io.EOF) at the first event boundary where r is
// exhausted; input that runs out mid-event is a *DecodeError whose Offset
// is relative to the start of r's body. base is the index of the body's
// first event in the overall trace (events decoded so far in the session),
// so decode errors report absolute event indices.
func NewEventStream(r io.Reader, h Header, base uint64) *Stream {
	return &Stream{
		syms:      h.Syms,
		binary:    true,
		dims:      h.Dims(),
		bin:       &binaryReader{br: bufio.NewReader(r)},
		counts:    h.counts(),
		decoded:   base,
		unbounded: true,
	}
}

// notePath attaches path to a *DecodeError that does not carry one yet.
func notePath(err error, path string) error {
	if de, ok := err.(*DecodeError); ok && de.Path == "" {
		de.Path = path
	}
	return err
}

// Symbols returns the symbol table: complete up front for binary streams,
// growing with the scan for text streams.
func (s *Stream) Symbols() *event.Symbols { return s.syms }

// Dims returns the trace dimensions and whether they were known up front
// (from a binary header). When known is false, only Dims.Events is
// meaningful (-1, or the "# events N" text header), and the symbol counts
// must be read from Symbols after the scan.
func (s *Stream) Dims() (d Dims, known bool) {
	if s.binary {
		return s.dims, true
	}
	return s.dims, false
}

// Stats returns the event mix tallied so far; after the stream is exhausted
// it matches trace.ComputeStats over the materialized trace.
func (s *Stream) Stats() trace.Stats {
	k := &s.kinds
	return trace.Stats{
		Events:   k[event.Read] + k[event.Write] + k[event.Acquire] + k[event.Release] + k[event.Fork] + k[event.Join],
		Threads:  s.syms.NumThreads(),
		Locks:    s.syms.NumLocks(),
		Vars:     s.syms.NumVars(),
		Reads:    k[event.Read],
		Writes:   k[event.Write],
		Acquires: k[event.Acquire],
		Releases: k[event.Release],
		Forks:    k[event.Fork],
		Joins:    k[event.Join],
	}
}

// scanTextEvent decodes the next event of a text stream, skipping blank and
// comment lines (consuming the pre-sizing header comments). It reports
// ok=false at end of input or on error; a parse error is latched into s.err,
// clean end of input leaves s.err untouched for the caller to classify.
func (s *Stream) scanTextEvent() (event.Event, bool) {
	for s.sc.Scan() {
		s.lineNo++
		line := strings.TrimSpace(s.sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			if s.decoded == 0 {
				if s.dims.Events < 0 {
					if ev, ok := parseEventsHeader(line); ok {
						s.dims.Events = ev
					}
				}
				if c, ok := parseSymbolsHeader(line); ok {
					s.syms.Preallocate(c[0], c[1], c[2], c[3])
				}
			}
			continue
		}
		e, err := parseLine(line, s.syms)
		if err != nil {
			s.err = &ParseError{Line: s.lineNo, Text: line, Err: err}
			return event.Event{}, false
		}
		s.tallyEvent(e)
		return e, true
	}
	return event.Event{}, false
}

// endOfText classifies a scanner stop: an underlying read error, or io.EOF.
func (s *Stream) endOfText() error {
	if err := s.sc.Err(); err != nil {
		return fmt.Errorf("traceio: %w", err)
	}
	return io.EOF
}

// NextBlockSoA fills b — reset first, then appended up to its capacity —
// with the next events of the trace in structure-of-arrays form, the layout
// the detectors' block loops consume directly. Binary bodies decode straight
// into the block's field slices with no intermediate event slice. It
// returns n > 0 with a nil error until the trace is exhausted, then 0 with
// io.EOF. Any other error is a decode error, returned with the events
// decoded before it. The caller reuses one block for the whole scan, so
// decoding a trace of any length allocates O(block), not O(trace).
func (s *Stream) NextBlockSoA(b *trace.Block) (int, error) {
	if s.err != nil {
		return 0, s.err
	}
	if b.Cap() == 0 {
		// Not latched into s.err: a zero-capacity block is a caller bug, not
		// a stream state, and must not read as end-of-trace.
		return 0, fmt.Errorf("traceio: NextBlockSoA requires a block with capacity")
	}
	b.Reset()
	if s.binary {
		limit := b.Cap()
		if !s.unbounded && uint64(limit) > s.remaining {
			limit = int(s.remaining)
		}
		// Decode into the field slices by index: cheaper per event than
		// four appends. NewBlock gives the four slices one capacity.
		kinds, threads, objs, locs := b.Kinds[:limit], b.Threads[:limit], b.Objs[:limit], b.Locs[:limit]
		n := 0
		for ; n < limit; n++ {
			if s.unbounded && s.atBodyEnd() {
				break
			}
			e, err := s.bin.decodeEvent(&s.counts, s.decoded)
			if err != nil {
				s.err = notePath(err, s.path)
				break
			}
			kinds[n], threads[n], objs[n], locs[n] = uint8(e.Kind), int32(e.Thread), e.Obj, int32(e.Loc)
			s.tallyEvent(e)
		}
		b.Kinds, b.Threads, b.Objs, b.Locs = kinds[:n], threads[:n], objs[:n], locs[:n]
		if s.err != nil {
			return n, s.err
		}
		if !s.unbounded {
			s.remaining -= uint64(n)
		}
		if n == 0 {
			s.err = io.EOF
			return 0, io.EOF
		}
		return n, nil
	}
	for b.Len() < b.Cap() {
		e, ok := s.scanTextEvent()
		if !ok {
			break
		}
		b.AppendFields(e.Kind, e.Thread, e.Obj, e.Loc)
	}
	if s.err != nil {
		return b.Len(), s.err // decode error: the partial block plus the error
	}
	if b.Len() == 0 {
		s.err = s.endOfText()
		return 0, s.err
	}
	return b.Len(), nil
}

// atBodyEnd reports whether an open-ended event body is cleanly exhausted:
// no more input at an event boundary. Read errors other than io.EOF are
// left for decodeEvent to surface with offset context.
func (s *Stream) atBodyEnd() bool {
	r := s.bin
	if r.pos < len(r.win) {
		return false
	}
	r.fill(1)
	return r.pos == len(r.win) && r.err == io.EOF
}

func (s *Stream) tallyEvent(e event.Event) {
	s.decoded++
	s.kinds[e.Kind]++
}

// Close releases the underlying file handle when the stream owns one
// (StreamFile); it is a no-op for reader-backed streams.
func (s *Stream) Close() error {
	if s.closer == nil {
		return nil
	}
	c := s.closer
	s.closer = nil
	return c.Close()
}
