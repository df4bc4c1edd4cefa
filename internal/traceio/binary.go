package traceio

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"strings"

	"repro/internal/event"
	"repro/internal/trace"
)

// Binary format layout (all integers are unsigned varints unless noted):
//
//	magic   "WCPT"          4 bytes
//	version                 1 byte (currently 1)
//	nthreads, nlocks, nvars, nlocs
//	nthreads × string       length-prefixed thread names
//	nlocks   × string       lock names
//	nvars    × string       variable names
//	nlocs    × string       location names
//	nevents
//	nevents  × event        kind (1 byte), thread, obj, loc+1 (0 = NoLoc)
//
// The header carries the full symbol universe and the event count before the
// first event, so a streaming consumer can size detector state and buffers
// up front and decode the body block by block (see stream.go). The symbol
// tables are positional: the i-th name of a table is symbol i, and event
// operands index the tables, so a name may repeat.
const (
	binaryMagic   = "WCPT"
	binaryVersion = 1
	// maxEventLen bounds one encoded event: the kind byte and three varints.
	// Decoding refills its window whenever fewer bytes than this remain, so
	// an event always decodes from one contiguous slice.
	maxEventLen = 1 + 3*binary.MaxVarintLen64
	// maxName caps one symbol name's length.
	maxName = 1 << 20
	// maxPrealloc caps the entries a header's declared counts may
	// preallocate, so a corrupt count cannot allocate wildly; tables and
	// traces larger than this still decode, growing as they go.
	maxPrealloc = 1 << 16
)

// appendEvent appends e's body encoding to dst.
func appendEvent(dst []byte, e event.Event) []byte {
	dst = append(dst, byte(e.Kind))
	dst = binary.AppendUvarint(dst, uint64(e.Thread))
	dst = binary.AppendUvarint(dst, uint64(e.Obj))
	return binary.AppendUvarint(dst, uint64(e.Loc+1))
}

// eventLen returns the length of e's body encoding.
func eventLen(e event.Event) int {
	return 1 + uvarintLen(uint64(e.Thread)) + uvarintLen(uint64(e.Obj)) + uvarintLen(uint64(e.Loc+1))
}

func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// reserve makes room for n bytes in bw's free buffer, flushing if needed.
// n must not exceed bw's buffer size.
func reserve(bw *bufio.Writer, n int) error {
	if bw.Available() < n {
		return bw.Flush()
	}
	return nil
}

// writeEvents encodes events straight into bw's free buffer, flushing
// whenever a worst-case event no longer fits. It returns how many events
// reached bw, exact even when a flush fails.
func writeEvents(bw *bufio.Writer, events []event.Event) (int, error) {
	done := 0
	for done < len(events) {
		if err := reserve(bw, maxEventLen); err != nil {
			return done, err
		}
		buf := bw.AvailableBuffer()
		n := done
		for n < len(events) && cap(buf)-len(buf) >= maxEventLen {
			buf = appendEvent(buf, events[n])
			n++
		}
		if _, err := bw.Write(buf); err != nil {
			return done, err
		}
		done = n
	}
	return done, nil
}

// headerLen returns the encoded size of a header: magic, version, the four
// table sizes, each name with its length, and the event count.
func headerLen(tables *[4][]string, nevents int) int {
	n := len(binaryMagic) + 1 + uvarintLen(uint64(nevents))
	for _, names := range tables {
		n += uvarintLen(uint64(len(names)))
		for _, name := range names {
			n += uvarintLen(uint64(len(name))) + len(name)
		}
	}
	return n
}

// AppendHeader appends the standalone binary header for syms and nevents
// (see WriteHeader) to dst, growing it once to the exact encoded size.
func AppendHeader(dst []byte, syms *event.Symbols, nevents int) []byte {
	tables := [4][]string{
		syms.ThreadNames(),
		syms.LockNames(),
		syms.VarNames(),
		syms.LocationNames(),
	}
	if n := headerLen(&tables, nevents); cap(dst)-len(dst) < n {
		grown := make([]byte, len(dst), len(dst)+n)
		copy(grown, dst)
		dst = grown
	}
	dst = append(dst, binaryMagic...)
	dst = append(dst, binaryVersion)
	for _, names := range tables {
		dst = binary.AppendUvarint(dst, uint64(len(names)))
	}
	for _, names := range tables {
		for _, name := range names {
			dst = binary.AppendUvarint(dst, uint64(len(name)))
			dst = append(dst, name...)
		}
	}
	return binary.AppendUvarint(dst, uint64(nevents))
}

// BinaryWriter emits a binary-format trace incrementally: the header (symbol
// tables and declared event count) up front, then events in caller-sized
// blocks, never materializing the trace. The symbol table must be complete
// and the event count known before the header is written — generators that
// stream events procedurally intern their universe first.
type BinaryWriter struct {
	bw        *bufio.Writer
	remaining uint64
}

// NewBinaryWriter writes the header for a trace of exactly nevents events
// naming syms, and returns a writer for the event body.
func NewBinaryWriter(w io.Writer, syms *event.Symbols, nevents int) (*BinaryWriter, error) {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(AppendHeader(nil, syms, nevents)); err != nil {
		return nil, fmt.Errorf("traceio: %w", err)
	}
	return &BinaryWriter{bw: bw, remaining: uint64(nevents)}, nil
}

// WriteEvents appends a block of events to the trace body. Writing more
// events than the header declared is an error.
func (w *BinaryWriter) WriteEvents(events []event.Event) error {
	if uint64(len(events)) > w.remaining {
		return fmt.Errorf("traceio: writing %d events exceeds the %d remaining of the declared count", len(events), w.remaining)
	}
	n, err := writeEvents(w.bw, events)
	w.remaining -= uint64(n)
	if err != nil {
		return fmt.Errorf("traceio: %w", err)
	}
	return nil
}

// Flush flushes buffered output and verifies the declared event count was
// met exactly. Call it once after the last WriteEvents.
func (w *BinaryWriter) Flush() error {
	if w.remaining != 0 {
		return fmt.Errorf("traceio: trace short by %d events of the declared count", w.remaining)
	}
	if err := w.bw.Flush(); err != nil {
		return fmt.Errorf("traceio: %w", err)
	}
	return nil
}

// WriteBinary writes tr to w in the binary format.
func WriteBinary(w io.Writer, tr *trace.Trace) error {
	bw, err := NewBinaryWriter(w, tr.Symbols, len(tr.Events))
	if err != nil {
		return err
	}
	if err := bw.WriteEvents(tr.Events); err != nil {
		return err
	}
	return bw.Flush()
}

// DecodeError reports a corrupt binary trace together with where decoding
// stopped: the byte offset into the input (relative to the start of the
// stream, or of the chunk body for NewEventStream), the index of the event
// being decoded (-1 while still in the header), and the file path when the
// stream was opened from one. Corpus runners and the raced server surface
// it so logs say exactly where a trace is corrupt.
type DecodeError struct {
	Path   string // file path, "" for reader-backed streams
	Offset int64  // byte offset where decoding stopped
	Event  int64  // index of the event being decoded, -1 in the header
	Err    error  // underlying reason
}

func (e *DecodeError) Error() string {
	where := "header"
	if e.Event >= 0 {
		where = fmt.Sprintf("event %d", e.Event)
	}
	if e.Path != "" {
		return fmt.Sprintf("traceio: %s: %s at byte offset %d: %v", e.Path, where, e.Offset, e.Err)
	}
	return fmt.Sprintf("traceio: %s at byte offset %d: %v", where, e.Offset, e.Err)
}

func (e *DecodeError) Unwrap() error { return e.Err }

// errVarintOverflow reports a varint longer than any uint64 encoding.
var errVarintOverflow = errors.New("varint overflows a 64-bit integer")

// binaryReader decodes straight out of a bufio.Reader's buffered window:
// win is data the reader has buffered, peeked but not yet discarded, and
// pos how much of it is decoded. Decoding is slicing and varint arithmetic
// on win; the bufio.Reader is touched only to refill the window.
type binaryReader struct {
	br  *bufio.Reader
	win []byte
	pos int
	off int64 // input offset of win[0]
	// err is why the input ended before a refill could be met: io.EOF at
	// its end, or the underlying read error. It is sticky.
	err error
}

// offset returns the input offset of the next undecoded byte.
func (r *binaryReader) offset() int64 { return r.off + int64(r.pos) }

// fill makes at least need bytes (at most the bufio.Reader's size)
// available at win[pos:], unless the input ends first, which err records.
func (r *binaryReader) fill(need int) {
	if len(r.win)-r.pos >= need || r.err != nil {
		return
	}
	r.br.Discard(r.pos) // the decoded bytes are buffered: cannot fail
	r.off += int64(r.pos)
	r.pos = 0
	_, err := r.br.Peek(need)
	r.win, _ = r.br.Peek(r.br.Buffered())
	if len(r.win) < need {
		r.err = err
	}
}

// short explains why the input ended mid-structure: an underlying read
// error, or truncation — a bare io.EOF would read as a clean end of stream.
func (r *binaryReader) short() error {
	if r.err == nil || r.err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return r.err
}

// varintErr explains a failed binary.Uvarint(b) that returned n <= 0.
func (r *binaryReader) varintErr(n int, b []byte) error {
	if n < 0 || len(b) >= binary.MaxVarintLen64 {
		return errVarintOverflow
	}
	return r.short()
}

// uvarint decodes one header varint. On failure it consumes what a
// byte-at-a-time reader would have: the rest of a truncated input, or the
// ten bytes of an overflowing varint.
func (r *binaryReader) uvarint() (uint64, error) {
	r.fill(binary.MaxVarintLen64)
	b := r.win[r.pos:]
	v, n := binary.Uvarint(b)
	if n > 0 {
		r.pos += n
		return v, nil
	}
	r.pos += min(len(b), binary.MaxVarintLen64)
	return 0, r.varintErr(n, b)
}

// name appends one length-prefixed symbol name to arena, a window at a
// time, and returns its length.
func (r *binaryReader) name(arena *strings.Builder) (uint32, error) {
	n, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if n > maxName {
		return 0, fmt.Errorf("symbol name length %d exceeds limit", n)
	}
	for left := int(n); left > 0; {
		r.fill(1)
		k := min(left, len(r.win)-r.pos)
		if k == 0 {
			return 0, r.short()
		}
		arena.Grow(k)
		arena.Write(r.win[r.pos : r.pos+k])
		r.pos += k
		left -= k
	}
	return uint32(n), nil
}

// headerError wraps a header-decode failure with the current byte offset.
func headerError(r *binaryReader, err error) *DecodeError {
	return &DecodeError{Offset: r.offset(), Event: -1, Err: err}
}

// readBinaryHeader consumes the magic, version, symbol tables and event
// count, returning the positional symbol tables and the declared count.
// Every name goes into one backing string, so the tables cost a constant
// number of allocations however many names they hold. size, when
// positive, is the most bytes the header can span: the backing string is
// reserved at that size up front and never regrows.
func readBinaryHeader(r *binaryReader, size int) (*event.Symbols, uint64, error) {
	r.fill(len(binaryMagic) + 1)
	b := r.win[r.pos:]
	if len(b) < len(binaryMagic) {
		r.pos = len(r.win)
		return nil, 0, headerError(r, fmt.Errorf("reading magic: %w", r.short()))
	}
	r.pos += len(binaryMagic)
	if string(b[:len(binaryMagic)]) != binaryMagic {
		return nil, 0, headerError(r, fmt.Errorf("bad magic %q, want %q", b[:len(binaryMagic)], binaryMagic))
	}
	if len(b) == len(binaryMagic) {
		return nil, 0, headerError(r, fmt.Errorf("reading version: %w", r.short()))
	}
	r.pos++
	if ver := b[len(binaryMagic)]; ver != binaryVersion {
		return nil, 0, headerError(r, fmt.Errorf("unsupported version %d", ver))
	}
	var counts [4]uint64
	hint := uint64(0)
	for i := range counts {
		c, err := r.uvarint()
		if err != nil {
			return nil, 0, headerError(r, fmt.Errorf("reading symbol counts: %w", err))
		}
		counts[i] = c
		hint = min(hint+min(c, maxPrealloc), maxPrealloc)
	}
	lens := make([]uint32, 0, hint)
	var arena strings.Builder
	if size > 0 {
		arena.Grow(size)
	}
	for _, c := range counts {
		for j := uint64(0); j < c; j++ {
			n, err := r.name(&arena)
			if err != nil {
				return nil, 0, headerError(r, fmt.Errorf("reading symbols: %w", err))
			}
			lens = append(lens, n)
		}
	}
	nev, err := r.uvarint()
	if err != nil {
		return nil, 0, headerError(r, fmt.Errorf("reading event count: %w", err))
	}
	all := arena.String()
	names := make([]string, len(lens))
	for i, n := range lens {
		names[i], all = all[:n], all[n:]
	}
	var tables [4][]string
	for i, c := range counts {
		tables[i], names = names[:c], names[c:]
	}
	return event.NewPositionalSymbols(tables[0], tables[1], tables[2], tables[3]), nev, nil
}

// decodeEvent decodes event i of the body at the window position,
// validating operand ranges against the header's table sizes. A failure is
// a *DecodeError carrying i and the byte offset of the event. This one
// function decodes every binary body: ReadBinary, NextBlock, NextBlockSoA.
func (r *binaryReader) decodeEvent(counts *[4]uint64, i uint64) (event.Event, error) {
	if len(r.win)-r.pos < maxEventLen {
		r.fill(maxEventLen)
	}
	b := r.win[r.pos:]
	fail := func(err error) (event.Event, error) {
		return event.Event{}, &DecodeError{Offset: r.offset(), Event: int64(i), Err: err}
	}
	if len(b) == 0 {
		return fail(r.short())
	}
	kind := event.Kind(b[0])
	if !kind.Valid() {
		return fail(fmt.Errorf("invalid kind %d", b[0]))
	}
	p := 1
	var fields [3]uint64
	for f := range fields {
		// Varints of one to three bytes, most operands, are unrolled;
		// longer ones take the general loop.
		switch {
		case p < len(b) && b[p] < 0x80:
			fields[f] = uint64(b[p])
			p++
		case p+1 < len(b) && b[p+1] < 0x80:
			fields[f] = uint64(b[p]&0x7f) | uint64(b[p+1])<<7
			p += 2
		case p+2 < len(b) && b[p+2] < 0x80:
			fields[f] = uint64(b[p]&0x7f) | uint64(b[p+1]&0x7f)<<7 | uint64(b[p+2])<<14
			p += 3
		default:
			v, n := binary.Uvarint(b[p:])
			if n <= 0 {
				return fail(r.varintErr(n, b[p:]))
			}
			fields[f] = v
			p += n
		}
	}
	thread, obj, locP1 := fields[0], fields[1], fields[2]
	if thread >= counts[0] {
		return fail(fmt.Errorf("thread index %d out of range", thread))
	}
	if locP1 > counts[3] {
		return fail(fmt.Errorf("location index %d out of range", locP1))
	}
	var objLimit uint64
	switch kind {
	case event.Acquire, event.Release:
		objLimit = counts[1]
	case event.Read, event.Write:
		objLimit = counts[2]
	case event.Fork, event.Join:
		objLimit = counts[0]
	}
	if obj >= objLimit {
		return fail(fmt.Errorf("operand index %d out of range", obj))
	}
	r.pos += p
	return event.Event{
		Kind:   kind,
		Thread: event.TID(thread),
		Obj:    int32(obj),
		Loc:    event.Loc(locP1) - 1,
	}, nil
}

// Header is the binary format's preamble — the symbol universe plus the
// declared event count — decoupled from the event body, so a producer can
// ship the header in one piece (a raced session-create request) and the
// events separately in arbitrarily-chunked bodies (see NewEventStream).
type Header struct {
	// Syms is the complete symbol universe of the trace.
	Syms *event.Symbols
	// Events is the declared event count; <= 0 means open-ended (the body
	// length is not known up front, as in a live session).
	Events int
}

// counts returns the operand-validation limits implied by the universe.
func (h Header) counts() [4]uint64 {
	return [4]uint64{
		uint64(h.Syms.NumThreads()),
		uint64(h.Syms.NumLocks()),
		uint64(h.Syms.NumVars()),
		uint64(h.Syms.NumLocations()),
	}
}

// Dims returns the trace dimensions the header declares (Events is -1 when
// open-ended).
func (h Header) Dims() Dims {
	d := Dims{
		Threads: h.Syms.NumThreads(),
		Locks:   h.Syms.NumLocks(),
		Vars:    h.Syms.NumVars(),
		Locs:    h.Syms.NumLocations(),
		Events:  h.Events,
	}
	if h.Events <= 0 {
		d.Events = -1
	}
	return d
}

// WriteHeader writes a standalone binary trace header: the symbol universe
// and the declared event count (use 0 for an open-ended body). The written
// bytes are exactly the preamble a full binary trace would start with,
// encoded once at their exact size (AppendHeader).
func WriteHeader(w io.Writer, syms *event.Symbols, nevents int) error {
	if _, err := w.Write(AppendHeader(nil, syms, nevents)); err != nil {
		return fmt.Errorf("traceio: %w", err)
	}
	return nil
}

// ReadHeader decodes a standalone binary trace header from r. It may read
// past the header's last byte (buffering), so r should contain only a
// header; to decode header and body from one stream use OpenStream. When r
// reports its remaining length (as bytes.Reader does), the header's names
// are stored in one allocation of that size.
func ReadHeader(r io.Reader) (Header, error) {
	size := 0
	if l, ok := r.(interface{ Len() int }); ok {
		size = l.Len()
	}
	syms, nev, err := readBinaryHeader(&binaryReader{br: bufio.NewReader(r)}, size)
	if err != nil {
		return Header{}, err
	}
	return Header{Syms: syms, Events: int(nev)}, nil
}

// EncodeEvents writes events in the binary body encoding, with no header:
// the chunk format of a raced session. Every event is written whole, so
// concatenated EncodeEvents outputs always split on event boundaries.
func EncodeEvents(w io.Writer, events []event.Event) error {
	bw := bufio.NewWriter(w)
	if _, err := writeEvents(bw, events); err != nil {
		return fmt.Errorf("traceio: %w", err)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("traceio: %w", err)
	}
	return nil
}

// AppendEvents appends the EncodeEvents encoding of events to dst, growing
// it once to the exact encoded size: the form for a caller that ships the
// body as one slice.
func AppendEvents(dst []byte, events []event.Event) []byte {
	n := 0
	for _, e := range events {
		n += eventLen(e)
	}
	if cap(dst)-len(dst) < n {
		grown := make([]byte, len(dst), len(dst)+n)
		copy(grown, dst)
		dst = grown
	}
	for _, e := range events {
		dst = appendEvent(dst, e)
	}
	return dst
}

// ReadBinary parses a binary-format trace from r.
func ReadBinary(r io.Reader) (*trace.Trace, error) {
	br := &binaryReader{br: bufio.NewReader(r)}
	syms, nev, err := readBinaryHeader(br, 0)
	if err != nil {
		return nil, err
	}
	counts := Header{Syms: syms}.counts()
	tr := &trace.Trace{Symbols: syms, Events: make([]event.Event, 0, min(nev, maxPrealloc))}
	for i := uint64(0); i < nev; i++ {
		e, err := br.decodeEvent(&counts, i)
		if err != nil {
			return nil, err
		}
		tr.Events = append(tr.Events, e)
	}
	return tr, nil
}
