// Package snap implements the versioned binary framing shared by every
// detector snapshot: a magic header, a format version, a length-delimited
// payload, and a CRC32 trailer. Encoders buffer the payload and emit the
// frame on Close; decoders read the whole frame, verify the checksum
// *before* interpreting a single payload byte, and then decode from memory.
// That ordering is what makes the codec fuzz-safe: a flipped bit fails the
// checksum with a typed DecodeError instead of driving the decoder into a
// bogus allocation, and a truncated frame fails the length read the same
// way. Restore never panics on hostile input.
//
// The payload encoding is deliberately minimal: unsigned varints, zigzag
// varints, length-prefixed byte strings, and a sparse encoding for vector
// clocks (count of nonzero components, then delta-coded index/value pairs).
// Everything detector-specific lives in the detectors' own snapshot files;
// this package only guarantees the frame is intact and self-delimiting.
package snap

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// Magic identifies a snapshot frame. The trailing byte doubles as a
// format-version slot so readers can reject frames from future encoders.
var magic = [4]byte{'r', 'p', 's', 'n'}

// Version is the current snapshot format version. Bump on any payload
// layout change; Reader rejects mismatched versions with a DecodeError.
// Version 7 writes each WCP lock's holders of release times (Hℓ, the
// own-queue entries, the rule-(a) contributions) as offsets into the
// lock's encoded log instead of full clocks and inline records.
// Version 6 adds the §2.1 checker's state (trace.Checker) to a session's
// meta frame; version 5 adds each WCP lock log's settled run (offset, record count and
// per-producer counts) and encodes each cursor as a record index and an
// own-record count, without the compaction high-water word; version 4
// keeps only the acquire's local clock in WCP queue records and drops the
// acquire C-time snapshots and stuck-head memos; version 3
// encodes each variable's read and write times as cells (an epoch, or a
// sparse clock in vector form) and has no epoch-engine layout; version 2
// held them as full clocks with fast-path flags.
const Version = 7

// maxPayload bounds a single frame's payload so a corrupted length field
// cannot drive a multi-gigabyte allocation. Detector snapshots for even
// very large sessions sit far below this.
const maxPayload = 1 << 30

// DecodeError is the typed failure every decoding path returns: corrupt
// framing, checksum mismatch, version skew, truncation, or a payload that
// violates the bounds the decoder declared. Restore APIs guarantee any
// failure is a *DecodeError (or an underlying read error), never a panic.
type DecodeError struct {
	Reason string
}

func (e *DecodeError) Error() string { return "snapshot: " + e.Reason }

func errf(format string, args ...any) error {
	return &DecodeError{Reason: fmt.Sprintf(format, args...)}
}

// Writer buffers a snapshot payload and emits one framed snapshot on Close.
type Writer struct {
	w   io.Writer
	buf bytes.Buffer
	tmp [binary.MaxVarintLen64]byte
}

// NewWriter returns a Writer that will emit its frame to w on Close.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// Uvarint appends an unsigned varint.
func (w *Writer) Uvarint(v uint64) {
	n := binary.PutUvarint(w.tmp[:], v)
	w.buf.Write(w.tmp[:n])
}

// Varint appends a zigzag-coded signed varint.
func (w *Writer) Varint(v int64) {
	n := binary.PutVarint(w.tmp[:], v)
	w.buf.Write(w.tmp[:n])
}

// Int appends an int as a zigzag varint.
func (w *Writer) Int(v int) { w.Varint(int64(v)) }

// Byte appends one raw byte.
func (w *Writer) Byte(b byte) { w.buf.WriteByte(b) }

// Bool appends a bool as one byte.
func (w *Writer) Bool(b bool) {
	if b {
		w.buf.WriteByte(1)
	} else {
		w.buf.WriteByte(0)
	}
}

// String appends a length-prefixed string.
func (w *Writer) String(s string) {
	w.Uvarint(uint64(len(s)))
	w.buf.WriteString(s)
}

// Bytes appends a length-prefixed byte string.
func (w *Writer) Bytes(b []byte) {
	w.Uvarint(uint64(len(b)))
	w.buf.Write(b)
}

// I32s appends a length-prefixed slice of int32 values as zigzag varints.
// Used for raw csLog words, which may be negative (packed-span sentinels).
func (w *Writer) I32s(v []int32) {
	w.Uvarint(uint64(len(v)))
	for _, c := range v {
		w.Varint(int64(c))
	}
}

// Sparse appends a vector of int32 components in sparse form: the count of
// nonzero components followed by delta-coded (index, value) pairs. Width is
// not stored — the decoder knows it from the detector dimensions.
func (w *Writer) Sparse(v []int32) {
	n := 0
	for _, c := range v {
		if c != 0 {
			n++
		}
	}
	w.Uvarint(uint64(n))
	prev := 0
	for i, c := range v {
		if c == 0 {
			continue
		}
		w.Uvarint(uint64(i - prev))
		w.Varint(int64(c))
		prev = i
	}
}

// Len returns the number of payload bytes buffered so far.
func (w *Writer) Len() int { return w.buf.Len() }

// Close frames the buffered payload (magic, version, length, payload,
// CRC32) and writes it to the underlying writer.
func (w *Writer) Close() error {
	var hdr [5 + binary.MaxVarintLen64]byte
	copy(hdr[:4], magic[:])
	hdr[4] = Version
	n := 5 + binary.PutUvarint(hdr[5:], uint64(w.buf.Len()))
	if _, err := w.w.Write(hdr[:n]); err != nil {
		return err
	}
	if _, err := w.w.Write(w.buf.Bytes()); err != nil {
		return err
	}
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], crc32.ChecksumIEEE(w.buf.Bytes()))
	_, err := w.w.Write(sum[:])
	return err
}

// Reader decodes one framed snapshot. NewReader consumes the entire frame
// from the stream and verifies the checksum before returning; all the
// field accessors then decode from memory and report typed DecodeErrors
// on malformed payloads.
type Reader struct {
	buf []byte
	pos int
}

// byteGetter adapts an io.Reader for binary.ReadUvarint.
type byteGetter struct {
	r   io.Reader
	one [1]byte
}

func (g *byteGetter) ReadByte() (byte, error) {
	if _, err := io.ReadFull(g.r, g.one[:]); err != nil {
		return 0, err
	}
	return g.one[0], nil
}

// NewReader reads one complete frame from r and verifies its checksum.
// Frames are self-delimiting, so consecutive snapshots can be concatenated
// on one stream and read back with successive NewReader calls.
func NewReader(r io.Reader) (*Reader, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, err // clean EOF between frames is not corruption
		}
		return nil, errf("truncated header: %v", err)
	}
	if !bytes.Equal(hdr[:4], magic[:]) {
		return nil, errf("bad magic %q", hdr[:4])
	}
	if hdr[4] != Version {
		return nil, errf("unsupported format version %d (want %d)", hdr[4], Version)
	}
	size, err := binary.ReadUvarint(&byteGetter{r: r})
	if err != nil {
		return nil, errf("truncated payload length: %v", err)
	}
	if size > maxPayload {
		return nil, errf("payload length %d exceeds limit", size)
	}
	buf := make([]byte, size)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, errf("truncated payload: %v", err)
	}
	var sum [4]byte
	if _, err := io.ReadFull(r, sum[:]); err != nil {
		return nil, errf("truncated checksum: %v", err)
	}
	if got := crc32.ChecksumIEEE(buf); got != binary.LittleEndian.Uint32(sum[:]) {
		return nil, errf("checksum mismatch")
	}
	return &Reader{buf: buf}, nil
}

// Uvarint decodes an unsigned varint.
func (r *Reader) Uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.buf[r.pos:])
	if n <= 0 {
		return 0, errf("truncated varint at offset %d", r.pos)
	}
	r.pos += n
	return v, nil
}

// Varint decodes a zigzag-coded signed varint.
func (r *Reader) Varint() (int64, error) {
	v, n := binary.Varint(r.buf[r.pos:])
	if n <= 0 {
		return 0, errf("truncated varint at offset %d", r.pos)
	}
	r.pos += n
	return v, nil
}

// Count decodes an unsigned varint and checks it against an upper bound,
// guarding every loop and allocation a decoder performs.
func (r *Reader) Count(max int) (int, error) {
	v, err := r.Uvarint()
	if err != nil {
		return 0, err
	}
	if v > uint64(max) {
		return 0, errf("count %d exceeds limit %d", v, max)
	}
	return int(v), nil
}

// Int decodes a zigzag varint as an int.
func (r *Reader) Int() (int, error) {
	v, err := r.Varint()
	if err != nil {
		return 0, err
	}
	return int(v), nil
}

// I32 decodes a zigzag varint and range-checks it into an int32.
func (r *Reader) I32() (int32, error) {
	v, err := r.Varint()
	if err != nil {
		return 0, err
	}
	if v < -1<<31 || v > 1<<31-1 {
		return 0, errf("value %d overflows int32", v)
	}
	return int32(v), nil
}

// Byte decodes one raw byte.
func (r *Reader) Byte() (byte, error) {
	if r.pos >= len(r.buf) {
		return 0, errf("truncated byte at offset %d", r.pos)
	}
	b := r.buf[r.pos]
	r.pos++
	return b, nil
}

// Bool decodes one byte as a bool, rejecting values other than 0 and 1 so
// re-encoding is byte-identical.
func (r *Reader) Bool() (bool, error) {
	b, err := r.Byte()
	if err != nil {
		return false, err
	}
	if b > 1 {
		return false, errf("bad bool byte %d", b)
	}
	return b == 1, nil
}

// String decodes a length-prefixed string bounded by max bytes.
func (r *Reader) String(max int) (string, error) {
	n, err := r.Count(max)
	if err != nil {
		return "", err
	}
	if r.pos+n > len(r.buf) {
		return "", errf("truncated string at offset %d", r.pos)
	}
	s := string(r.buf[r.pos : r.pos+n])
	r.pos += n
	return s, nil
}

// Bytes decodes a length-prefixed byte string bounded by max bytes. The
// returned slice is freshly allocated.
func (r *Reader) Bytes(max int) ([]byte, error) {
	n, err := r.Count(max)
	if err != nil {
		return nil, err
	}
	if r.pos+n > len(r.buf) {
		return nil, errf("truncated bytes at offset %d", r.pos)
	}
	b := make([]byte, n)
	copy(b, r.buf[r.pos:r.pos+n])
	r.pos += n
	return b, nil
}

// I32s decodes a length-prefixed slice of zigzag-coded int32 values bounded
// by max elements.
func (r *Reader) I32s(max int) ([]int32, error) {
	n, err := r.Count(max)
	if err != nil {
		return nil, err
	}
	v := make([]int32, n)
	for i := range v {
		c, err := r.I32()
		if err != nil {
			return nil, err
		}
		v[i] = c
	}
	return v, nil
}

// Sparse decodes a sparse int32 vector into dst (which the caller has sized
// to the expected width and zeroed). Indices must be strictly increasing
// and in range, so decoding then re-encoding reproduces identical bytes.
func (r *Reader) Sparse(dst []int32) error {
	n, err := r.Count(len(dst))
	if err != nil {
		return err
	}
	idx := -1
	for i := 0; i < n; i++ {
		d, err := r.Uvarint()
		if err != nil {
			return err
		}
		if idx >= 0 && d == 0 {
			return errf("non-increasing sparse index at offset %d", r.pos)
		}
		// Bound the increment before converting it, so no huge varint
		// can wrap the index negative.
		base := max(idx, 0)
		if d >= uint64(len(dst)-base) {
			return errf("sparse index %d+%d out of range %d", base, d, len(dst))
		}
		idx = base + int(d)
		v, err := r.I32()
		if err != nil {
			return err
		}
		if v == 0 {
			return errf("zero value in sparse vector at index %d", idx)
		}
		dst[idx] = v
	}
	return nil
}

// Len returns the total payload length.
func (r *Reader) Len() int { return len(r.buf) }

// Remaining returns the number of undecoded payload bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.pos }

// Close verifies the payload was fully consumed — trailing garbage inside
// a checksummed frame means encoder/decoder disagreement, which must
// surface as corruption rather than be silently ignored.
func (r *Reader) Close() error {
	if r.pos != len(r.buf) {
		return errf("%d trailing payload bytes", len(r.buf)-r.pos)
	}
	return nil
}
