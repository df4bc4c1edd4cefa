package core

import "repro/internal/vc"

// Algorithm 1's per-(lock, thread) FIFO queues are realized as one shared
// per-lock log of critical-section records plus one cursor per consumer
// thread. Every release appends exactly one record — producer thread, the
// acquire's local clock nAcq, the release's H-time, as plain clock words —
// and each consumer drains the same record sequence through its own cursor,
// skipping its own records. This preserves the per-consumer FIFO semantics
// of the paper's Acqℓ(t)/Relℓ(t) queues exactly (the queues of all
// consumers receive identical record sequences, fused into pairs because
// critical sections on one lock never interleave, so the two queues advance
// in lockstep), while storing each record once instead of T−1 times.
//
// The record is also the only place the release's H-time is written. Every
// other holder of that time refers to the record by its absolute offset
// (relRef): Hℓ is the lock's newest record, a rule-(a) Lr/Lw slot names the
// records of its two latest contributions, and an own-queue entry names its
// release's record. A reference yields the record's words while the record
// is in the log, and ⊥ once compaction dropped it (below). This holds at
// every width and in both record layouts. At width 1 the log holds only
// the thread's own records, and Pt stays ⊥: no record settles and no
// own-queue entry drains, so the log and the own-queue grow by one record
// and one entry per release.
//
// A record keeps one word of the acquire's C-time, not all T: the rule-(b)
// head check acq ⊑ Ct reduces to nAcq ≤ Pt(producer) (see the package
// comment), so the producer's own component is the only one a consumer
// ever reads.
//
// Release times are *bucket-compressed*: only the clock words covered by
// the clock's dirty bitmap (vc.WC) are stored, in mask-run order, behind a
// header carrying the word count, span bounds and bitmap. Consumers walk
// the same mask runs (vc.MaskRuns is the shared definition), so both the
// log's memory and the join work are proportional to how many threads a
// critical section actually communicated with, not to the thread count T —
// a clock whose support is "my pool plus the main thread" costs a dozen
// words even at T=1024, where its contiguous span would cost hundreds.
// Records have variable stride; cursors walk them header by header.
// Detectors whose clocks are all dense (tiny widths, ForceDense) store
// fixed-stride records instead, with all T release words and no header.
//
// The log is pointer-free: drains scan contiguous memory, a pop advances a
// cursor, and there is nothing for the garbage collector to trace.
//
// The log keeps a *settled run*: the prefix of records whose acquire every
// later drain passes. After a release publishes Pℓ, the run advances over
// the records with nAcq ≤ Pℓ(producer); Pℓ only grows along the lock chain
// of a well-formed trace and every later releaser's Pt dominates it, so
// each of those records is popped by every later drain (or skipped as the
// consumer's own). A consumer whose cursor is behind the run takes it in
// O(1) (csLog.catchUp): its pops are the run's records minus its own, and
// its join is the H-time of the run's last record unless that one is its
// own; releases on one lock are H-monotone, so that record dominates the
// rest. The log therefore keeps only the unsettled tail plus that record,
// whatever the consumers' cursors: threads that never take the lock pin
// nothing. Cursors count records (and the consumer's own records among
// them) so that the jump needs no word offsets inside the dropped run.
//
// References pin nothing either: compaction (csLog.compact), the only
// place a record goes, drops the settled run but its last record, and a
// reference below the log's base reads as ⊥. Its join does nothing, and
// along the lock chain of a well-formed trace (trace.Checker keeps every
// other trace out) it had nothing to add. Every settled record but the
// lock's newest has an H-time ⊑ Pℓ: the releaser that settled it either
// popped it or drained it as its own, and a record settled at its own
// release is absorbed by the next releaser. A thread that later joins a
// dropped record — through a rule-(a) slot or its own-queue — first
// absorbed that Pℓ at its acquire of ℓ; a thread that holds ℓ during a
// whole-detector Compact acquired it after the last settle. The run's last
// record stays, because it can be the lock's newest, whose catch-up join
// is real.
//
// The same-thread rule-(b) queue (ownQ) keeps its own FIFO per thread: its
// entries must remain drainable while a cross-thread record ahead of them
// is stuck, which a single shared cursor could not express. An entry is its
// own nAcq plus a reference to its release's record; one whose record was
// dropped still pops, with nothing to join.

// ringCompactAt is the dead-prefix size (in words) past which a ring or log
// compacts.
const ringCompactAt = 4096

// relHdr is the header width of a bucket-compressed release time:
//
//	[relWords, relSpan, relMaskLo, relMaskHi]
//
// followed by relWords bucket-compressed words of the release H-time.
const relHdr = 4

// csHdr is the header width of a windowed csLog record:
//
//	[producer, nAcq, relWords, relSpan, relMaskLo, relMaskHi, rel…]
//
// with stride csHdr+relWords. The fixed-stride layout is
// [producer, nAcq, rel×T], stride 2+T.
const csHdr = 2 + relHdr

// spanPackLimit bounds the clock widths whose spans pack into one word;
// wider clocks (beyond any realistic thread universe) store the sentinel
// and fall back to full-width spans.
const spanPackLimit = 1 << 15

// packSpan packs a dirty span [lo,hi) into one clock word.
func packSpan(lo, hi int) vc.Clock {
	if hi >= spanPackLimit {
		return -1
	}
	return vc.Clock(lo | hi<<15)
}

// unpackSpan undoes packSpan; the sentinel unpacks to the full width.
func unpackSpan(s vc.Clock, width int) (lo, hi int) {
	if s < 0 {
		return 0, width
	}
	return int(s) & (spanPackLimit - 1), int(s) >> 15
}

// maskHalves splits a dirty bitmap into two clock words.
func maskHalves(m uint64) (lo, hi vc.Clock) {
	return vc.Clock(int32(uint32(m))), vc.Clock(int32(uint32(m >> 32)))
}

// maskFrom reassembles a dirty bitmap from its two clock words.
func maskFrom(lo, hi vc.Clock) uint64 {
	return uint64(uint32(lo)) | uint64(uint32(hi))<<32
}

// growSlow reallocates buf with room for need more words. The in-capacity
// fast path is written out in pushRecord; the rare reallocation stays out
// of line.
//
//go:noinline
func growSlow(buf []vc.Clock, need int) []vc.Clock {
	n := len(buf)
	g := make([]vc.Clock, n+need, 2*(n+need)+64)
	copy(g, buf)
	return g
}

// pushRecord appends the record [producer, nAcq, h] — the release H-time
// h as all width words with dense, else bucket-compressed behind its
// relHdr header. Spans that exceed the packSpan sentinel limit are widened
// to the full width *before* packing, so the writer's mask-run walk clamps
// exactly as the reader's will after unpackSpan returns the full span. It
// returns the grown buffer and the offset of the record.
func pushRecord(buf []vc.Clock, producer int, nAcq vc.Clock, h *vc.WC, dense bool) ([]vc.Clock, int) {
	var lo, hi, w int
	if dense {
		w = h.Width()
	} else {
		lo, hi = spanOrFull(h)
		w = relHdr + vc.PackedWords(h.Mask(), h.ChunkShift(), lo, hi)
	}
	n := len(buf)
	end := n + 2 + w
	if end <= cap(buf) {
		buf = buf[:end:cap(buf)]
	} else {
		buf = growSlow(buf, end-n)
	}
	buf[n], buf[n+1] = vc.Clock(producer), nAcq
	dst := buf[n+2 : end : end]
	if dense {
		if hv := h.VC(); len(hv) == 3 {
			dst[0], dst[1], dst[2] = hv[0], hv[1], hv[2]
		} else {
			copy(dst, hv)
		}
		return buf, n
	}
	dst[0] = vc.Clock(w - relHdr)
	dst[1] = packSpan(lo, hi)
	dst[2], dst[3] = maskHalves(h.Mask())
	appendPacked(dst[relHdr:], h, lo, hi)
	return buf, n
}

// relAt returns the release H-time stored at buf[p:] — the record tail
// after nAcq — as packed words plus its window, and the offset just past
// it, where the next record starts.
func relAt(buf []vc.Clock, p, width int, dense bool) (r []vc.Clock, lo, hi int, mask uint64, end int) {
	if dense {
		return buf[p : p+width], 0, width, 0, p + width
	}
	end = p + relHdr + int(buf[p])
	lo, hi = unpackSpan(buf[p+1], width)
	return buf[p+relHdr : end], lo, hi, maskFrom(buf[p+2], buf[p+3]), end
}

// spanOrFull returns the clock's dirty span, widened to the full width
// when it cannot be represented by packSpan.
func spanOrFull(w *vc.WC) (lo, hi int) {
	lo, hi = w.Span()
	if hi >= spanPackLimit {
		return 0, w.Width()
	}
	return lo, hi
}

// appendPacked writes w's components into dst in mask-run order over an
// explicit span (which may be wider than w's own — see spanOrFull).
func appendPacked(dst []vc.Clock, w *vc.WC, lo, hi int) {
	if l, h := w.Span(); l == lo && h == hi {
		w.AppendPacked(dst)
		return
	}
	v := w.VC()
	off := 0
	it := vc.NewMaskRuns(w.Mask(), w.ChunkShift(), lo, hi)
	for {
		a, b, ok := it.Next()
		if !ok {
			return
		}
		off += copy(dst[off:], v[a:b])
	}
}

// unpackRel writes the packed release time r with window [lo,hi) and mask
// into dst, a zeroed dense clock, assigning its words as stored.
func unpackRel(dst vc.VC, r []vc.Clock, lo, hi int, mask uint64, shift uint) {
	if len(r) == hi-lo {
		copy(dst[lo:hi], r)
		return
	}
	off := 0
	it := vc.NewMaskRuns(mask, shift, lo, hi)
	for {
		a, b, ok := it.Next()
		if !ok {
			return
		}
		off += copy(dst[a:b], r[off:])
	}
}

// csLog is the shared per-lock record log. Records are addressed by
// absolute word offset since the lock's creation; base is the absolute
// offset of buf[0], so compaction just advances base. Offsets start at 1,
// so that the zero offset can mean "no record" in a relRef.
//
// settledOff is the absolute offset just past the settled run and settledN
// the number of records in it. last is the absolute offset of the run's
// last record (-1 while the run is empty), the only one of the run that
// compaction keeps.
type csLog struct {
	buf        []vc.Clock
	base       int
	settledOff int
	settledN   int
	last       int
}

// consumer is one thread's view of a lock's log. As a drainer it holds its
// cursor: idx, the absolute index of the next record to inspect; off, that
// record's absolute word offset, meaningful while idx ≥ settledN; and own,
// how many of the records before idx are its own. As a producer it holds
// settled, how many of its records lie in the settled run.
type consumer struct {
	off, idx, own, settled int
}

// newCSLog returns an empty log.
func newCSLog() csLog { return csLog{base: 1, settledOff: 1, last: -1} }

// recLen returns the length in words of the record at buf[off:].
func recLen(buf []vc.Clock, off, width int, dense bool) int {
	if dense {
		return 2 + width
	}
	return csHdr + int(buf[off+2])
}

// settle advances the settled run over the records with nAcq ≤ pl(producer)
// for the Pℓ just published, and reports whether the run's droppable words
// are now worth a compaction.
func (g *csLog) settle(cons []consumer, pl vc.VC, width int, dense bool) bool {
	buf, off := g.buf, g.settledOff-g.base
	for off < len(buf) {
		u := int(buf[off])
		if buf[off+1] > pl[u] {
			break
		}
		g.last = g.base + off
		cons[u].settled++
		g.settledN++
		off += recLen(buf, off, width, dense)
	}
	g.settledOff = g.base + off
	// Compaction would drop the run but its last record (last < 0 while
	// the run is empty).
	dead := g.last - g.base
	return dead >= ringCompactAt && dead*2 >= len(buf)
}

// compact drops the settled run but its last record, which must exist;
// absolute offsets from last on are unchanged, and references below it
// read as ⊥ from now on (see the file comment).
func (g *csLog) compact() {
	g.buf = g.buf[:copy(g.buf, g.buf[g.last-g.base:])]
	g.base = g.last
}

// catchUp moves a consumer t whose cursor is behind the settled run to the
// run's end. It returns the buf offset of the record whose release time
// the drain joins over the run — the run's last record, or -1 when that is
// t's own (the records before it add nothing on the lock chain) or no
// record is past the cursor — and the pops it would have made: the run's
// records past the cursor minus t's own.
func (g *csLog) catchUp(c *consumer, t int) (last, pops int) {
	last = -1
	if pops = g.settledN - c.idx - (c.settled - c.own); pops > 0 && int(g.buf[g.last-g.base]) != t {
		last = g.last - g.base
	}
	c.off, c.idx, c.own = g.settledOff, g.settledN, c.settled
	return last, pops
}

// relRef is where a reader finds one release's H-time: the absolute offset
// of the release's record in the lock's log, 0 for none. A reference below
// the log's base reads as ⊥ (see the file comment).
type relRef int

func (r relRef) present() bool { return r > 0 }

// ownRef is an own-queue entry: the acquire's local clock and a reference
// to the release's record.
type ownRef struct {
	nAcq vc.Clock
	rel  relRef
}

// ownQ is the FIFO of a thread's own completed critical sections on a lock,
// for the same-thread instance of rule (b), live from head on.
type ownQ struct {
	refs []ownRef
	head int
}

func (q *ownQ) empty() bool { return q.head == len(q.refs) }

// pop drops the front entry. A queue drained empty rewinds in place, so a
// queue that empties at every release never grows or copies.
func (q *ownQ) pop() {
	q.head++
	if q.head == len(q.refs) {
		q.refs, q.head = q.refs[:0], 0
	} else if q.head >= ringCompactAt {
		q.refs, q.head = rewind(q.refs, q.head)
	}
}

// push appends an entry and returns the growth of the queue's storage in
// bytes.
func (q *ownQ) push(nAcq vc.Clock, r relRef) int {
	c := cap(q.refs)
	q.refs = append(q.refs, ownRef{nAcq, r})
	return (cap(q.refs) - c) * ownRefB
}

// rewind drops the consumed prefix [0, head) of a FIFO buffer whose head
// has passed ringCompactAt, by a copy once the prefix is at least half the
// buffer.
func rewind[E any](buf []E, head int) ([]E, int) {
	if head*2 >= len(buf) {
		return buf[:copy(buf, buf[head:])], 0
	}
	return buf, head
}

// shrink drops a FIFO buffer's consumed prefix [0, head), and reallocates
// the buffer when its live part uses under a quarter of a large capacity.
func shrink[E any](buf []E, head int) []E {
	if head > 0 {
		buf = buf[:copy(buf, buf[head:])]
	}
	if cap(buf) >= 4*ringCompactAt && len(buf) < cap(buf)/4 {
		buf = append([]E(nil), buf...)
	}
	return buf
}
