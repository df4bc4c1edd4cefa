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
// its join is the H-time of the run's last record, or — when that one is
// its own — of the last record by another producer; releases on one lock
// are H-monotone, so that record dominates the rest. The log therefore
// keeps only the unsettled tail plus those two records, whatever the
// consumers' cursors: threads that never take the lock pin nothing.
// Cursors count records (and the consumer's own records among them) so
// that the jump needs no word offsets inside the dropped run.
//
// The same-thread rule-(b) queue (ownQ) stays separate per thread: its
// entries must remain drainable while a cross-thread record ahead of them
// is stuck, which a single shared cursor could not express. Its records
// are the log's without the producer word.

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
// [producer, nAcq, rel×T], stride 2+T. An ownQ record is either layout
// without the producer word: [nAcq, relWords, relSpan, relMaskLo,
// relMaskHi, rel…] or [nAcq, rel×T].
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

// pushRecord appends one record to buf: lead free words for the caller
// (the producer, in a csLog), nAcq, then the release H-time h — all width
// words with dense, else bucket-compressed behind its relHdr header. Spans
// that exceed the packSpan sentinel limit are widened to the full width
// *before* packing, so the writer's mask-run walk clamps exactly as the
// reader's will after unpackSpan returns the full span. It returns the
// grown buffer and the offset of the record.
func pushRecord(buf []vc.Clock, lead int, nAcq vc.Clock, h *vc.WC, dense bool) ([]vc.Clock, int) {
	var lo, hi, w int
	if dense {
		w = h.Width()
	} else {
		lo, hi = spanOrFull(h)
		w = relHdr + vc.PackedWords(h.Mask(), h.ChunkShift(), lo, hi)
	}
	n := len(buf)
	end := n + lead + 1 + w
	if end <= cap(buf) {
		buf = buf[:end:cap(buf)]
	} else {
		buf = growSlow(buf, end-n)
	}
	buf[n+lead] = nAcq
	dst := buf[n+lead+1 : end : end]
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

// csLog is the shared per-lock record log. Records are addressed by
// absolute word offset since the lock's creation; base is the absolute
// offset of buf[0], so compaction just advances base.
//
// settledOff is the absolute offset just past the settled run and settledN
// the number of records in it. last and other are the absolute offsets of
// the run's last record and of its last record by another producer than
// last's (-1 when there is none); compaction keeps only those two of the
// run, packed in front of the tail.
type csLog struct {
	buf         []vc.Clock
	base        int
	settledOff  int
	settledN    int
	last, other int
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
func newCSLog() csLog { return csLog{last: -1, other: -1} }

// recLen returns the length in words of the record at buf[off:].
func recLen(buf []vc.Clock, off, width int, dense bool) int {
	if dense {
		return 2 + width
	}
	return csHdr + int(buf[off+2])
}

// push appends producer's record of one critical section.
func (g *csLog) push(producer int, nAcq vc.Clock, h *vc.WC, dense bool) {
	var n int
	g.buf, n = pushRecord(g.buf, 1, nAcq, h, dense)
	g.buf[n] = vc.Clock(producer)
}

// settle advances the settled run over the records with nAcq ≤ pl(producer)
// for the Pℓ just published, then compacts once the run's droppable words
// are worth a copy.
func (g *csLog) settle(cons []consumer, pl vc.VC, width int, dense bool) {
	buf, off := g.buf, g.settledOff-g.base
	for off < len(buf) {
		u := int(buf[off])
		if buf[off+1] > pl[u] {
			break
		}
		if g.last >= 0 && int(buf[g.last-g.base]) != u {
			g.other = g.last
		}
		g.last = g.base + off
		cons[u].settled++
		g.settledN++
		off += recLen(buf, off, width, dense)
	}
	g.settledOff = g.base + off
	if dead := g.deadWords(width, dense); dead >= ringCompactAt && dead*2 >= len(buf) {
		g.compact(width, dense)
	}
}

// deadWords returns the number of words of the settled run that
// compaction would drop: all of it but the last and other records.
func (g *csLog) deadWords(width int, dense bool) int {
	if g.last < 0 {
		return 0
	}
	keep := g.settledOff - g.last
	if g.other >= 0 {
		keep += recLen(g.buf, g.other-g.base, width, dense)
	}
	return g.settledOff - g.base - keep
}

// compact drops the settled run but its other and last records, which it
// packs in front of the tail; absolute offsets of the tail are unchanged.
// The run must hold a record to drop.
func (g *csLog) compact(width int, dense bool) {
	k := 0
	if g.other >= 0 {
		o := g.other - g.base
		k = copy(g.buf, g.buf[o:o+recLen(g.buf, o, width, dense)])
	}
	n := k + copy(g.buf[k:], g.buf[g.last-g.base:])
	g.buf = g.buf[:n]
	g.base = g.last - k
	if g.other >= 0 {
		g.other = g.base
	}
}

// compactForce compacts without the amortization guard, and returns
// oversized backing storage to the allocator when the live region has
// shrunk well below it. Whole-detector compaction calls this: unlike the
// steady-state compaction in settle, it runs off the hot path and wants
// the memory back now.
func (g *csLog) compactForce(width int, dense bool) {
	if g.deadWords(width, dense) > 0 {
		g.compact(width, dense)
	}
	if cap(g.buf) >= 4*ringCompactAt && len(g.buf) < cap(g.buf)/4 {
		g.buf = append([]vc.Clock(nil), g.buf...)
	}
}

// catchUp moves a consumer t whose cursor is behind the settled run to the
// run's end. It returns the buf offset of the record whose release time
// the drain would have joined over the run — the run's last record not by
// t, or -1 when there is none past the cursor — and the pops it would have
// made: the run's records past the cursor minus t's own.
func (g *csLog) catchUp(c *consumer, t int) (last, pops int) {
	last = -1
	if pops = g.settledN - c.idx - (c.settled - c.own); pops > 0 {
		last = g.last
		if int(g.buf[last-g.base]) == t {
			last = g.other
		}
		last -= g.base
	}
	c.off, c.idx, c.own = g.settledOff, g.settledN, c.settled
	return last, pops
}

// ownQ is the FIFO of a thread's own completed critical sections on a lock,
// for the same-thread instance of rule (b): records of the acquire's local
// clock followed by the release H-time.
type ownQ struct {
	buf  []vc.Clock
	head int
}

func (q *ownQ) empty() bool { return q.head == len(q.buf) }

// frontNAcq returns the acquire local time of the front record.
func (q *ownQ) frontNAcq() vc.Clock { return q.buf[q.head] }

// push appends one record.
func (q *ownQ) push(nAcq vc.Clock, h *vc.WC, dense bool) {
	q.buf, _ = pushRecord(q.buf, 0, nAcq, h, dense)
}

// pop drops the front record; next is the offset just past it (relAt's
// end). A queue drained empty rewinds in place, so one that empties at
// every release never grows or copies.
func (q *ownQ) pop(next int) {
	q.head = next
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	} else if q.head >= ringCompactAt && q.head*2 >= len(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		q.buf = q.buf[:n]
		q.head = 0
	}
}
