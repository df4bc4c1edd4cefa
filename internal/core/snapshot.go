package core

import (
	"errors"
	"slices"
	"sort"

	"repro/internal/event"
	"repro/internal/race"
	"repro/internal/snap"
	"repro/internal/vc"
)

// This file implements the WCP detector's snapshot codec. The payload is
// canonical: it captures exactly the semantic state — clocks, queues,
// rule-(a) records, per-variable access state, result counters — and drops
// everything recomputable (effective-time caches, join-cache pointers,
// generation counters, clock dirty windows). Restore rebuilds the caches
// empty and the windows tight, which changes no verdict (dropped windows
// only cover zero components; dropped caches only force re-joins that are
// no-ops). Because only canonical state is serialized, snapshotting a
// just-restored detector reproduces the identical byte stream — the
// invariant FuzzSnapshotRoundTrip pins.

// Snapshot decode bounds: generous enough for any real session, tight
// enough that hostile payloads cannot drive unbounded allocation.
const (
	maxSnapThreads = 1 << 20
	maxSnapSyms    = 1 << 26
	maxSnapWords   = 1 << 27
	maxSnapCells   = 1 << 24
)

var errTimestamps = errors.New("core: detectors collecting per-event timestamps are not snapshottable")

// EncodeSnapshot appends the detector's full semantic state to w.
func (d *Detector) EncodeSnapshot(w *snap.Writer) error {
	if d.opts.CollectTimestamps {
		return errTimestamps
	}
	w.Bool(d.opts.TrackPairs)
	w.Uvarint(uint64(len(d.threads)))
	w.Uvarint(uint64(len(d.locks)))
	w.Uvarint(uint64(len(d.vars)))

	w.Int(d.res.Events)
	w.Int(d.res.RacyEvents)
	w.Int(d.res.FirstRace)
	w.Int(d.res.QueueMaxTotal)
	w.Int(d.queued)
	w.Bool(d.res.Report != nil)
	if d.res.Report != nil {
		d.res.Report.EncodeSnapshot(w)
	}

	for t := range d.threads {
		ts := &d.threads[t]
		var fb byte
		if ts.incNext {
			fb |= 1
		}
		if ts.oZero {
			fb |= 2
		}
		if d.joined[t] {
			fb |= 4
		}
		if d.dead[t] {
			fb |= 8
		}
		w.Byte(fb)
		w.Int(int(ts.n))
		w.Sparse(ts.p.VC())
		w.Sparse(ts.h.VC())
		w.Sparse(ts.o.VC())
		w.Uvarint(uint64(len(ts.stack)))
		for i := range ts.stack {
			e := &ts.stack[i]
			w.Int(int(e.lock))
			w.Int(int(e.nAcq))
			encodeVarSet(w, &e.reads)
			encodeVarSet(w, &e.writes)
		}
	}

	for _, ls := range d.locks {
		if ls == nil {
			w.Bool(false)
			continue
		}
		w.Bool(true)
		encodeLock(w, ls)
	}

	live := 0
	for x := range d.vars {
		if !varFresh(&d.vars[x]) {
			live++
		}
	}
	w.Uvarint(uint64(live))
	prev := 0
	for x := range d.vars {
		vs := &d.vars[x]
		if varFresh(vs) {
			continue
		}
		w.Uvarint(uint64(x - prev))
		prev = x
		encodeVar(w, vs)
	}
	return nil
}

// varFresh reports whether vs records no access. Every access updates Rx
// or Wx, so a variable with location cells is never fresh.
func varFresh(vs *varState) bool {
	return vs.r.Fresh() && vs.w.Fresh()
}

func encodeVarSet(w *snap.Writer, s *varSet) {
	w.Uvarint(uint64(len(s.list)))
	for _, x := range s.list {
		w.Int(int(x))
	}
}

func decodeVarSet(rd *snap.Reader, s *varSet, nvars int) error {
	n, err := rd.Count(nvars)
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		v, err := rd.I32()
		if err != nil {
			return err
		}
		if int(v) < 0 || int(v) >= nvars {
			return &snap.DecodeError{Reason: "variable id out of range"}
		}
		// add() re-establishes the spill index past varSetSpill; the list
		// was deduplicated at encode time so add keeps the exact order.
		s.add(event.VID(v))
	}
	if len(s.list) != n {
		return &snap.DecodeError{Reason: "duplicate variable in access set"}
	}
	return nil
}

// decodeReadyWC fills an already-initialized clock from a bare sparse
// vector.
func decodeReadyWC(rd *snap.Reader, c *vc.WC, tmp vc.VC) error {
	tmp.Zero()
	if err := rd.Sparse(tmp); err != nil {
		return err
	}
	c.Zero()
	for i, v := range tmp {
		if v != 0 {
			c.Set(i, v)
		}
	}
	return nil
}

// inLog is the snapshot form of a reference: its record's offset in the
// encoded log plus one, or 0 for a record compaction dropped.
func inLog(r relRef, g *csLog) uint64 {
	if int(r) < g.base {
		return 0
	}
	return uint64(int(r) - g.base + 1)
}

// encodeRelTimes writes a rule-(a) record, each contribution as the offset
// of its record. A contribution whose record is gone joins nothing and is
// written as no contribution: with the latest one gone, so is the older
// runner-up, and the record is written as empty.
func encodeRelTimes(w *snap.Writer, rt *relTimes, g *csLog) {
	a, b := inLog(rt.a, g), inLog(rt.b, g)
	switch {
	case a == 0:
		w.Byte(0)
		return
	case b == 0:
		w.Byte(1)
	default:
		w.Byte(2)
	}
	w.Int(int(rt.ta))
	w.Uvarint(a)
	if b != 0 {
		w.Int(int(rt.tb))
		w.Uvarint(b)
	}
}

func (d *Detector) decodeRelTimes(rd *snap.Reader, rt *relTimes, g *csLog, starts []int) error {
	kind, err := rd.Byte()
	if err != nil {
		return err
	}
	if kind == 0 {
		return nil
	}
	if kind > 2 {
		return &snap.DecodeError{Reason: "bad relTimes kind"}
	}
	if rt.ta, rt.a, err = d.decodeContribution(rd, g, starts); err != nil {
		return err
	}
	if kind == 2 {
		if rt.tb, rt.b, err = d.decodeContribution(rd, g, starts); err != nil {
			return err
		}
		if rt.tb == rt.ta || rt.b >= rt.a {
			return &snap.DecodeError{Reason: "relTimes runner-up invalid"}
		}
	}
	// Restore with a live generation; every join cache restarts empty, so
	// any generation consistent across resnapshots works. Zero is reserved
	// for absent records.
	rt.gen = 1
	return nil
}

// decodeContribution reads one rule-(a) contribution: its thread and the
// offset of that thread's release record.
func (d *Detector) decodeContribution(rd *snap.Reader, g *csLog, starts []int) (int32, relRef, error) {
	t, err := rd.I32()
	if err != nil {
		return 0, 0, err
	}
	if int(t) < 0 || int(t) >= len(d.threads) {
		return 0, 0, &snap.DecodeError{Reason: "relTimes thread out of range"}
	}
	r, err := recordRef(rd, g, starts, t)
	if err == nil && r == 0 {
		err = &snap.DecodeError{Reason: "rule-(a) contribution without a record"}
	}
	return t, r, err
}

// recordRef reads a reference written by inLog into the restored log g,
// whose record offsets (followed by len(g.buf)) are starts: 0 for a record
// compaction dropped, or a record by producer.
func recordRef(rd *snap.Reader, g *csLog, starts []int, producer int32) (relRef, error) {
	c, err := rd.Uvarint()
	if err != nil || c == 0 {
		return 0, err
	}
	p := int(min(c-1, uint64(len(g.buf))))
	if _, ok := slices.BinarySearch(starts[:len(starts)-1], p); !ok {
		return 0, &snap.DecodeError{Reason: "reference off a record start or past the log"}
	}
	if g.buf[p] != producer {
		return 0, &snap.DecodeError{Reason: "reference to another thread's record"}
	}
	return relRef(g.base + p), nil
}

// encodeLock writes a lock's state. Every holder of a release time goes out
// as the offset of its record (see inLog): Hℓ as nothing, since it is the
// log's newest record, the own-queue entries and the rule-(a)
// contributions.
func encodeLock(w *snap.Writer, ls *lockState) {
	g := &ls.log
	w.Bool(ls.hl.present())
	if ls.hl.present() {
		w.Sparse(ls.pl.VC())
	}
	// The log goes out as its buffered words with offsets relative to its
	// first word; the settled run as its offset there, its record count and
	// each producer's share; each cursor as a record index and an own-record
	// count. Word offsets of cursors are recomputed at decode.
	w.I32s(g.buf)
	w.Uvarint(uint64(g.settledOff - g.base))
	w.Uvarint(uint64(g.settledN))
	for t := range ls.cons {
		w.Uvarint(uint64(ls.cons[t].settled))
	}
	for t := range ls.cons {
		w.Uvarint(uint64(ls.cons[t].idx))
		w.Uvarint(uint64(ls.cons[t].own))
	}
	for t := range ls.own {
		q := &ls.own[t]
		w.Uvarint(uint64(len(q.refs) - q.head))
		for _, e := range q.refs[q.head:] {
			w.Int(int(e.nAcq))
			w.Uvarint(inLog(e.rel, g))
		}
	}
	// Rule-(a) records, sorted by variable for a canonical byte stream.
	type accEnt struct {
		x    event.VID
		pair *relPair
	}
	var ents []accEnt
	// A pair whose latest contributions' records are both gone is written
	// as absent (see encodeRelTimes).
	live := func(p *relPair) bool { return inLog(p.r.a, g) != 0 || inLog(p.w.a, g) != 0 }
	if ls.acc.dense != nil {
		for x := range ls.acc.dense {
			if p := &ls.acc.dense[x]; live(p) {
				ents = append(ents, accEnt{event.VID(x), p})
			}
		}
	} else {
		for x, p := range ls.acc.m {
			if live(p) {
				ents = append(ents, accEnt{x, p})
			}
		}
		sort.Slice(ents, func(i, j int) bool { return ents[i].x < ents[j].x })
	}
	w.Uvarint(uint64(len(ents)))
	prev := event.VID(0)
	for _, e := range ents {
		w.Uvarint(uint64(e.x - prev))
		prev = e.x
		encodeRelTimes(w, &e.pair.r, g)
		encodeRelTimes(w, &e.pair.w, g)
	}
}

// decodeLock restores a lock written by encodeLock, every holder a
// reference into the restored log; tmp is a scratch clock of the detector's
// width.
func (d *Detector) decodeLock(rd *snap.Reader, ls *lockState, tmp vc.VC) error {
	width := len(d.threads)
	ok, err := rd.Bool()
	if err != nil {
		return err
	}
	if ok {
		ls.pl.Init(width)
		if err := decodeReadyWC(rd, &ls.pl, tmp); err != nil {
			return err
		}
		// One release has happened; restore the release counter to a live
		// value (join caches are all stale at zero, forcing no-op
		// re-joins at each thread's next acquire).
		ls.gen = 1
	}
	starts, err := d.decodeLog(rd, ls)
	if err != nil {
		return err
	}
	g := &ls.log
	if ok != (len(g.buf) > 0) {
		return &snap.DecodeError{Reason: "Hℓ without a log record, or a log without Hℓ"}
	}
	if ok {
		ls.hl = relRef(g.base + starts[len(starts)-2])
	}
	for t := range ls.own {
		q := &ls.own[t]
		n, err := rd.Count(rd.Remaining() / 2)
		if err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			nAcq, err := rd.I32()
			if err != nil {
				return err
			}
			r, err := recordRef(rd, g, starts, int32(t))
			if err != nil {
				return err
			}
			if r.present() && g.buf[int(r)-g.base+1] != nAcq {
				return &snap.DecodeError{Reason: "own-queue entry's nAcq differs from its record's"}
			}
			// Entries follow their releases: dropped records first, then
			// records in log order.
			if i > 0 && q.refs[i-1].rel.present() && r <= q.refs[i-1].rel {
				return &snap.DecodeError{Reason: "own-queue entries out of log order"}
			}
			q.refs = append(q.refs, ownRef{nAcq, r})
		}
	}
	n, err := rd.Count(len(d.vars))
	if err != nil {
		return err
	}
	x := event.VID(0)
	for i := 0; i < n; i++ {
		dx, err := rd.Uvarint()
		if err != nil {
			return err
		}
		if i == 0 {
			x = event.VID(dx)
		} else {
			if dx == 0 {
				return &snap.DecodeError{Reason: "non-increasing acc variable"}
			}
			x += event.VID(dx)
		}
		if int(x) >= len(d.vars) {
			return &snap.DecodeError{Reason: "acc variable out of range"}
		}
		pair, _ := ls.acc.getOrCreate(x, d.denseVars)
		if err := d.decodeRelTimes(rd, &pair.r, g, starts); err != nil {
			return err
		}
		if err := d.decodeRelTimes(rd, &pair.w, g, starts); err != nil {
			return err
		}
		if !pair.r.a.present() && !pair.w.a.present() {
			return &snap.DecodeError{Reason: "empty rule-(a) record"}
		}
		if pair.r.a.present() {
			ls.acc.rMask |= varBit(x)
		}
		if pair.w.a.present() {
			ls.acc.wMask |= varBit(x)
		}
	}
	ls.bytes = d.lockBytes(ls)
	return nil
}

// The queue logs arrive as raw clock words, and the release drain trusts
// their record headers: a producer past the width, a word count past the
// buffer, a span outside the clock width or a settled offset inside a
// record would panic at the lock's next release. Decode therefore walks
// every record as the drain will (see queue.go for the two layouts) and
// rejects any log the encoder could not have written.

// decodeLog restores a lock's csLog and cursors (see encodeLock) and
// returns the offset of every record, followed by len(buf). Beyond the
// record walk it checks what catchUp and the drain rely on: the settled
// run ends on a record boundary, its kept record exists exactly when it is
// nonempty, the producers' shares sum to its count, and every cursor's
// counts fit the run — behind it, no more own or foreign records than the
// run holds; at or past it, exactly the own records it passed.
func (d *Detector) decodeLog(rd *snap.Reader, ls *lockState) ([]int, error) {
	buf, err := rd.I32s(maxSnapWords)
	if err != nil {
		return nil, err
	}
	if len(buf) == 0 {
		buf = nil
	}
	starts, err := d.logRecords(buf)
	if err != nil {
		return nil, err
	}
	off, err := rd.Uvarint()
	if err != nil {
		return nil, err
	}
	k, ok := slices.BinarySearch(starts, int(min(off, uint64(len(buf)+1))))
	if !ok {
		return nil, &snap.DecodeError{Reason: "settled offset off a record boundary or outside the log"}
	}
	n, err := rd.Count(max(d.res.Events, 0))
	if err != nil {
		return nil, err
	}
	if (k == 0) != (n == 0) {
		return nil, &snap.DecodeError{Reason: "settled count without kept records"}
	}
	// The restored log's absolute offsets start where a new log's do.
	g := &ls.log
	*g = newCSLog()
	g.buf, g.settledN = buf, n
	g.settledOff += int(off)
	if k > 0 {
		g.last = g.base + starts[k-1]
	}
	sum := 0
	for u := range ls.cons {
		c := &ls.cons[u]
		if c.settled, err = rd.Count(n); err != nil {
			return nil, err
		}
		sum += c.settled
	}
	if sum != n {
		return nil, &snap.DecodeError{Reason: "per-producer settled counts do not sum to the settled count"}
	}
	tail := len(starts) - 1 - k
	type tailCursor struct{ pos, t int }
	var at []tailCursor
	for t := range ls.cons {
		c := &ls.cons[t]
		if c.idx, err = rd.Count(n + tail); err != nil {
			return nil, err
		}
		if c.own, err = rd.Count(c.idx); err != nil {
			return nil, err
		}
		if c.idx >= n {
			at = append(at, tailCursor{c.idx - n, t})
		} else if c.own > c.settled || c.idx-c.own > n-c.settled {
			return nil, &snap.DecodeError{Reason: "consumer counts past the settled run"}
		}
	}
	// Cursors in the tail: one sweep over its records, in cursor order,
	// counts each one's own records and recovers its word offset.
	sort.Slice(at, func(i, j int) bool { return at[i].pos < at[j].pos })
	seen := make([]int, len(ls.cons))
	i := 0
	for _, a := range at {
		for ; i < a.pos; i++ {
			seen[buf[starts[k+i]]]++
		}
		c := &ls.cons[a.t]
		if c.own != c.settled+seen[a.t] {
			return nil, &snap.DecodeError{Reason: "consumer own count disagrees with the log"}
		}
		c.off = g.base + starts[k+a.pos]
	}
	return starts, nil
}

// logRecords checks a lock's csLog buffer and returns the offset of every
// record, followed by len(buf): the positions a settled offset or a cursor
// may hold.
func (d *Detector) logRecords(buf []vc.Clock) ([]int, error) {
	var starts []int
	for off := 0; off < len(buf); {
		starts = append(starts, off)
		end, ok := d.relEnd(buf, off+2)
		if p := buf[off]; !ok || p < 0 || int(p) >= len(d.threads) {
			return nil, &snap.DecodeError{Reason: "malformed queue record"}
		}
		off = end
	}
	return append(starts, len(buf)), nil
}

// relEnd returns the offset just past the release time stored at buf[p:],
// the record's tail after nAcq, as relAt will read it. It reports false when
// the tail runs past buf or its header's word count is not exactly the
// packed width of its span and mask, with the span inside the clock width.
func (d *Detector) relEnd(buf []vc.Clock, p int) (int, bool) {
	width := len(d.threads)
	if d.denseQ {
		return p + width, p+width <= len(buf)
	}
	if len(buf)-p < relHdr {
		return 0, false
	}
	n, span := buf[p], buf[p+1]
	if span < -1 {
		return 0, false
	}
	lo, hi := unpackSpan(span, width)
	if lo > hi || hi > width ||
		int(n) != vc.PackedWords(maskFrom(buf[p+2], buf[p+3]), d.threads[0].p.ChunkShift(), lo, hi) {
		return 0, false
	}
	end := p + relHdr + int(n)
	return end, end <= len(buf)
}

func encodeVar(w *snap.Writer, vs *varState) {
	vs.r.EncodeTime(w)
	vs.w.EncodeTime(w)
	vs.reads.EncodeSnapshot(w)
	vs.writes.EncodeSnapshot(w)
}

func decodeVar(rd *snap.Reader, vs *varState, tmp vc.VC) error {
	if err := vs.r.DecodeTime(rd, tmp); err != nil {
		return err
	}
	if err := vs.w.DecodeTime(rd, tmp); err != nil {
		return err
	}
	if err := vs.reads.DecodeSnapshot(rd, tmp); err != nil {
		return err
	}
	if err := vs.writes.DecodeSnapshot(rd, tmp); err != nil {
		return err
	}
	if varFresh(vs) {
		// A fresh variable must be omitted from the stream, or snapshotting
		// the restored detector would not reproduce it byte-identically.
		return &snap.DecodeError{Reason: "fresh variable encoded"}
	}
	return nil
}

// DecodeSnapshot reconstructs a detector from a payload written by
// EncodeSnapshot. Any malformation surfaces as a *snap.DecodeError.
func DecodeSnapshot(rd *snap.Reader) (*Detector, error) {
	pairs, err := rd.Bool()
	if err != nil {
		return nil, err
	}
	opts := Options{TrackPairs: pairs}
	threads, err := rd.Count(maxSnapThreads)
	if err != nil {
		return nil, err
	}
	if threads == 0 {
		return nil, &snap.DecodeError{Reason: "zero threads"}
	}
	locks, err := rd.Count(maxSnapSyms)
	if err != nil {
		return nil, err
	}
	vars, err := rd.Count(maxSnapSyms)
	if err != nil {
		return nil, err
	}
	d := NewDetector(threads, locks, vars, opts)
	tmp := vc.New(threads)

	if d.res.Events, err = rd.Int(); err != nil {
		return nil, err
	}
	if d.res.RacyEvents, err = rd.Int(); err != nil {
		return nil, err
	}
	if d.res.FirstRace, err = rd.Int(); err != nil {
		return nil, err
	}
	if d.res.QueueMaxTotal, err = rd.Int(); err != nil {
		return nil, err
	}
	if d.queued, err = rd.Int(); err != nil {
		return nil, err
	}
	hasReport, err := rd.Bool()
	if err != nil {
		return nil, err
	}
	if hasReport != opts.TrackPairs {
		return nil, &snap.DecodeError{Reason: "report presence inconsistent with options"}
	}
	if hasReport {
		if d.res.Report, err = race.DecodeSnapshotReport(rd); err != nil {
			return nil, err
		}
	} else {
		d.res.Report = nil
	}

	for t := range d.threads {
		ts := &d.threads[t]
		fb, err := rd.Byte()
		if err != nil {
			return nil, err
		}
		if fb >= 16 {
			return nil, &snap.DecodeError{Reason: "bad thread flags"}
		}
		ts.incNext = fb&1 != 0
		ts.oZero = fb&2 != 0
		d.joined[t] = fb&4 != 0
		d.dead[t] = fb&8 != 0
		if ts.n, err = rd.I32(); err != nil {
			return nil, err
		}
		if err := decodeReadyWC(rd, &ts.p, tmp); err != nil {
			return nil, err
		}
		if err := decodeReadyWC(rd, &ts.h, tmp); err != nil {
			return nil, err
		}
		if err := decodeReadyWC(rd, &ts.o, tmp); err != nil {
			return nil, err
		}
		depth, err := rd.Count(maxSnapCells)
		if err != nil {
			return nil, err
		}
		for i := 0; i < depth; i++ {
			l, err := rd.I32()
			if err != nil {
				return nil, err
			}
			if int(l) < 0 || int(l) >= locks {
				return nil, &snap.DecodeError{Reason: "stack lock out of range"}
			}
			nAcq, err := rd.I32()
			if err != nil {
				return nil, err
			}
			e := ts.pushCS(event.LID(l), nAcq)
			if err := decodeVarSet(rd, &e.reads, vars); err != nil {
				return nil, err
			}
			if err := decodeVarSet(rd, &e.writes, vars); err != nil {
				return nil, err
			}
		}
	}

	for l := range d.locks {
		present, err := rd.Bool()
		if err != nil {
			return nil, err
		}
		if !present {
			continue
		}
		ls := d.lock(event.LID(l))
		if err := d.decodeLock(rd, ls, tmp); err != nil {
			return nil, err
		}
	}

	n, err := rd.Count(vars)
	if err != nil {
		return nil, err
	}
	x := 0
	for i := 0; i < n; i++ {
		dx, err := rd.Uvarint()
		if err != nil {
			return nil, err
		}
		if i == 0 {
			x = int(dx)
		} else {
			if dx == 0 {
				return nil, &snap.DecodeError{Reason: "non-increasing variable"}
			}
			x += int(dx)
		}
		if x >= vars {
			return nil, &snap.DecodeError{Reason: "variable out of range"}
		}
		if err := decodeVar(rd, &d.vars[x], tmp); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// Options returns the detector's option set (engine restore validates a
// decoded detector's options against the serialized engine name).
func (d *Detector) Options() Options { return d.opts }
