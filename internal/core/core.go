// Package core implements the paper's primary contribution: the streaming,
// linear-time vector-clock algorithm for the Weak-Causally-Precedes (WCP)
// relation (Definition 3) and WCP race detection — Algorithm 1 of the paper.
//
// The detector processes a trace event by event, maintaining per Algorithm 1:
//
//   - a scalar local clock Nt per thread, incremented just before an event
//     iff the thread's previous event was a release (or fork, which we
//     segment identically so the HB clocks stay exact);
//   - a WCP-predecessor clock Pt and an HB clock Ht per thread, with the
//     derived WCP time Ct = Pt[t := Nt] and the invariant Ht(t) = Nt;
//   - per lock ℓ: Pℓ and Hℓ, the P/H times of the last rel(ℓ);
//   - per lock ℓ and variable x: Lr(ℓ,x) and Lw(ℓ,x), the join of the HB
//     times of releases of ℓ whose critical sections read/wrote x
//     (rule (a));
//   - per lock ℓ and thread t: a FIFO queue of (acquire time, H-time of
//     release) records of ℓ's critical sections by other threads — Acqℓ(t)
//     and Relℓ(t) of Algorithm 1, fused into pair records because critical
//     sections on one lock never interleave, so the two queues advance in
//     lockstep — drained at t's releases of ℓ while the front acquire is
//     ⊑ Ct (rule (b));
//   - per variable: the read/write times Rx and Wx for race checking (§3.2
//     end) and, with pair tracking, one cell per program location and
//     access kind, so distinct race *pairs* of locations are reported
//     exactly (Table 1 metric).
//
// The hot path applies several work-avoidance layers on top of Algorithm 1,
// none of which changes what the algorithm computes (the property tests pin
// timestamps and races against the closure reference):
//
//   - acquires whose lock was last released by the acquiring thread itself
//     skip the Hℓ/Pℓ joins — the lock's times are the thread's own earlier
//     times, already ⊑ its current clocks;
//   - an acquire is published only at the matching release, as one record
//     in a shared per-lock log that every consumer drains through its own
//     cursor (invisible to consumers: they drain only at their own
//     releases, which cannot fall inside this critical section; see
//     queue.go), and a popped run is absorbed with a single join of its
//     last (H-monotone) release time;
//   - the rule-(b) head check is one compare. At t's release of ℓ every
//     record in ℓ's log belongs to a critical section released before t
//     acquired ℓ (one holder at a time). t's acquire joined Pℓ, the P-time
//     of the last of those releases (the joinGen skip fires only when Pt
//     already dominates Pℓ); each acquire on ℓ joins the previous release's
//     Pℓ, and P only grows along a thread, so Pt dominates the P-part of
//     every record's acquire time. That acquire time is its P-part with the
//     producer u's own component set to u's local clock nAcq, and its
//     component t is at most Pt(t) ≤ Nt. So acq ⊑ Ct iff nAcq ≤ Pt(u) —
//     the same shape as the own-queue test nAcq ≤ Pt(t) — and a record
//     keeps only nAcq of its acquire time. The argument rests on the lock
//     chain of well-formed traces, like the pop-run's single join;
//   - the log keeps only what a later drain might still refuse: after each
//     release publishes Pℓ, the records with nAcq ≤ Pℓ(producer) are
//     settled — every later releaser's Pt dominates Pℓ along the lock
//     chain, so every later drain pops them — and a cursor behind the
//     settled run takes it in O(1), from counts and the run's last record
//     (see queue.go);
//   - the rule-(a) Lr/Lw state collapses to the two latest contributions
//     by distinct threads — releases on one lock are H-monotone, so they
//     dominate all earlier ones (see relTimes);
//   - a release's H-time is written once, as its log record: Hℓ, the
//     rule-(a) slots it updates and its own-queue entry hold the record's
//     offset, and read its words in place, at every width and in both
//     record layouts. Log compaction, the only step that drops
//     a record, drops only records whose H-time every later reader has
//     already absorbed along the lock chain, so a reference into the
//     dropped range reads as ⊥ (see queue.go);
//   - the race check never materializes the effective time
//     (Pt ⊔ Ot)[t := Nt]: it compares componentwise, drops the ⊔ Ot leg
//     once Pt dominates the static ancestry clock, and keeps Rx and Wx as
//     adaptive times that collapse to one epoch compare while a variable's
//     accesses stay totally ordered (Lemma C.8) and return to that form
//     as soon as an access follows every earlier one — the paper's §6
//     epoch optimisation, exact. Pair tracking takes its verdict from the
//     same check and reads its per-location cells, which are the same
//     adaptive times, only for racy events (see varState). The cached
//     per-thread materialization remains only for timestamp collection,
//     compaction floors and FindRacePairs;
//   - every clock is windowed (vc.WC): joins, comparisons, copies and
//     queue records touch only each clock's dirty window, so per-event
//     clock work scales with how many threads actually communicated, not
//     with the thread count T, and generation-based join caches collapse
//     repeated joins of unchanged lock and rule-(a) clocks to one compare
//     (see vc/window.go and DESIGN.md §5).
//
// Reentrant (same-lock nested) acquisitions are accepted and treated as
// no-ops for synchronization, matching JVM lock semantics; the paper's trace
// model has no same-lock nesting.
//
// Algorithm 1, Theorem 1 and every shortcut above hold on well-formed
// traces (§2.1). Every streamed path checks that with trace.Checker before
// a block reaches the detector, and the loaded paths run trace.Validate.
// A detector fed an unchecked in-memory trace (Detect, Engine.Analyze)
// stays deterministic and panic-free on ill-formed input, and promises
// nothing more: a release that does not close the thread's innermost open
// critical section is ignored.
package core

import (
	"repro/internal/event"
	"repro/internal/race"
	"repro/internal/trace"
	"repro/internal/vc"
)

// Options configures the WCP detector.
type Options struct {
	// TrackPairs enables exact distinct race-pair reporting per
	// program-location pair. The racy verdict is the same check as without
	// it; pair tracking adds one cell update per access and a scan of the
	// variable's cells for each racy event.
	TrackPairs bool
	// CollectTimestamps stores the WCP time Ce and HB time He of every
	// event in the Result, enabling the Theorem 2 cross-check against the
	// closure-based reference. Memory is O(N·T); only for small traces.
	CollectTimestamps bool
}

// Result is the outcome of a WCP analysis.
type Result struct {
	// Report holds the distinct race pairs (nil unless Options.TrackPairs).
	Report *race.Report
	// RacyEvents counts events flagged as WCP-racing with an earlier
	// conflicting access.
	RacyEvents int
	// FirstRace is the trace index of the first racy event, or -1. By
	// Theorem 1 the first WCP race is a predictable race or deadlock.
	FirstRace int
	// Events is the number of events processed.
	Events int
	// QueueMaxTotal is the high-water mark of the total number of entries
	// across all Acqℓ(t) and Relℓ(t) queues (Table 1 column 11 numerator).
	// The physical queues fuse each (acquire, release) pair into one record
	// published at the release, but the count tracks Algorithm 1's entries:
	// an acquire contributes its T−1 Acqℓ entries when it executes.
	QueueMaxTotal int
	// Times and HBTimes hold Ce and He per event when
	// Options.CollectTimestamps is set.
	Times   []vc.VC
	HBTimes []vc.VC
}

// QueueMaxFraction returns QueueMaxTotal as a fraction of events processed
// (Table 1 column 11), or 0 for an empty trace.
func (r *Result) QueueMaxFraction() float64 {
	if r.Events == 0 {
		return 0
	}
	return float64(r.QueueMaxTotal) / float64(r.Events)
}

// varSetSpill is the membership-index threshold of varSet: sets at most this
// large dedupe by linear scan, larger ones through a hash set.
const varSetSpill = 16

// varSet is a deduplicated set of variables, optimized for the critical
// sections real traces have: few distinct variables, with repeated accesses
// usually hitting the most recent one. Long critical sections touching many
// variables spill to a hash membership index past varSetSpill elements, so
// insertion never goes quadratic. Both the list storage and the index are
// retained across reset for reuse.
type varSet struct {
	list []event.VID
	seen map[event.VID]struct{} // non-nil once list outgrows varSetSpill
}

// reset empties the set, keeping the list capacity and index allocation.
func (s *varSet) reset() {
	s.list = s.list[:0]
	if s.seen != nil {
		clear(s.seen)
	}
}

func (s *varSet) add(x event.VID) {
	if n := len(s.list); n > 0 && s.list[n-1] == x {
		return
	}
	if s.seen != nil {
		if _, ok := s.seen[x]; ok {
			return
		}
		s.seen[x] = struct{}{}
		s.list = append(s.list, x)
		return
	}
	for _, v := range s.list {
		if v == x {
			return
		}
	}
	s.list = append(s.list, x)
	if len(s.list) > varSetSpill {
		s.seen = make(map[event.VID]struct{}, 2*varSetSpill)
		for _, v := range s.list {
			s.seen[v] = struct{}{}
		}
	}
}

func (s *varSet) addAll(src *varSet) {
	for _, x := range src.list {
		s.add(x)
	}
}

// csEntry is one open critical section of a thread: the lock, the local
// clock at its acquire — the only word of the acquire's C-time a consumer's
// rule-(b) check reads, published with the matching release — and the sets
// of variables read/written inside it so far (the R and W parameters of the
// release procedure in Algorithm 1).
type csEntry struct {
	lock   event.LID
	nAcq   vc.Clock
	reads  varSet
	writes varSet
}

// threadState is the per-thread component of the detector state.
type threadState struct {
	n       vc.Clock // Nt, the local clock
	incNext bool     // previous event was a release (or fork): bump Nt first
	p       vc.WC    // Pt, the WCP-predecessor clock
	h       vc.WC    // Ht, the HB clock; h[t] mirrors n
	// o is the program-order ancestry clock: what this thread inherited
	// through fork/join edges. Fork and join order events like thread
	// order does — a child cannot run before its fork — but that ordering
	// is NOT ≺WCP knowledge: it must reach the race check (through the
	// effective time Pt ⊔ Ot [t := Nt]) without ever entering Pt, exactly
	// as a thread's own Nt reaches Ct without entering Pt. Letting it into
	// Pt would leak pure program-order ancestry to other threads through
	// Pℓ and the queues as if it were WCP ordering.
	o vc.WC
	// eff caches the effective time (Pt ⊔ Ot)[t := Nt]; effOK marks it
	// current. Every mutation of p, o or n clears effOK.
	eff   vc.WC
	effOK bool
	// oZero is true while o adds nothing beyond p — (p ⊔ o) = p — letting
	// the fused race check skip the ⊔ Ot leg. Trivially true while o is
	// the ⊥ time (every thread of a trace with no fork/join edges), and
	// re-established after a fork/join once the thread's growing Pt
	// dominates its static ancestry clock: p only grows and o only changes
	// at fork/join events, so the property is sticky between them.
	oZero bool
	stack []csEntry
	// cacheR/cacheW are the per-thread rule-(a) join caches: the last
	// relPair whose Lr/Lw record was joined into Pt, with the record's
	// generation at the time. Pt only grows and relTimes generations bump
	// on every mutation, so a matching generation proves the earlier join
	// still dominates and the whole rule-(a) join collapses to one compare
	// — the overwhelmingly common case for the repeated accesses inside one
	// critical section.
	cacheR, cacheW       *relPair
	cacheRGen, cacheWGen uint32
}

// pushCS opens a critical section, reusing the storage (variable-set list
// and index) of a previously popped stack slot when one is available so
// steady-state lock nesting allocates nothing.
func (ts *threadState) pushCS(l event.LID, n vc.Clock) *csEntry {
	if len(ts.stack) < cap(ts.stack) {
		ts.stack = ts.stack[:len(ts.stack)+1]
		top := &ts.stack[len(ts.stack)-1]
		top.lock, top.nAcq = l, n
		top.reads.reset()
		top.writes.reset()
		return top
	}
	ts.stack = append(ts.stack, csEntry{lock: l, nAcq: n})
	return &ts.stack[len(ts.stack)-1]
}

// openDepth counts the open critical sections on l (reentrancy depth).
// Depth-1 locking — an empty stack, or a single-entry stack holding l —
// is resolved without scanning.
func (ts *threadState) openDepth(l event.LID) int {
	switch len(ts.stack) {
	case 0:
		return 0
	case 1:
		if ts.stack[0].lock == l {
			return 1
		}
		return 0
	}
	n := 0
	for i := range ts.stack {
		if ts.stack[i].lock == l {
			n++
		}
	}
	return n
}

// relTimes records the HB times of the rel(ℓ) events whose critical
// sections accessed a variable. Rule (a) only orders a release before a
// *conflicting* access — conflicting events are by different threads — so an
// access by thread t must join the contributions of every thread except t.
// (The paper's pseudocode elides this by writing Lr/Lw as plain clocks; the
// definition's conflict condition forces the exclusion.)
//
// Releases on one lock are H-monotone in trace order — every acquire joins
// Hℓ, so a later release's H dominates every earlier release's H on that
// lock regardless of thread. The latest contribution therefore subsumes all
// earlier ones, and the exclusion is answered exactly by the two latest
// contributions by *distinct* threads: a reader that is not the latest
// contributor joins the latest contribution; the latest contributor itself
// joins the runner-up, which dominates every other thread's contribution.
// Each contribution is a reference to its release's record in the lock's
// log (relRef), so publication writes one offset, not a clock; the
// access-side join reads the record's packed words in place.
type relTimes struct {
	ta, tb int32  // threads of the latest / second-latest distinct contributions
	a, b   relRef // their records; !a.present() means no contributions yet
	// gen bumps on every add; the per-thread join caches compare it to
	// prove an earlier join of this record is still current.
	gen uint32
}

// add records thread t's release, whose record r holds its H-time.
func (rt *relTimes) add(t int, r relRef) {
	rt.gen++
	if rt.a.present() && rt.ta != int32(t) {
		// New latest contributor: the previous latest becomes the runner-up,
		// dominating all older contributions.
		rt.b, rt.tb = rt.a, rt.ta
	}
	rt.a, rt.ta = r, int32(t)
}

// from returns the contribution reader joins, which covers every thread's
// but its own: the latest, or the runner-up when reader made the latest.
// An absent one joins nothing.
func (rt *relTimes) from(reader int) relRef {
	if rt.ta == int32(reader) {
		return rt.b
	}
	return rt.a
}

// joinRel joins the release time r references into dst, reporting whether
// dst changed; a reference below the log's base joins nothing. Width-3
// clocks are dense with a static window, so the width-3 unroll writes
// dst's storage raw and saves a call to WC.JoinPacked, which does not
// inline.
func joinRel(dst *vc.WC, r relRef, g *csLog, width int, dense bool) bool {
	p := int(r) - g.base
	if p < 0 {
		return false
	}
	if dense {
		w := g.buf[p+2 : p+2+width]
		if width == 3 {
			return join3(dst.VC(), w)
		}
		return dst.JoinPacked(w, 0, width, 0)
	}
	w, lo, hi, mask, _ := relAt(g.buf, p+2, width, false)
	return dst.JoinPacked(w, lo, hi, mask)
}

// join3 joins the three words of r into dv, reporting whether dv changed.
func join3(dv, r vc.VC) bool {
	dv, r = dv[:3], r[:3]
	changed := false
	if r[0] > dv[0] {
		dv[0] = r[0]
		changed = true
	}
	if r[1] > dv[1] {
		dv[1] = r[1]
		changed = true
	}
	if r[2] > dv[2] {
		dv[2] = r[2]
		changed = true
	}
	return changed
}

// varBit maps a variable to its bit in the per-lock accessed-variable masks.
func varBit(x event.VID) uint64 { return 1 << (uint32(x) & 63) }

// wideSpan mirrors vc.SpanScan: dirty spans at most this wide are scanned
// linearly, wider ones through the dirty bitmap.
const wideSpan = vc.SpanScan

// denseVarLimit is the variable-universe size up to which a lock's Lr/Lw
// tables index variables by a dense slice instead of a hash map. Hashing an
// int32 key costs more than the whole rule-(a) join at realistic thread
// counts, and per-lock slices of a few thousand records are cheap; traces
// with very large variable universes fall back to maps, as does any trace
// whose locks × vars product would make the per-lock tables add up
// (denseAccBudget bounds the worst-case total dense entries).
const (
	denseVarLimit  = 4096
	denseAccBudget = 1 << 21
)

// relPair is the rule-(a) state of one (lock, variable): the Lr record (r,
// releases whose sections read the variable) and the Lw record (w, sections
// that wrote it), adjacent so one lookup serves both.
type relPair struct {
	r relTimes
	w relTimes
}

// relIndex maps variables to their rule-(a) release-time records for one
// lock: densely by value for small variable universes (one indexed load,
// no per-record allocation), through a hash map otherwise. rMask/wMask
// summarize which variables have Lr/Lw entries (hashed into 64 bits), so
// the per-access lookup skips the index probe in the common no-entry case.
type relIndex struct {
	rMask uint64
	wMask uint64
	dense []relPair
	m     map[event.VID]*relPair
}

func (ri *relIndex) get(x event.VID) *relPair {
	if ri.dense != nil {
		return &ri.dense[x]
	}
	if ri.m != nil {
		return ri.m[x]
	}
	return nil
}

// getOrCreate returns the record pair for x, creating it (and the index
// itself on first use) as needed, and the bytes that creation added. nvars
// is the trace's variable-universe size, or <= 0 to force the map
// representation (large lock universes).
func (ri *relIndex) getOrCreate(x event.VID, nvars int) (*relPair, int) {
	grown := 0
	if ri.dense == nil && ri.m == nil {
		if nvars > 0 && nvars <= denseVarLimit {
			ri.dense = make([]relPair, nvars)
			grown = nvars * relPairB
		} else {
			ri.m = make(map[event.VID]*relPair)
		}
	}
	if ri.dense != nil {
		return &ri.dense[x], grown
	}
	rt := ri.m[x]
	if rt == nil {
		rt = &relPair{}
		ri.m[x] = rt
		grown = relPairB + mapEntryB
	}
	return rt, grown
}

// lockState is the per-lock component of the detector state, allocated on
// first use of the lock.
type lockState struct {
	pl vc.WC // Pℓ
	// hl is Hℓ: a reference to the lock's newest log record, whose H-time
	// the last release published.
	hl relRef
	// gen counts releases of ℓ; joinGen[t] is the value of gen when thread
	// t last absorbed (or produced) Hℓ/Pℓ. Together they form the
	// per-thread join cache: an acquire whose joinGen[t] still equals gen
	// skips the Hℓ/Pℓ joins in O(1) — the stored times are already ⊑ the
	// thread's clocks, which only grow. This subsumes the earlier
	// same-thread-reacquire (lastRelBy) fast path: a release records its
	// own thread as current.
	gen     uint32
	joinGen []uint32
	// acc holds the rule-(a) Lr/Lw records per variable.
	acc relIndex
	// log holds the (producer, acquire local clock, release H-time) records
	// of ℓ's critical sections, appended once per release; cons[t] holds
	// thread t's drain cursor over it — together they realize Algorithm 1's
	// Acqℓ(t) and Relℓ(t) queues, drained at t's releases of ℓ — and the
	// count of t's records in the log's settled run (see queue.go).
	log  csLog
	cons []consumer
	// own[t] holds t's own earlier critical sections on ℓ, for the
	// same-thread instance of rule (b): releases r1 <TO r2 on ℓ with
	// e1 ∈ CS(r1), e2 ∈ CS(r2), e1 ≺WCP e2 order r1 ≺WCP r2, which must
	// flow H(r1) into P(r2). By the P-invariant (Lemma C.8 applied to
	// t's own component), such an e1 exists iff Pt(t) has reached the
	// acquire time of CS(r1).
	own []ownQ
	// bytes is the lock's share of StateBytes (lockBytes), kept current
	// wherever one of its buffers changes capacity.
	bytes int
}

// varState is the per-variable race-checking state: r and w are Rx and Wx
// (race.Cell, whose Loc and Last go unused), and with pair tracking reads
// and writes hold one cell per program location, read only when the
// verdict is racy.
//
// A cell's time compares like the join of its accesses' effective times by
// the paper's single-component characterization (Lemma C.8: for
// cross-thread a <tr b, a ≤WCP b iff N(a) ≤ Cb(t(a))). In epoch form the
// accesses are totally ordered and the latest is pure — its thread's
// ancestry clock Ot added nothing beyond Pt (oZero) — so one compare
// against the current effective time decides. In vector form the clock
// holds the epoch component of every pure access, which by Lemma C.8
// compares exactly like that access's whole effective time, and the full
// effective time of every impure one, whose ancestry components the lemma
// does not characterize. The flagged events are therefore exactly those of
// a check against the joined effective times (pinned against the closure
// by TestWCPDefaultModeMatchesVectorCheck).
type varState struct {
	r, w          race.Cell
	reads, writes race.Cells
}

// Detector is the streaming WCP race detector. Create it with NewDetector,
// feed the trace's events in order as SoA blocks with ProcessBlock, then
// read the Result.
type Detector struct {
	opts    Options
	threads []threadState
	locks   []*lockState
	vars    []varState
	res     Result
	queued  int // current total queue entries (Algorithm 1 accounting)
	// held is a reusable scratch for the lock context of a race
	// observation, rebuilt from the CS stack only when a race is found.
	held []event.LID
	// denseVars is the variable count passed to relIndex.getOrCreate, or 0
	// when the locks × vars product exceeds denseAccBudget and per-lock
	// dense tables could add up to unreasonable memory.
	denseVars int
	// accCache enables the per-thread rule-(a) join caches: at tiny widths
	// the joins they skip are a handful of compares, so the cache
	// bookkeeping would be pure overhead.
	accCache bool
	// denseQ selects the fixed-stride queue-record layout: when every
	// clock is dense (tiny widths, ForceDense) the windowed record headers
	// would only double the drain's cache traffic for windows that are
	// always full.
	denseQ bool
	// joined marks threads some other thread has joined; dead marks joined
	// threads with no open critical sections, whose clocks are frozen
	// forever. Compaction (compact.go) drops dead threads' own-queues and
	// uses the remaining live threads' clocks as the domination floor for
	// retiring quiesced state.
	joined []bool
	dead   []bool
}

// NewDetector returns a detector for traces with the given numbers of
// threads, locks and variables (known up front, e.g. from a binary trace
// header or a prior counting pass).
func NewDetector(threads, locks, vars int, opts Options) *Detector {
	d := &Detector{
		opts:    opts,
		threads: make([]threadState, threads),
		locks:   make([]*lockState, locks),
		vars:    make([]varState, vars),
		joined:  make([]bool, threads),
		dead:    make([]bool, threads),
	}
	d.res.FirstRace = -1
	if locks == 0 || vars <= denseAccBudget/locks {
		d.denseVars = vars
	}
	d.accCache = threads > 8
	if opts.TrackPairs {
		d.res.Report = race.NewReport()
	}
	ps := vc.NewWCMatrix(threads, threads)
	d.denseQ = threads == 0 || ps[0].Dense()
	hs := vc.NewWCMatrix(threads, threads)
	os := vc.NewWCMatrix(threads, threads)
	effs := vc.NewWCMatrix(threads, threads)
	for t := range d.threads {
		ts := &d.threads[t]
		ts.n = 1
		ts.p = ps[t]
		ts.h = hs[t]
		ts.h.Set(t, 1)
		ts.o = os[t]
		ts.eff = effs[t]
		ts.oZero = true
	}
	return d
}

func (d *Detector) lock(l event.LID) *lockState {
	ls := d.locks[l]
	if ls == nil {
		n := len(d.threads)
		ls = &lockState{
			log:     newCSLog(),
			cons:    make([]consumer, n),
			own:     make([]ownQ, n),
			joinGen: make([]uint32, n),
		}
		for t := range ls.cons {
			ls.cons[t].off = ls.log.base
		}
		ls.bytes = d.lockBytes(ls)
		d.locks[l] = ls
	}
	return ls
}

// effectiveTime materializes (Pt ⊔ Ot)[t := Nt]: the WCP time extended with
// fork/join ancestry, for reported timestamps, compaction floors and
// FindRacePairs (the race check compares against it componentwise). The
// result is cached per thread and recomputed only after Pt, Ot or Nt
// changed. Callers must treat the returned clock as read-only; it stays
// valid until the thread's next clock mutation.
func (d *Detector) effectiveTime(t int) *vc.WC {
	ts := &d.threads[t]
	if !ts.effOK {
		ts.eff.Copy(&ts.p)
		ts.eff.Join(&ts.o)
		ts.eff.Set(t, ts.n)
		ts.effOK = true
	}
	return &ts.eff
}

// ProcessBlock feeds a structure-of-arrays block of events to the detector,
// the hot ingestion path: the dispatch loop reads the four dense field
// streams directly, and the event counter is maintained per block, not per
// event.
func (d *Detector) ProcessBlock(b *trace.Block) {
	kinds, threads, objs, locs := b.Kinds, b.Threads, b.Objs, b.Locs
	base := d.res.Events
	d.res.Events = base + len(kinds)
	for i, k := range kinds {
		d.stepAt(base+i, event.Kind(k), int(threads[i]), objs[i], event.Loc(locs[i]))
	}
}

// stepAt processes event number i given its unpacked fields. d.res.Events
// must already count the event.
func (d *Detector) stepAt(i int, kind event.Kind, t int, obj int32, loc event.Loc) {
	ts := &d.threads[t]
	if ts.incNext {
		ts.incNext = false
		ts.n++
		ts.h.Set(t, ts.n)
		ts.effOK = false
	}

	switch kind {
	case event.Acquire:
		d.acquire(t, event.LID(obj))
	case event.Release:
		d.release(t, event.LID(obj))
	case event.Read:
		d.read(t, event.VID(obj))
		d.check(i, t, event.VID(obj), loc, false)
	case event.Write:
		d.write(t, event.VID(obj))
		d.check(i, t, event.VID(obj), loc, true)
	case event.Fork:
		u := int(obj)
		us := &d.threads[u]
		// Fork is an HB edge: H and P flow to the child (P must stay
		// monotone along HB for rule (c) to compose through the fork).
		us.h.Join(&ts.h)
		us.h.Set(u, us.n)
		us.p.Join(&ts.p)
		// The parent's own local time is program-order ancestry, not WCP
		// knowledge: it goes to the child's O clock, never into P.
		us.o.Join(&ts.o)
		if ts.n > us.o.Get(t) {
			us.o.Set(t, ts.n)
		}
		us.effOK = false
		us.oZero = false
		// Segment the parent exactly as after a release so post-fork parent
		// events are not conflated with pre-fork ones in H.
		ts.incNext = true
	case event.Join:
		u := int(obj)
		us := &d.threads[u]
		ts.h.Join(&us.h)
		ts.h.Set(t, ts.n)
		ts.p.Join(&us.p)
		ts.o.Join(&us.o)
		if us.n > ts.o.Get(u) {
			ts.o.Set(u, us.n)
		}
		ts.effOK = false
		ts.oZero = false
		d.joined[u] = true
	}

	if d.opts.CollectTimestamps {
		d.res.Times = append(d.res.Times, d.effectiveTime(t).Clone())
		d.res.HBTimes = append(d.res.HBTimes, ts.h.Clone())
	}
}

// acquire implements procedure acquire(t, ℓ) of Algorithm 1.
//
// The queue-publication side (Line 3) is deferred: the acquire enters the
// other threads' queues only at the matching release, fused with the
// release's H-time, and all it takes along is the local clock nAcq on the
// critical-section stack slot — the one word of its C-time the rule-(b)
// check reads (see the package comment), so nothing is snapshotted here.
// Consumers cannot observe the deferral — they drain only at their own
// releases of ℓ, and critical sections on one lock never interleave — but
// the accounting still credits the T−1 Acqℓ entries here, so QueueMaxTotal
// reports Algorithm 1's queue sizes exactly.
func (d *Detector) acquire(t int, l event.LID) {
	ts := &d.threads[t]
	reentrant := ts.openDepth(l) > 0
	ts.pushCS(l, ts.n)
	if reentrant {
		return // reentrant: no synchronization effect
	}
	ls := d.lock(l)
	// Per-thread join cache: a matching generation proves this thread has
	// already absorbed (or itself produced) the lock's current Hℓ/Pℓ, whose
	// times are ⊑ its monotone clocks — the joins are skipped in O(1).
	if ls.joinGen[t] != ls.gen {
		ls.joinGen[t] = ls.gen
		if ls.hl.present() {
			// Lines 1 and 2.
			joinRel(&ts.h, ls.hl, &ls.log, len(d.threads), d.denseQ)
			if ts.p.Join(&ls.pl) {
				ts.effOK = false
			}
		}
	}
	if width := len(d.threads); width > 1 {
		d.queued += width - 1 // the deferred Acqℓ(t') entries, t' ≠ t
		if d.queued > d.res.QueueMaxTotal {
			d.res.QueueMaxTotal = d.queued
		}
	}
}

// release implements procedure release(t, ℓ, R, W) of Algorithm 1.
func (d *Detector) release(t int, l event.LID) {
	ts := &d.threads[t]
	n := len(ts.stack)
	if n == 0 || ts.stack[n-1].lock != l {
		return // outside §2.1: no open critical section for it to close
	}
	// entry aliases the top slot in place — no struct copy; the slot is
	// consumed (published and merged) and only truncated at the end,
	// before any push can reuse it.
	entry := &ts.stack[n-1]
	if ts.openDepth(l) > 1 {
		ts.mergeCS()
		ts.stack = ts.stack[:n-1]
		return // reentrant inner release: no synchronization effect
	}
	ls := d.lock(l)

	// Lines 4–6: rule (b). Drain critical sections of other threads whose
	// acquire time has become ⊑ Ct, absorbing the matching release's H time
	// into Pt. For a record of thread u the check is the one compare
	// nAcq ≤ Pt(u) (see the package comment). Interleaved with that, drain
	// the same-thread rule-(b) queue: an own critical section CS(r1)
	// applies once Pt(t) has reached its acquire time, i.e. some event of
	// CS(r1) WCP-precedes an event of the current section. Each pop grows
	// Pt, which can enable further pops from either queue, so iterate to a
	// fixpoint.
	width, dense := len(d.threads), d.denseQ
	c, myOwn, g := &ls.cons[t], &ls.own[t], &ls.log
	// A cursor behind the settled run takes the whole run in O(1); its
	// pops and its join ride into the first pop run below.
	last := -1
	if c.idx < g.settledN {
		var pops int
		last, pops = g.catchUp(c, t)
		d.queued -= 2 * pops
	}
	for {
		// Only a growth of Pt can unblock further records, so the fixpoint
		// re-iterates exactly when a drain join changed it.
		pChanged := false
		// Pop the run of applicable records. Releases on one lock are
		// H-monotone, so the last popped release time dominates the earlier
		// ones and the whole run is absorbed into Pt with a single join
		// when it ends (the join can unblock further records; the enclosing
		// fixpoint retries). Pt does not change during the run.
		pv := ts.p.VC()
		buf, off, pops, own := g.buf, c.off-g.base, 0, 0
		for off < len(buf) {
			// The consumer's own records are not part of its Acqℓ/Relℓ
			// queues (the same-thread rule drains through ownQ).
			if u := int(buf[off]); u != t {
				if buf[off+1] > pv[u] {
					break // the front record cannot advance yet
				}
				last = off
				pops++
			} else {
				own++
			}
			if dense {
				off += 2 + width
			} else {
				off += csHdr + int(buf[off+2])
			}
		}
		c.off, c.idx, c.own = g.base+off, c.idx+pops+own, c.own+own
		d.queued -= 2 * pops
		if last >= 0 {
			if r, lo, hi, mask, _ := relAt(buf, last+2, width, dense); ts.p.JoinPacked(r, lo, hi, mask) {
				ts.effOK = false
				pChanged = true
			}
			last = -1
		}
		// The own FIFO, whose entries join nothing once compaction dropped
		// their records.
		for q := myOwn; q.head < len(q.refs) && q.refs[q.head].nAcq <= ts.p.Get(t); {
			if joinRel(&ts.p, q.refs[q.head].rel, g, width, dense) {
				ts.effOK = false
				pChanged = true
			}
			q.pop()
			d.queued--
		}
		if !pChanged {
			break
		}
	}

	// Line 10, first half: the release's H-time is written once, as its
	// record in the lock's log; Hℓ, the rule-(a) slots and the own-queue
	// entry below refer to that record by its absolute offset ref.
	bc, at := cap(g.buf), 0
	g.buf, at = pushRecord(g.buf, t, entry.nAcq, &ts.h, dense)
	ls.bytes += (cap(g.buf) - bc) * clockB
	ref := relRef(g.base + at)

	// Lines 7–8: publish the HB time of this release for every variable
	// accessed inside the critical section (rule (a) state), keyed by the
	// releasing thread so readers can exclude their own contributions.
	nvars := d.denseVars
	if rl, wl := entry.reads.list, entry.writes.list; len(rl) == 1 && len(wl) == 1 && rl[0] == wl[0] {
		// The dominant shape — a critical section reading and writing one
		// variable — publishes both records through a single lookup.
		pair, grown := ls.acc.getOrCreate(rl[0], nvars)
		pair.r.add(t, ref)
		pair.w.add(t, ref)
		ls.bytes += grown
		b := varBit(rl[0])
		ls.acc.rMask |= b
		ls.acc.wMask |= b
	} else {
		for _, x := range rl {
			pair, grown := ls.acc.getOrCreate(x, nvars)
			pair.r.add(t, ref)
			ls.bytes += grown
			ls.acc.rMask |= varBit(x)
		}
		for _, x := range wl {
			pair, grown := ls.acc.getOrCreate(x, nvars)
			pair.w.add(t, ref)
			ls.bytes += grown
			ls.acc.wMask |= varBit(x)
		}
	}
	// Accesses inside this critical section also happened inside every
	// still-open enclosing critical section.
	ts.mergeCS()

	// Line 9: remember this release's H and P times for later acquires, and
	// bump the lock's generation: every consumer's join cache is now stale
	// except this thread's own (its times are the ones just stored).
	if !ls.pl.Ready() {
		ls.pl.Init(width)
		ls.bytes += width * clockB
	}
	if pl, pv := ls.pl.VC(), ts.p.VC(); len(pl) == 3 && len(pv) == 3 {
		// Dense raw write: static windows, and it saves a WC.Copy call.
		pl[0], pl[1], pl[2] = pv[0], pv[1], pv[2]
	} else {
		ls.pl.Copy(&ts.p)
	}
	ls.hl = ref
	ls.gen++
	ls.joinGen[t] = ls.gen

	// Line 10, second half (and the deferred Line 3): the record reaches
	// every other thread's queue through the log, and this thread's
	// same-thread rule-(b) queue as a reference. Pℓ is Pt now: settle the
	// records every later drain will pop.
	if g.settle(ls.cons, ts.p.VC(), width, dense) {
		g.compact()
	}
	d.queued += width - 1 // the Relℓ(t') entries, t' ≠ t
	ls.bytes += myOwn.push(entry.nAcq, ref)
	d.queued++
	if d.queued > d.res.QueueMaxTotal {
		d.res.QueueMaxTotal = d.queued
	}
	ts.stack = ts.stack[:n-1]
	// A release is a cheap, per-critical-section place to notice that the
	// thread's ancestry clock has been overtaken by its WCP clock; the
	// comparison scans only O's dirty window.
	if !ts.oZero && ts.o.LeqVC(ts.p.VC()) {
		ts.oZero = true
	}
	ts.incNext = true
}

// mergeCS folds the access sets of the innermost open critical section,
// which its release is closing (the caller truncates the stack after),
// into the enclosing one, if any.
func (ts *threadState) mergeCS() {
	if n := len(ts.stack); n > 1 {
		top, tgt := &ts.stack[n-1], &ts.stack[n-2]
		tgt.reads.addAll(&top.reads)
		tgt.writes.addAll(&top.writes)
	}
}

// read implements procedure read(t, x, L) of Algorithm 1 (Line 11). The
// per-thread join cache (threadState.cacheW) collapses the repeated rule-(a)
// joins of an unchanged Lw record — every access after the first inside one
// critical section — to a pointer-and-generation compare.
func (d *Detector) read(t int, x event.VID) {
	ts := &d.threads[t]
	if stack := ts.stack; len(stack) > 0 {
		bit, width, dense := varBit(x), len(d.threads), d.denseQ
		for k := range stack {
			if ls := d.locks[stack[k].lock]; ls != nil && ls.acc.wMask&bit != 0 {
				if pair := ls.acc.get(x); pair != nil {
					if d.accCache {
						if pair == ts.cacheW && pair.w.gen == ts.cacheWGen {
							continue // Pt already absorbed this record
						}
						ts.cacheW, ts.cacheWGen = pair, pair.w.gen
					}
					if joinRel(&ts.p, pair.w.from(t), &ls.log, width, dense) {
						ts.effOK = false
					}
				}
			}
		}
		stack[len(stack)-1].reads.add(x)
	}
}

// write implements procedure write(t, x, L) of Algorithm 1 (Line 12).
func (d *Detector) write(t int, x event.VID) {
	ts := &d.threads[t]
	if stack := ts.stack; len(stack) > 0 {
		bit, width, dense := varBit(x), len(d.threads), d.denseQ
		for k := range stack {
			if ls := d.locks[stack[k].lock]; ls != nil && (ls.acc.rMask|ls.acc.wMask)&bit != 0 {
				if pair := ls.acc.get(x); pair != nil {
					if d.accCache {
						if !(pair == ts.cacheR && pair.r.gen == ts.cacheRGen) {
							if joinRel(&ts.p, pair.r.from(t), &ls.log, width, dense) {
								ts.effOK = false
							}
							ts.cacheR, ts.cacheRGen = pair, pair.r.gen
						}
						if !(pair == ts.cacheW && pair.w.gen == ts.cacheWGen) {
							if joinRel(&ts.p, pair.w.from(t), &ls.log, width, dense) {
								ts.effOK = false
							}
							ts.cacheW, ts.cacheWGen = pair, pair.w.gen
						}
					} else {
						if joinRel(&ts.p, pair.r.from(t), &ls.log, width, dense) {
							ts.effOK = false
						}
						if joinRel(&ts.p, pair.w.from(t), &ls.log, width, dense) {
							ts.effOK = false
						}
					}
				}
			}
		}
		stack[len(stack)-1].writes.add(x)
	}
}

// leqEff reports v ⊑ (p ⊔ o)[t := n] in one pass, without materializing the
// effective time. oZero skips the ⊔ o leg (no fork/join ancestry). Only v's
// dirty window is scanned: components outside it are zero and trivially ⊑.
func leqEff(v, p, o *vc.WC, t int, n vc.Clock, oZero bool) bool {
	vv, pv := v.VC(), p.VC()
	if v.Dense() {
		if vv[t] > n {
			return false
		}
		pv = pv[:len(vv)]
		if oZero {
			if len(vv) == 3 {
				return !(vv[0] > pv[0] && t != 0) &&
					!(vv[1] > pv[1] && t != 1) &&
					!(vv[2] > pv[2] && t != 2)
			}
			for i, c := range vv {
				if c > pv[i] && i != t {
					return false
				}
			}
			return true
		}
		ov := o.VC()[:len(vv)]
		for i, c := range vv {
			limit := pv[i]
			if oc := ov[i]; oc > limit {
				limit = oc
			}
			if c > limit && i != t {
				return false
			}
		}
		return true
	}
	ov := o.VC()
	lo, hi := v.Span()
	if hi-lo <= wideSpan {
		return leqEffSpan(vv, pv, ov, lo, hi, t, n, oZero)
	}
	shift := v.ChunkShift()
	for m := v.Mask(); m != 0; m &= m - 1 {
		a, b := vc.BucketBounds(m, shift, lo, hi)
		if !leqEffSpan(vv, pv, ov, a, b, t, n, oZero) {
			return false
		}
	}
	return true
}

// leqEffSpan is leqEff restricted to components [lo,hi).
func leqEffSpan(vv, pv, ov vc.VC, lo, hi, t int, n vc.Clock, oZero bool) bool {
	for i := lo; i < hi; i++ {
		c := vv[i]
		if i == t {
			if c > n {
				return false
			}
			continue
		}
		limit := pv[i]
		if !oZero {
			if oc := ov[i]; oc > limit {
				limit = oc
			}
		}
		if c > limit {
			return false
		}
	}
	return true
}

// effComp returns component i of (p ⊔ o)[t := n] without materializing it.
func effComp(p, o *vc.WC, t int, n vc.Clock, oZero bool, i int) vc.Clock {
	if i == t {
		return n
	}
	c := p.VC()[i]
	if !oZero {
		if oc := o.VC()[i]; oc > c {
			c = oc
		}
	}
	return c
}

// check performs the race check of §3.2: for a read, Wx ⊑ Ce must hold; for
// a write, Rx ⊔ Wx ⊑ Ce must hold. Rx and Wx are cells (see varState), so
// each comparison is one clock compare while the variable's accesses stay
// ordered, and the effective time is never materialized. With pair
// tracking, a racy verdict scans the cells of the racing kinds for the
// partner locations, and every access updates its own cell.
func (d *Detector) check(i, t int, x event.VID, loc event.Loc, isWrite bool) {
	vs := &d.vars[x]
	racyW := !d.cellLeq(&vs.w, t)
	racyR := isWrite && !d.cellLeq(&vs.r, t)
	if racyW || racyR {
		d.res.RacyEvents++
		if d.res.FirstRace < 0 {
			d.res.FirstRace = i
		}
		if d.res.Report != nil {
			ctx := d.raceCtx(t, x)
			if racyW {
				d.recordRaces(&vs.writes, i, t, loc, ctx)
			}
			if racyR {
				d.recordRaces(&vs.reads, i, t, loc, ctx)
			}
		}
	}
	if isWrite {
		// A non-racy write is ordered after every earlier write, so it
		// dominates Wx and its own cell without a compare.
		d.recordCell(&vs.w, i, t, !racyW)
		if d.res.Report != nil {
			d.recordCell(vs.writes.At(loc), i, t, !racyW)
		}
		return
	}
	d.recordCell(&vs.r, i, t, false)
	if d.res.Report != nil {
		d.recordCell(vs.reads.At(loc), i, t, false)
	}
}

// cellLeq reports whether every access recorded in c is ordered before
// thread t's current effective time.
func (d *Detector) cellLeq(c *race.Cell, t int) bool {
	ts := &d.threads[t]
	if c.Ep != vc.NoEpoch {
		return c.Ep.Clock() <= effComp(&ts.p, &ts.o, t, ts.n, ts.oZero, c.Ep.TID())
	}
	return c.Vec == nil || leqEff(c.Vec, &ts.p, &ts.o, t, ts.n, ts.oZero)
}

// recordRaces reports the race of event i (thread t, location loc) with
// every cell of cells not ordered before it, in location order.
func (d *Detector) recordRaces(cells *race.Cells, i, t int, loc event.Loc, ctx race.Ctx) {
	list := cells.List()
	for k := range list {
		if c := &list[k]; !d.cellLeq(c, t) {
			d.res.Report.RecordCtx(c.Loc, loc, i, i-c.Last, ctx)
		}
	}
}

// recordCell adds event i, an access by thread t, to its location's cell.
// dominated says the caller already knows every earlier access in the cell
// is ordered before this one. A dominated cell collapses to this access:
// to its epoch when the access is pure, else to its full effective time.
// Otherwise the cell takes (or stays in) vector form and absorbs the
// access's epoch component, or its effective time when impure.
func (d *Detector) recordCell(c *race.Cell, i, t int, dominated bool) {
	ts := &d.threads[t]
	c.Last = i
	if ts.oZero && (dominated || d.cellLeq(c, t)) {
		c.Ep = vc.MakeEpoch(t, ts.n)
		return
	}
	v := c.Vector(len(d.threads))
	if !ts.oZero {
		v.JoinEff(&ts.p, &ts.o, t, ts.n, false)
	} else if ts.n > v.Get(t) {
		v.Set(t, ts.n)
	}
}

// raceCtx captures the fingerprint context of a race observed at thread t
// on variable x: the variable plus t's held locks, read off the critical-
// section stack into a reusable scratch (RecordCtx copies it only on a
// pair's first observation, so races stay cheap to re-observe).
func (d *Detector) raceCtx(t int, x event.VID) race.Ctx {
	d.held = d.held[:0]
	for j := range d.threads[t].stack {
		d.held = append(d.held, d.threads[t].stack[j].lock)
	}
	return race.Ctx{Var: x, Locks: d.held}
}

// Result returns the analysis outcome accumulated so far. The returned
// value shares state with the detector; read it after the last ProcessBlock.
func (d *Detector) Result() *Result { return &d.res }

// Detect runs the WCP detector over a whole trace with pair tracking.
func Detect(tr *trace.Trace) *Result {
	return DetectOpts(tr, Options{TrackPairs: true})
}

// DetectOpts runs the WCP detector over a whole trace, walking its
// structure-of-arrays view.
func DetectOpts(tr *trace.Trace, opts Options) *Result {
	d := NewDetector(tr.NumThreads(), tr.NumLocks(), tr.NumVars(), opts)
	d.ProcessBlock(tr.SoA())
	return d.Result()
}
