// Package hb implements happens-before race detection (Definition 1): the
// classical linear-time vector-clock algorithm (Djit+ style), which the
// paper uses as its scalability baseline (§4, "HB is the simplest sound
// technique, and admits a fast linear time algorithm").
//
// Like the paper's RAPID implementation, the HB analysis here is NOT
// windowed: it sees the whole trace and therefore catches the far-apart
// event pairs that windowed tools miss (§4.3).
//
// The detector is streaming, mirroring the WCP detector in internal/core:
// create it with NewDetector (dimensions known up front, e.g. from a binary
// trace header), feed events in trace order with Process, then read the
// Result. Per-thread clocks live in one contiguous bank, so steady-state
// processing performs near-zero heap allocations per event.
//
// Each variable's read and write times Rx and Wx are the adaptive cells
// the WCP detector uses (race.Cell): one epoch while the accesses stay
// ordered, so the check is a single compare — FastTrack's optimisation,
// but exact — and a vector only while accesses are unordered, returning to
// an epoch as soon as an access follows every earlier one (see varState).
//
// It also shares the WCP detector's windowed-clock discipline (vc.WC):
// thread, lock and vector-form cell clocks carry dirty windows, so joins
// and comparisons touch only the components that can differ from zero —
// work proportional to how many threads actually communicated, not to the
// thread count. A per-lock join cache (release generation + per-thread
// last-joined generation) skips the acquire-side join when the thread has
// already absorbed the lock clock's current value.
package hb

import (
	"repro/internal/event"
	"repro/internal/race"
	"repro/internal/trace"
	"repro/internal/vc"
)

// Options configures the detector.
type Options struct {
	// TrackPairs enables distinct race-pair accounting per program-location
	// pair (Table 1 metric). The racy verdict is the same check as
	// without it; pair tracking adds one cell update per access and a scan
	// of the variable's cells for each racy event.
	TrackPairs bool
}

// Result is the outcome of an HB analysis.
type Result struct {
	// Report holds the distinct race pairs (nil unless Options.TrackPairs).
	Report *race.Report
	// RacyEvents counts events flagged as racing with an earlier access.
	RacyEvents int
	// FirstRace is the trace index of the first racy event, or -1.
	FirstRace int
	// Events is the number of events processed.
	Events int
}

// varState is the per-variable detector state: r and w are Rx and Wx
// (race.Cell, whose Loc and Last go unused), and with pair tracking reads
// and writes hold one cell per program location, read only when the
// verdict is racy. HB times compare by one component — for a <tr b,
// a ≤HB b iff H(a)[t(a)] ≤ H(b)[t(a)] — so an epoch-form cell is its
// latest access (t, H[t]) and a vector-form cell holds each access's own
// component, which compares exactly like the join of the accesses' HB
// times.
type varState struct {
	r, w          race.Cell
	reads, writes race.Cells
}

// hbLock is the per-lock state: the windowed clock of the last release
// plus the join cache — gen counts releases, joinGen[t] is the generation
// thread t last absorbed (or produced), so a matching generation skips the
// acquire-side join entirely (the thread's clock only grows).
type hbLock struct {
	c       vc.WC
	gen     uint32
	joinGen []uint32
}

// Detector is the streaming HB race detector.
type Detector struct {
	opts  Options
	width int
	ct    []vc.WC   // C_t: current HB time of thread t, one contiguous bank
	locks []*hbLock // L_ℓ: last-release state of ℓ, allocated on first use
	vars  []varState
	res   Result
	// held tracks each thread's currently-held locks, maintained only in
	// pair-tracking mode to supply the fingerprint context of race
	// observations (HB has no critical-section stack of its own).
	held [][]event.LID
	// joined marks threads some other thread has joined. In a well-formed
	// trace a joined thread emits no further events, so its clock is frozen
	// and compaction (compact.go) excludes it from the domination floor.
	joined []bool
}

// NewDetector returns a detector for traces with the given numbers of
// threads, locks and variables (known up front, e.g. from a binary trace
// header or a prior counting pass).
func NewDetector(threads, locks, vars int, opts Options) *Detector {
	d := &Detector{
		opts:   opts,
		width:  threads,
		ct:     vc.NewWCMatrix(threads, threads),
		locks:  make([]*hbLock, locks),
		vars:   make([]varState, vars),
		joined: make([]bool, threads),
	}
	d.res.FirstRace = -1
	if opts.TrackPairs {
		d.res.Report = race.NewReport()
		d.held = make([][]event.LID, threads)
	}
	for t := range d.ct {
		d.ct[t].Set(t, 1)
	}
	return d
}

func (d *Detector) flag(i int) {
	d.res.RacyEvents++
	if d.res.FirstRace < 0 {
		d.res.FirstRace = i
	}
}

// Process feeds the next event of the trace to the detector.
func (d *Detector) Process(e event.Event) {
	i := d.res.Events
	d.res.Events++
	d.stepAt(i, e.Kind, int(e.Thread), e.Obj, e.Loc)
}

// ProcessBlock feeds a structure-of-arrays block of events to the detector,
// the hot ingestion path: the dispatch loop reads the four dense field
// streams directly, and the event counter is maintained per block.
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
	switch kind {
	case event.Acquire:
		if d.held != nil {
			d.held[t] = append(d.held[t], event.LID(obj))
		}
		// Join cache: a matching generation proves this thread has already
		// absorbed (or produced) the lock clock's current value.
		if lk := d.locks[obj]; lk != nil && lk.joinGen[t] != lk.gen {
			d.ct[t].Join(&lk.c)
			lk.joinGen[t] = lk.gen
		}
	case event.Release:
		if h := d.held; h != nil && len(h[t]) > 0 {
			h[t] = h[t][:len(h[t])-1] // §2.1: the innermost held lock
		}
		lk := d.locks[obj]
		if lk == nil {
			lk = &hbLock{joinGen: make([]uint32, d.width)}
			lk.c.Init(d.width)
			d.locks[obj] = lk
		}
		lk.c.Copy(&d.ct[t])
		lk.gen++
		lk.joinGen[t] = lk.gen
		d.ct[t].Set(t, d.ct[t].Get(t)+1)
	case event.Fork:
		u := int(obj)
		d.ct[u].Join(&d.ct[t])
		d.ct[t].Set(t, d.ct[t].Get(t)+1)
	case event.Join:
		d.ct[t].Join(&d.ct[int(obj)])
		d.joined[int(obj)] = true
	case event.Read:
		d.read(i, t, event.VID(obj), loc)
	case event.Write:
		d.write(i, t, event.VID(obj), loc)
	}
}

func (d *Detector) read(i, t int, x event.VID, loc event.Loc) {
	vs := &d.vars[x]
	if !d.cellLeq(&vs.w, t) {
		d.flag(i)
		if d.res.Report != nil {
			d.recordRaces(&vs.writes, i, t, loc, x)
		}
	}
	d.recordCell(&vs.r, i, t, false)
	if d.res.Report != nil {
		d.recordCell(vs.reads.At(loc), i, t, false)
	}
}

func (d *Detector) write(i, t int, x event.VID, loc event.Loc) {
	vs := &d.vars[x]
	racyW := !d.cellLeq(&vs.w, t)
	racyR := !d.cellLeq(&vs.r, t)
	if racyW || racyR {
		d.flag(i)
		if d.res.Report != nil {
			if racyW {
				d.recordRaces(&vs.writes, i, t, loc, x)
			}
			if racyR {
				d.recordRaces(&vs.reads, i, t, loc, x)
			}
		}
	}
	// A non-racy write is ordered after every earlier write, so it
	// dominates Wx and its own cell without a compare.
	d.recordCell(&vs.w, i, t, !racyW)
	if d.res.Report != nil {
		d.recordCell(vs.writes.At(loc), i, t, !racyW)
	}
}

// cellLeq reports whether every access recorded in c happened before
// thread t's current time.
func (d *Detector) cellLeq(c *race.Cell, t int) bool {
	return c.LeqVC(d.ct[t].VC())
}

// recordRaces reports the race of event i (thread t, location loc,
// variable x) with every cell of cells not ordered before it, in
// location order.
func (d *Detector) recordRaces(cells *race.Cells, i, t int, loc event.Loc, x event.VID) {
	ctx := race.Ctx{Var: x, Locks: d.held[t]}
	list := cells.List()
	for k := range list {
		if c := &list[k]; !d.cellLeq(c, t) {
			d.res.Report.RecordCtx(c.Loc, loc, i, i-c.Last, ctx)
		}
	}
}

// recordCell adds event i, an access by thread t, to its location's cell.
// dominated says the caller already knows every earlier access in the cell
// happened before this one. A dominated cell collapses to this access's
// epoch; otherwise the cell takes (or stays in) vector form and absorbs
// the access's own component.
func (d *Detector) recordCell(c *race.Cell, i, t int, dominated bool) {
	c.Last = i
	n := d.ct[t].Get(t)
	if dominated || d.cellLeq(c, t) {
		c.Ep = vc.MakeEpoch(t, n)
		return
	}
	if v := c.Vector(d.width); n > v.Get(t) {
		v.Set(t, n)
	}
}

// Result returns the analysis outcome accumulated so far. The returned
// value shares state with the detector; read it after the last Process.
func (d *Detector) Result() *Result { return &d.res }

// Detect runs the full-vector-clock HB race detector over tr with race-pair
// tracking enabled.
func Detect(tr *trace.Trace) *Result {
	return DetectOpts(tr, Options{TrackPairs: true})
}

// DetectOpts runs the HB race detector over a whole trace, walking its
// structure-of-arrays view.
func DetectOpts(tr *trace.Trace, opts Options) *Result {
	d := NewDetector(tr.NumThreads(), tr.NumLocks(), tr.NumVars(), opts)
	d.ProcessBlock(tr.SoA())
	return d.Result()
}
