package core_test

import (
	"fmt"
	"maps"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/gen"
	"repro/internal/trace"
	"repro/internal/vc"
)

// algo1 is a literal transcription of Algorithm 1 on dense clocks, with the
// repository's extensions to it: fork/join ancestry clocks Ot outside Pt,
// rule (a) joining only other threads' contributions, reentrant acquires as
// no-ops, and the same-thread rule-(b) queue of a thread's own critical
// sections. Every (lock, thread) pair has its own explicit FIFO queues of
// full acquire C-times and release H-times, drained with the O(T) head
// check acq ⊑ Ct and one join per popped record. None of the detector's
// work avoidance is here: no shared log, no settled run, no single join per
// pop run, no one-compare head, no windows.
type algo1 struct {
	width   int
	n       []vc.Clock
	incNext []bool
	p, h, o []vc.VC
	stack   [][]*a1CS
	locks   map[event.LID]*a1Lock
	// queued counts the entries of every Acqℓ(t), Relℓ(t) and own queue.
	queued, maxQueued int
}

// a1CS is one open critical section: its lock, the acquiring thread's local
// clock, whether it is reentrant, and the variables accessed inside it.
type a1CS struct {
	lock          event.LID
	nAcq          vc.Clock
	reentrant     bool
	reads, writes map[event.VID]bool
}

type a1Own struct {
	nAcq vc.Clock
	rel  vc.VC
}

type a1Lock struct {
	pl, hl   vc.VC                 // nil before the first release
	acq, rel [][]vc.VC             // Acqℓ(t), Relℓ(t)
	own      [][]a1Own             // t's own critical sections on ℓ
	lr, lw   map[event.VID][]vc.VC // per variable, per releasing thread
}

func newAlgo1(width int) *algo1 {
	a := &algo1{
		width:   width,
		n:       make([]vc.Clock, width),
		incNext: make([]bool, width),
		p:       make([]vc.VC, width),
		h:       make([]vc.VC, width),
		o:       make([]vc.VC, width),
		stack:   make([][]*a1CS, width),
		locks:   map[event.LID]*a1Lock{},
	}
	for t := 0; t < width; t++ {
		a.n[t] = 1
		a.p[t], a.h[t], a.o[t] = vc.New(width), vc.New(width), vc.New(width)
		a.h[t][t] = 1
	}
	return a
}

func (a *algo1) lock(l event.LID) *a1Lock {
	ls := a.locks[l]
	if ls == nil {
		ls = &a1Lock{
			acq: make([][]vc.VC, a.width),
			rel: make([][]vc.VC, a.width),
			own: make([][]a1Own, a.width),
			lr:  map[event.VID][]vc.VC{},
			lw:  map[event.VID][]vc.VC{},
		}
		a.locks[l] = ls
	}
	return ls
}

func (a *algo1) count(delta int) {
	a.queued += delta
	if a.queued > a.maxQueued {
		a.maxQueued = a.queued
	}
}

// ct returns thread t's C-time Pt[t := Nt].
func (a *algo1) ct(t int) vc.VC {
	c := a.p[t].Clone()
	c[t] = a.n[t]
	return c
}

// joinOthers joins into Pt every contribution of threads other than t.
func (a *algo1) joinOthers(t int, contrib []vc.VC) {
	for u, c := range contrib {
		if u != t && c != nil {
			a.p[t].Join(c)
		}
	}
}

// step processes one event and returns its C-time (Pt ⊔ Ot)[t := Nt] and
// its H-time.
func (a *algo1) step(tb testing.TB, e event.Event) (vc.VC, vc.VC) {
	t := int(e.Thread)
	if a.incNext[t] {
		a.incNext[t] = false
		a.n[t]++
		a.h[t][t] = a.n[t]
	}
	switch e.Kind {
	case event.Acquire:
		a.acquire(t, event.LID(e.Obj))
	case event.Release:
		a.release(tb, t, event.LID(e.Obj))
	case event.Read, event.Write:
		x := event.VID(e.Obj)
		for _, cs := range a.stack[t] {
			ls := a.lock(cs.lock)
			if e.Kind == event.Write {
				a.joinOthers(t, ls.lr[x])
			}
			a.joinOthers(t, ls.lw[x])
			if e.Kind == event.Write {
				cs.writes[x] = true
			} else {
				cs.reads[x] = true
			}
		}
	case event.Fork:
		u := int(e.Obj)
		a.h[u].Join(a.h[t])
		a.h[u][u] = a.n[u]
		a.p[u].Join(a.p[t])
		a.o[u].Join(a.o[t])
		a.o[u][t] = max(a.o[u][t], a.n[t])
		a.incNext[t] = true
	case event.Join:
		u := int(e.Obj)
		a.h[t].Join(a.h[u])
		a.h[t][t] = a.n[t]
		a.p[t].Join(a.p[u])
		a.o[t].Join(a.o[u])
		a.o[t][u] = max(a.o[t][u], a.n[u])
	}
	c := a.p[t].Clone()
	c.Join(a.o[t])
	c[t] = a.n[t]
	return c, a.h[t].Clone()
}

// acquire: Lines 1–3 — join Hℓ and Pℓ, then enqueue Ct into every other
// thread's Acqℓ queue.
func (a *algo1) acquire(t int, l event.LID) {
	cs := &a1CS{lock: l, nAcq: a.n[t], reads: map[event.VID]bool{}, writes: map[event.VID]bool{}}
	for _, open := range a.stack[t] {
		if open.lock == l {
			cs.reentrant = true
		}
	}
	a.stack[t] = append(a.stack[t], cs)
	if cs.reentrant {
		return
	}
	ls := a.lock(l)
	if ls.hl != nil {
		a.h[t].Join(ls.hl)
		a.p[t].Join(ls.pl)
	}
	c := a.ct(t)
	for u := 0; u < a.width; u++ {
		if u != t {
			ls.acq[u] = append(ls.acq[u], c)
		}
	}
	a.count(a.width - 1)
}

// release: Lines 4–10 plus the own-queue drain, to a fixpoint.
func (a *algo1) release(tb testing.TB, t int, l event.LID) {
	top := len(a.stack[t]) - 1
	if top < 0 || a.stack[t][top].lock != l {
		tb.Fatalf("oracle: release of %d by thread %d is not well nested", l, t)
	}
	cs := a.stack[t][top]
	a.stack[t] = a.stack[t][:top]
	if cs.reentrant {
		return
	}
	ls := a.lock(l)
	for changed := true; changed; {
		changed = false
		for len(ls.acq[t]) > 0 && ls.acq[t][0].Leq(a.ct(t)) {
			if a.p[t].JoinChanged(ls.rel[t][0]) {
				changed = true
			}
			ls.acq[t], ls.rel[t] = ls.acq[t][1:], ls.rel[t][1:]
			a.count(-2)
		}
		for len(ls.own[t]) > 0 && ls.own[t][0].nAcq <= a.p[t][t] {
			if a.p[t].JoinChanged(ls.own[t][0].rel) {
				changed = true
			}
			ls.own[t] = ls.own[t][1:]
			a.count(-1)
		}
	}
	publish := func(m map[event.VID][]vc.VC, vars map[event.VID]bool) {
		for x := range vars {
			if m[x] == nil {
				m[x] = make([]vc.VC, a.width)
			}
			if m[x][t] == nil {
				m[x][t] = vc.New(a.width)
			}
			m[x][t].Join(a.h[t])
		}
	}
	publish(ls.lr, cs.reads)
	publish(ls.lw, cs.writes)
	ls.pl, ls.hl = a.p[t].Clone(), a.h[t].Clone()
	for u := 0; u < a.width; u++ {
		if u != t {
			ls.rel[u] = append(ls.rel[u], a.h[t].Clone())
		}
	}
	ls.own[t] = append(ls.own[t], a1Own{nAcq: cs.nAcq, rel: a.h[t].Clone()})
	a.count(a.width - 1 + 1)
	a.incNext[t] = true
}

// namedTrace is one trace of the oracle's set.
type namedTrace struct {
	name string
	tr   *trace.Trace
}

// oracleTraces is the oracle's trace set: randomTraces, the windowed
// T ∈ {9, 10, 12} set, the three thread-scaling shapes at T = 16, long
// enough that their logs settle and compact, and the traces whose
// references outlive their log records (core.RefTraces).
func oracleTraces() []namedTrace {
	var traces []namedTrace
	for i, tr := range randomTraces(200, 64) {
		traces = append(traces, namedTrace{fmt.Sprintf("random/%d", i), tr})
	}
	for i, tr := range windowedTraces() {
		traces = append(traces, namedTrace{fmt.Sprintf("windowed/%d", i), tr})
	}
	for _, shape := range gen.ThreadScalingShapes {
		traces = append(traces, namedTrace{"scaling/" + shape, gen.ThreadScaling(gen.ThreadScalingConfig{
			Threads: 16, Events: 8000, Shape: shape, Races: 4,
		})})
	}
	refs := core.RefTraces()
	for _, name := range slices.Sorted(maps.Keys(refs)) {
		traces = append(traces, namedTrace{name, refs[name]})
	}
	return traces
}

// TestAlgorithm1Oracle pins the detector to the literal Algorithm 1: the
// per-event C-times and H-times and QueueMaxTotal must be equal. It is the
// only check of QueueMaxTotal against an independent implementation, and
// the one that sees the queue work avoidance (settled runs, single joins,
// one-compare heads, references into the logs) as a whole.
func TestAlgorithm1Oracle(t *testing.T) {
	for _, nt := range oracleTraces() {
		checkAlgorithm1(t, nt.name, nt.tr)
	}
}

// FuzzAlgorithm1Oracle runs checkAlgorithm1 on gen.Random traces the
// fuzzer configures: T from 2 to 20, 1–4 locks, 1–6 variables, up to 6,000
// events (enough for the logs to compact at T ≥ 9), with or without
// fork/join, and with per-access or shared locations.
func FuzzAlgorithm1Oracle(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(1), uint16(200), int64(1), false, uint8(0))
	f.Add(uint8(7), uint8(3), uint8(5), uint16(6000), int64(2), true, uint8(1))
	f.Add(uint8(10), uint8(0), uint8(2), uint16(5000), int64(3), false, uint8(2))
	f.Add(uint8(18), uint8(1), uint8(3), uint16(6000), int64(4), true, uint8(0))
	f.Fuzz(func(t *testing.T, threads, locks, vars uint8, events uint16, seed int64, forkJoin bool, locs uint8) {
		tr := gen.Random(gen.RandomConfig{
			Threads:   2 + int(threads)%19,
			Locks:     1 + int(locks)%4,
			Vars:      1 + int(vars)%6,
			Events:    int(events) % 6001,
			Seed:      seed,
			ForkJoin:  forkJoin,
			Locations: []int{0, 4, 8}[locs%3],
		})
		checkAlgorithm1(t, "fuzz", tr)
	})
}

// checkAlgorithm1 runs tr through the detector and through algo1, and
// requires equal per-event C-times and H-times and QueueMaxTotal.
func checkAlgorithm1(t *testing.T, name string, tr *trace.Trace) {
	t.Helper()
	res := core.DetectOpts(tr, core.Options{CollectTimestamps: true})
	a := newAlgo1(tr.NumThreads())
	for i, e := range tr.Events {
		c, h := a.step(t, e)
		if !c.Equal(res.Times[i]) || !h.Equal(res.HBTimes[i]) {
			t.Fatalf("%s: event %d (%s): detector C=%v H=%v, Algorithm 1 C=%v H=%v",
				name, i, tr.Describe(i), res.Times[i], res.HBTimes[i], c, h)
		}
	}
	if res.QueueMaxTotal != a.maxQueued {
		t.Fatalf("%s: QueueMaxTotal %d, Algorithm 1 %d", name, res.QueueMaxTotal, a.maxQueued)
	}
}
