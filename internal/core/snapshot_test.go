package core

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/event"
	"repro/internal/gen"
	"repro/internal/snap"
	"repro/internal/vc"
)

// roundTrip encodes d into a framed snapshot and decodes it into a new
// detector.
func roundTrip(t *testing.T, d *Detector) (*Detector, error) {
	t.Helper()
	var buf bytes.Buffer
	w := snap.NewWriter(&buf)
	if err := d.EncodeSnapshot(w); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rd, err := snap.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return DecodeSnapshot(rd)
}

// liveDetector runs a lock-heavy random trace through a WCP detector of
// the given width, leaving records in its queue logs.
func liveDetector(t *testing.T, threads int) *Detector {
	t.Helper()
	tr := gen.Random(gen.RandomConfig{Threads: threads, Locks: 3, Vars: 6, Events: 3000, Seed: int64(threads)})
	d := NewDetector(tr.NumThreads(), tr.NumLocks(), tr.NumVars(), Options{})
	d.ProcessBlock(tr.SoA())
	if d.denseQ != (threads <= 8) {
		t.Fatalf("T=%d: denseQ=%v; the test expects the default record layout", threads, d.denseQ)
	}
	return d
}

// loggedLock returns a lock of d whose log holds at least one record, with
// its settled run emptied and every consumer cursor rewound to the log's
// first record, so that a tampered record fails only the record walk.
func loggedLock(t *testing.T, d *Detector) *lockState {
	t.Helper()
	for _, ls := range d.locks {
		if ls != nil && len(ls.log.buf) > 0 {
			g := &ls.log
			g.settledOff, g.settledN, g.last = g.base, 0, -1
			for i := range ls.cons {
				ls.cons[i] = consumer{off: g.base}
			}
			return ls
		}
	}
	t.Fatal("no lock has a queue record")
	return nil
}

// requireDecodeError requires a tampered detector's snapshot to be
// rejected with a *snap.DecodeError, after checking that the untampered
// detector round-trips.
func requireDecodeError(t *testing.T, d *Detector, tamper func(*lockState)) {
	t.Helper()
	ls := loggedLock(t, d)
	if _, err := roundTrip(t, d); err != nil {
		t.Fatalf("untampered snapshot rejected: %v", err)
	}
	tamper(ls)
	_, err := roundTrip(t, d)
	var de *snap.DecodeError
	if !errors.As(err, &de) {
		t.Fatalf("tampered queue log decoded with err=%v, want *snap.DecodeError", err)
	}
}

// TestDecodeRejectsOversizedRecordWords: a windowed record (T=16) whose
// release word count runs past the buffer. The lock's next release would
// slice the record past its end.
func TestDecodeRejectsOversizedRecordWords(t *testing.T) {
	requireDecodeError(t, liveDetector(t, 16), func(ls *lockState) {
		ls.log.buf[2] = 1 << 20
	})
}

// TestDecodeRejectsShortFixedStrideLog: a fixed-stride log (T=3) one word
// short of a [producer, nAcq, rel×3] record, whose nAcq is zero so a drain
// would accept the record and slice its release words past the end.
func TestDecodeRejectsShortFixedStrideLog(t *testing.T) {
	requireDecodeError(t, liveDetector(t, 3), func(ls *lockState) {
		const width = 3
		rec := ls.log.buf[:2+width-1]
		rec[1] = 0
		ls.log.buf = rec
	})
}

// TestDecodeRejectsEpochThreadOutOfRange: an epoch naming a thread past
// the width would index past the first clock it is compared with, in the
// variable's Wx or in a location cell.
func TestDecodeRejectsEpochThreadOutOfRange(t *testing.T) {
	tr := gen.Random(gen.RandomConfig{Threads: 4, Locks: 2, Vars: 4, Events: 500, Seed: 4})
	for _, opts := range []Options{{}, {TrackPairs: true}} {
		d := NewDetector(tr.NumThreads(), tr.NumLocks(), tr.NumVars(), opts)
		d.ProcessBlock(tr.SoA())
		if _, err := roundTrip(t, d); err != nil {
			t.Fatalf("%+v: untampered snapshot rejected: %v", opts, err)
		}
		bad := vc.MakeEpoch(tr.NumThreads(), 1)
		if opts.TrackPairs {
			d.vars[0].writes.List()[0].Ep = bad
		} else {
			d.vars[0].w.Ep = bad
		}
		var de *snap.DecodeError
		if _, err := roundTrip(t, d); !errors.As(err, &de) {
			t.Fatalf("%+v: epoch of thread %d decoded with err=%v, want *snap.DecodeError", opts, bad.TID(), err)
		}
	}
}

// settledLock returns a lock of d whose settled run holds records of at
// least two producers, with every cursor rewound to record 0: behind the
// run, where decode checks only counts.
func settledLock(t *testing.T, d *Detector) *lockState {
	t.Helper()
	for _, ls := range d.locks {
		if ls != nil && ls.log.settledN > extremeSettled(ls, 1).settled {
			for i := range ls.cons {
				ls.cons[i].off, ls.cons[i].idx, ls.cons[i].own = 0, 0, 0
			}
			return ls
		}
	}
	t.Fatal("no lock has settled records of two producers")
	return nil
}

// settledTampers are the settled-run states decode must reject, each
// caught by exactly one of its checks.
var settledTampers = []struct {
	name   string
	tamper func(ls *lockState, width int)
}{
	{"settled offset off a record boundary", func(ls *lockState, _ int) {
		ls.log.settledOff++
	}},
	{"settled offset outside the log", func(ls *lockState, _ int) {
		ls.log.settledOff = ls.log.base + len(ls.log.buf) + 1
	}},
	{"settled count without kept records", func(ls *lockState, _ int) {
		ls.log.settledOff = ls.log.base
	}},
	{"per-producer counts off the settled count", func(ls *lockState, _ int) {
		ls.cons[ls.log.buf[ls.log.last-ls.log.base]].settled++
	}},
	{"own records before a cursor past the producer's settled count", func(ls *lockState, _ int) {
		c := extremeSettled(ls, -1)
		c.own = c.settled + 1
		c.idx = c.own
	}},
	{"foreign records before a cursor past the settled run's", func(ls *lockState, _ int) {
		c := extremeSettled(ls, 1)
		c.idx = ls.log.settledN - c.settled + 1
	}},
	{"own count of a cursor in the tail", func(ls *lockState, _ int) {
		c := extremeSettled(ls, -1)
		c.idx, c.own = ls.log.settledN, c.settled+1
	}},
}

// extremeSettled returns the consumer with the fewest (sign < 0) or the
// most (sign > 0) settled records.
func extremeSettled(ls *lockState, sign int) *consumer {
	m := &ls.cons[0]
	for i := range ls.cons {
		if sign*(ls.cons[i].settled-m.settled) > 0 {
			m = &ls.cons[i]
		}
	}
	return m
}

// holderLock returns a lock of d with an own-queue entry and a rule-(a)
// contribution whose records are both in the lock's log, with the entry's
// thread and the contribution.
func holderLock(t *testing.T, d *Detector) (*lockState, int, *ownRef, *relTimes) {
	t.Helper()
	for _, ls := range d.locks {
		if ls == nil {
			continue
		}
		var rt *relTimes
		for x := range ls.acc.dense {
			if p := &ls.acc.dense[x]; int(p.w.a) >= ls.log.base {
				rt = &p.w
			}
		}
		for th := range ls.own {
			q := &ls.own[th]
			for i := q.head; i < len(q.refs) && rt != nil; i++ {
				if int(q.refs[i].rel) >= ls.log.base {
					return ls, th, &q.refs[i], rt
				}
			}
		}
	}
	t.Fatal("no lock has an own entry and a rule-(a) contribution in its log")
	return nil, 0, nil, nil
}

// recordNotBy returns the offset of a record in ls's log whose producer is
// not u.
func recordNotBy(t *testing.T, d *Detector, ls *lockState, u int) relRef {
	t.Helper()
	g := &ls.log
	for off := 0; off < len(g.buf); off += recLen(g.buf, off, len(d.threads), d.denseQ) {
		if int(g.buf[off]) != u {
			return relRef(g.base + off)
		}
	}
	t.Fatalf("every record is thread %d's", u)
	return 0
}

// holderTampers are the holder states decode must reject.
var holderTampers = []struct {
	name   string
	tamper func(t *testing.T, d *Detector)
}{
	{"own entry off a record start", func(t *testing.T, d *Detector) {
		_, _, e, _ := holderLock(t, d)
		e.rel++
	}},
	{"own entry past the log", func(t *testing.T, d *Detector) {
		ls, _, e, _ := holderLock(t, d)
		e.rel = relRef(ls.log.base + len(ls.log.buf))
	}},
	{"own entry naming another thread's record", func(t *testing.T, d *Detector) {
		// The queue's only entry, with the record's own nAcq.
		ls, th, _, _ := holderLock(t, d)
		r := recordNotBy(t, d, ls, th)
		ls.own[th] = ownQ{refs: []ownRef{{ls.log.buf[int(r)-ls.log.base+1], r}}}
	}},
	{"own entry with a different nAcq", func(t *testing.T, d *Detector) {
		_, _, e, _ := holderLock(t, d)
		e.nAcq++
	}},
	{"rule-(a) contribution off a record start", func(t *testing.T, d *Detector) {
		_, _, _, rt := holderLock(t, d)
		rt.a++
	}},
	{"rule-(a) contribution naming another thread's record", func(t *testing.T, d *Detector) {
		// Without a runner-up, which must precede it.
		ls, _, _, rt := holderLock(t, d)
		rt.a, rt.b = recordNotBy(t, d, ls, int(rt.ta)), 0
	}},
	{"Hℓ on an empty log", func(t *testing.T, d *Detector) {
		ls, _, _, _ := holderLock(t, d)
		ls.log = newCSLog()
		for th := range ls.cons {
			ls.cons[th] = consumer{off: ls.log.base}
			ls.own[th] = ownQ{}
		}
		ls.acc = relIndex{}
	}},
}

// mutateHolder points one holder of ls at an offset around its log's
// records, changes an own entry's nAcq or a contribution's thread, or drops
// Hℓ.
func mutateHolder(rng *rand.Rand, ls *lockState, threads int, special []vc.Clock) {
	off := func() relRef {
		if rng.Intn(4) == 0 {
			return relRef(special[rng.Intn(len(special))])
		}
		return relRef(ls.log.base + rng.Intn(len(ls.log.buf)+3) - 1)
	}
	switch rng.Intn(4) {
	case 0:
		if q := &ls.own[rng.Intn(threads)]; !q.empty() {
			e := &q.refs[q.head+rng.Intn(len(q.refs)-q.head)]
			if rng.Intn(2) == 0 {
				e.rel = off()
			} else {
				e.nAcq = special[rng.Intn(len(special))]
			}
		}
	case 1, 2:
		for x := range ls.acc.dense {
			rt := &ls.acc.dense[x].r
			if rng.Intn(2) == 0 {
				rt = &ls.acc.dense[x].w
			}
			if !rt.a.present() || rng.Intn(3) > 0 {
				continue
			}
			switch rng.Intn(4) {
			case 0:
				rt.a = off()
			case 1:
				rt.b = off()
			case 2:
				rt.ta = int32(rng.Intn(threads+2) - 1)
			default:
				rt.tb = int32(rng.Intn(threads+2) - 1)
			}
			return
		}
	default:
		ls.hl = 0
	}
}

// TestDecodeQueueMutations mutates the csLog words of live T=3
// (fixed-stride) and T=16 (windowed) detectors — overwritten words,
// dropped and appended tails — their settled runs and cursors, and the
// holders that reference the log: own-queue entries, rule-(a)
// contributions and Hℓ. Each settledTampers and holderTampers state must
// be rejected with a *snap.DecodeError. Beyond those, decode must reject a
// mutation with a *snap.DecodeError or accept it, and an accepted detector
// must survive an acquire/release round by every thread on every lock.
func TestDecodeQueueMutations(t *testing.T) {
	for _, threads := range []int{3, 16} {
		live := liveDetector(t, threads)
		for _, tc := range holderTampers {
			d, err := roundTrip(t, live)
			if err != nil {
				t.Fatalf("T=%d: live snapshot rejected: %v", threads, err)
			}
			tc.tamper(t, d)
			var de *snap.DecodeError
			if _, err := roundTrip(t, d); !errors.As(err, &de) {
				t.Fatalf("T=%d: %s: decoded with err=%v, want *snap.DecodeError", threads, tc.name, err)
			}
		}
		for _, tc := range settledTampers {
			d, err := roundTrip(t, live)
			if err != nil {
				t.Fatalf("T=%d: live snapshot rejected: %v", threads, err)
			}
			ls := settledLock(t, d)
			if _, err := roundTrip(t, d); err != nil {
				t.Fatalf("T=%d: rewound snapshot rejected: %v", threads, err)
			}
			tc.tamper(ls, threads)
			var de *snap.DecodeError
			if _, err := roundTrip(t, d); !errors.As(err, &de) {
				t.Fatalf("T=%d: %s: decoded with err=%v, want *snap.DecodeError", threads, tc.name, err)
			}
		}
		rng := rand.New(rand.NewSource(int64(threads)))
		special := []vc.Clock{0, 1, -1, -2, vc.Clock(threads - 1), vc.Clock(threads), vc.Clock(threads + 1),
			1 << 15, 1 << 20, math.MaxInt32, math.MinInt32}
		accepted, rejected := 0, 0
		for iter := 0; iter < 600; iter++ {
			d, err := roundTrip(t, live)
			if err != nil {
				t.Fatalf("T=%d: live snapshot rejected: %v", threads, err)
			}
			ls := d.locks[rng.Intn(len(d.locks))]
			if ls == nil {
				continue
			}
			buf := &ls.log.buf
			switch rng.Intn(3) {
			case 0:
				// A settled-run or cursor field instead of words: nudged,
				// or set to a special value; the word mutations below then
				// hit a scratch buffer.
				c := &ls.cons[rng.Intn(threads)]
				fields := []*int{&ls.log.settledOff, &ls.log.settledN, &c.settled, &c.idx, &c.own}
				for n := 1 + rng.Intn(2); n > 0; n-- {
					f := fields[rng.Intn(len(fields))]
					if rng.Intn(2) == 0 {
						*f += rng.Intn(7) - 3
					} else {
						*f = int(special[rng.Intn(len(special))])
					}
				}
				buf = new([]vc.Clock)
			case 1:
				// A holder instead of words.
				mutateHolder(rng, ls, threads, special)
				buf = new([]vc.Clock)
			}
			for n := 1 + rng.Intn(3); n > 0; n-- {
				switch op := rng.Intn(4); {
				case op < 2 && len(*buf) > 0:
					v := special[rng.Intn(len(special))]
					if op == 1 {
						v = vc.Clock(rng.Int31n(4*int32(threads)+8) - 4)
					}
					(*buf)[rng.Intn(len(*buf))] = v
				case op == 2 && len(*buf) > 0:
					*buf = (*buf)[:len(*buf)-1-rng.Intn(min(len(*buf), 2*threads))]
				default:
					for k := rng.Intn(2 * threads); k >= 0; k-- {
						*buf = append(*buf, vc.Clock(rng.Int31n(int32(threads)+2)))
					}
				}
			}
			got, err := roundTrip(t, d)
			if err != nil {
				var de *snap.DecodeError
				if !errors.As(err, &de) {
					t.Fatalf("T=%d iter %d: untyped decode failure: %v", threads, iter, err)
				}
				rejected++
				continue
			}
			accepted++
			for l := range got.locks {
				for th := 0; th < threads; th++ {
					got.Process(event.Event{Kind: event.Acquire, Thread: event.TID(th), Obj: int32(l)})
					got.Process(event.Event{Kind: event.Release, Thread: event.TID(th), Obj: int32(l)})
				}
			}
		}
		if accepted == 0 || rejected == 0 {
			t.Fatalf("T=%d: %d accepted, %d rejected; the mutations exercise only one side", threads, accepted, rejected)
		}
	}
}
