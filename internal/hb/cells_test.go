package hb

import (
	"testing"

	"repro/internal/race"
	"repro/internal/trace"
	"repro/internal/vc"
)

// stepper feeds a built trace to a fresh detector as one-event blocks, so
// a test can inspect the per-variable cells between events.
type stepper struct {
	t  *testing.T
	tr *trace.Trace
	d  *Detector
	i  int
}

func newStepper(t *testing.T, b *trace.Builder) *stepper {
	tr := b.MustBuild()
	return &stepper{t: t, tr: tr, d: NewDetector(tr.NumThreads(), tr.NumLocks(), tr.NumVars(), Options{TrackPairs: true})}
}

// to processes events up to and including index i.
func (s *stepper) to(i int) {
	for ; s.i <= i; s.i++ {
		s.d.ProcessBlock(trace.BlockOf(s.tr.Events[s.i : s.i+1]))
	}
}

// epochOf is the epoch of event i: its thread's clock when it ran.
func (s *stepper) epochOf(i int, c vc.Clock) vc.Epoch {
	return vc.MakeEpoch(int(s.tr.Events[i].Thread), c)
}

func vectorForm(c *race.Cell) bool { return c.Ep == vc.NoEpoch && c.Vec != nil }

// TestWxReArms: two unordered writes put Wx in vector form, and a later
// write that both happen before returns it to that write's epoch.
func TestWxReArms(t *testing.T) {
	b := trace.NewBuilder()
	b.Acquire("t1", "l").Write("t1", "x").Release("t1", "l") // 0-2
	b.Acquire("t2", "m").Write("t2", "x").Release("t2", "m") // 3-5: races with 1
	b.Acquire("t3", "l").Release("t3", "l")                  // 6-7
	b.Acquire("t3", "m").Release("t3", "m")                  // 8-9
	b.Write("t3", "x")                                       // 10: after both
	s := newStepper(t, b)
	w := &s.d.vars[s.tr.Events[1].Obj].w
	s.to(1)
	if w.Ep != s.epochOf(1, 1) {
		t.Fatalf("first write: Wx = %v, want epoch 1@t1", w.Ep)
	}
	s.to(4)
	if !vectorForm(w) || s.d.res.FirstRace != 4 {
		t.Fatalf("unordered writes: Wx epoch %v vec %v, first race %d; want vector form, race at 4",
			w.Ep, w.Vec, s.d.res.FirstRace)
	}
	s.to(10)
	if w.Ep != s.epochOf(10, s.d.ct[s.tr.Events[10].Thread].Get(int(s.tr.Events[10].Thread))) {
		t.Fatalf("dominating write: Wx = %v (vec %v), want the write's epoch", w.Ep, w.Vec)
	}
	if s.d.res.RacyEvents != 1 {
		t.Fatalf("racy events = %d, want 1", s.d.res.RacyEvents)
	}
}

// TestEpochReadShare: concurrent readers put Rx in vector form, a write
// racing with both is flagged and leaves it there, and a read that every
// earlier read happens before re-arms Rx to that read's epoch.
func TestEpochReadShare(t *testing.T) {
	b := trace.NewBuilder()
	b.Write("t1", "x")                  // 0: establish a writer
	b.Fork("t1", "t2").Fork("t1", "t3") // 1-2
	b.Read("t2", "x").Read("t3", "x")   // 3-4: concurrent readers
	b.Write("t1", "x")                  // 5: races with both reads
	b.Join("t1", "t2").Join("t1", "t3") // 6-7
	b.Read("t1", "x")                   // 8: after every read
	s := newStepper(t, b)
	r := &s.d.vars[s.tr.Events[0].Obj].r
	s.to(3)
	if r.Ep == vc.NoEpoch {
		t.Fatalf("single read: Rx in vector form, want an epoch")
	}
	s.to(4)
	if !vectorForm(r) {
		t.Fatalf("concurrent reads: Rx = %v, want vector form", r.Ep)
	}
	s.to(5)
	if s.d.res.RacyEvents != 1 || s.d.res.FirstRace != 5 || !vectorForm(r) {
		t.Fatalf("racing write: racy %d first %d, Rx epoch %v; want 1, 5, vector form",
			s.d.res.RacyEvents, s.d.res.FirstRace, r.Ep)
	}
	if got := s.d.res.Report.Distinct(); got != 2 {
		t.Fatalf("racing write reported %d pairs, want one per read location", got)
	}
	s.to(8)
	if want := s.epochOf(8, s.d.ct[s.tr.Events[8].Thread].Get(int(s.tr.Events[8].Thread))); r.Ep != want {
		t.Fatalf("read after every read: Rx = %v, want %v", r.Ep, want)
	}
	if s.d.res.RacyEvents != 1 {
		t.Fatalf("racy events = %d, want 1", s.d.res.RacyEvents)
	}
}
