package core_test

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/event"
	"repro/internal/gen"
	"repro/internal/trace"
	"repro/internal/trace/tracetest"
	"repro/internal/vc"
)

// TestNoRaceOnProtected checks the basic negative case.
func TestNoRaceOnProtected(t *testing.T) {
	b := trace.NewBuilder()
	for i := 0; i < 4; i++ {
		b.CriticalSection("t1", "l", func(b *trace.Builder) {
			b.Read("t1", "x")
			b.Write("t1", "x")
		})
		b.CriticalSection("t2", "l", func(b *trace.Builder) {
			b.Read("t2", "x")
			b.Write("t2", "x")
		})
	}
	res := core.Detect(b.MustBuild())
	if res.RacyEvents != 0 || res.FirstRace != -1 {
		t.Errorf("racy=%d first=%d", res.RacyEvents, res.FirstRace)
	}
}

// TestReadWriteAsymmetry: a read only races with writes; writes race with
// both.
func TestReadWriteAsymmetry(t *testing.T) {
	b := trace.NewBuilder()
	b.At("r1").Read("t1", "x")
	b.At("r2").Read("t2", "x") // read-read: no race
	b.At("w1").Write("t3", "x")
	tr := b.MustBuild()
	res := core.Detect(tr)
	if res.Report.Distinct() != 2 {
		t.Fatalf("pairs = %d, want 2 (w1 races with both reads)\n%s",
			res.Report.Distinct(), res.Report.Format(tr.Symbols))
	}
	if res.Report.Has(tr.Symbols.Location("r1"), tr.Symbols.Location("r2")) {
		t.Error("read-read pair reported")
	}
}

// TestReentrantLocking: same-lock nested acquisition is a synchronization
// no-op but the trace still analyzes correctly.
func TestReentrantLocking(t *testing.T) {
	b := trace.NewBuilder()
	b.Acquire("t1", "l")
	b.Acquire("t1", "l") // reentrant
	b.Write("t1", "x")
	b.Release("t1", "l")
	b.Write("t1", "y")
	b.Release("t1", "l")
	b.Acquire("t2", "l")
	b.Read("t2", "x") // ordered after w(x) by rule (a)
	b.Read("t2", "y")
	b.Release("t2", "l")
	tr := b.MustBuild()
	res := core.Detect(tr)
	if res.RacyEvents != 0 {
		t.Errorf("reentrant trace flagged %d racy events\n%s",
			res.RacyEvents, res.Report.Format(tr.Symbols))
	}
}

// TestUnvalidatedInputTolerance: Detect and Engine.Analyze on an
// in-memory trace sit outside the input contract — every streamed and
// loaded entry rejects an ill-formed trace before a detector sees it
// (trace.Checker) — so on such a trace the detectors promise only to stay
// deterministic and not to panic. The shapes are the ones whose fallbacks
// the detectors no longer carry: a release with no acquire, a release out
// of nesting order and two holders of one lock, each followed by well-
// formed sections on the same lock, plus every tracetest shape inside the
// trace's universe. Each runs through wcp and hb straight through, and
// with a Compact and a snapshot/restore between every two events.
func TestUnvalidatedInputTolerance(t *testing.T) {
	traces := map[string]*trace.Trace{}
	for name, prefix := range map[string]func(b *trace.Builder){
		"release with no acquire": func(b *trace.Builder) {
			b.Release("t1", "l")
		},
		"release out of nesting order": func(b *trace.Builder) {
			b.Acquire("t1", "l")
			b.Acquire("t1", "m")
			b.Write("t1", "x")
			b.Release("t1", "l")
			b.Release("t1", "m")
		},
		"two holders": func(b *trace.Builder) {
			b.Acquire("t1", "l")
			b.Write("t1", "x")
			b.Acquire("t2", "l")
			b.Write("t2", "x")
			b.Release("t1", "l")
			b.Release("t2", "l")
		},
	} {
		b := trace.NewBuilder()
		prefix(b)
		for i := 0; i < 12; i++ {
			th := []string{"t1", "t2", "t3"}[i%3]
			b.Acquire(th, "l")
			b.Write(th, "x")
			b.Release(th, "l")
			b.Read(th, "x")
		}
		traces[name] = b.Build()
	}
	for _, s := range tracetest.IllFormedTraces() {
		if s.Name != "id beyond the universe" {
			traces["tracetest/"+s.Name] = s.Trace
		}
	}
	for name, tr := range traces {
		for _, e := range []engine.Engine{engine.MustNew("wcp", engine.Config{}), engine.MustNew("hb", engine.Config{})} {
			if got, again := e.Analyze(tr), e.Analyze(tr); got.Summary != again.Summary ||
				got.Report.Format(tr.Symbols) != again.Report.Format(tr.Symbols) {
				t.Errorf("%s, %s: two runs differ", name, e.Name())
			}
			s := e.(engine.SessionEngine).NewSession(tr.NumThreads(), tr.NumLocks(), tr.NumVars())
			for i, ev := range tr.Events {
				s.ProcessBlock(trace.BlockOf([]event.Event{ev}))
				s.(engine.CompactableSession).Compact()
				var buf bytes.Buffer
				if err := s.(engine.SnapshotSession).Snapshot(&buf); err != nil {
					t.Fatalf("%s, %s: snapshot after event %d: %v", name, e.Name(), i, err)
				}
				var err error
				if s, _, err = engine.RestoreSession(&buf); err != nil {
					t.Fatalf("%s, %s: restore after event %d: %v", name, e.Name(), i, err)
				}
			}
			if res := s.Finish(); res.Report == nil {
				t.Errorf("%s, %s: no report", name, e.Name())
			}
		}
	}
}

// TestCollectTimestamps checks the per-event clock collection used by the
// Theorem-2 tests.
func TestCollectTimestamps(t *testing.T) {
	tr := gen.Figure2b()
	res := core.DetectOpts(tr, core.Options{CollectTimestamps: true})
	if len(res.Times) != tr.Len() || len(res.HBTimes) != tr.Len() {
		t.Fatalf("times: %d/%d for %d events", len(res.Times), len(res.HBTimes), tr.Len())
	}
	for i, c := range res.Times {
		if !c.Leq(res.HBTimes[i]) {
			t.Errorf("event %d: Ce ⋢ He (violates Lemma C.4): %v vs %v", i, c, res.HBTimes[i])
		}
	}
	// Same-thread monotonicity of C.
	last := map[int]vc.VC{}
	for i, e := range tr.Events {
		if prev, ok := last[int(e.Thread)]; ok && !prev.Leq(res.Times[i]) {
			t.Errorf("event %d: C not monotone along thread order", i)
		}
		last[int(e.Thread)] = res.Times[i]
	}
}

// TestQueueAccountingSmall pins down the queue bookkeeping on a trace small
// enough to count by hand: a single critical section by t1 enqueues its
// acquire and release times into t2's queues (2 entries) plus t1's own
// same-thread queue (1 entry); nothing drains.
func TestQueueAccountingSmall(t *testing.T) {
	b := trace.NewBuilder()
	b.Acquire("t1", "l")
	b.Release("t1", "l")
	b.Write("t2", "x") // force t2 to exist
	tr := b.MustBuild()
	res := core.Detect(tr)
	if res.QueueMaxTotal != 3 {
		t.Errorf("queue max = %d, want 3 (acq+rel to t2, own-CS entry)", res.QueueMaxTotal)
	}
	if res.QueueMaxFraction() <= 0 {
		t.Error("fraction should be positive")
	}
	empty := &core.Result{}
	if empty.QueueMaxFraction() != 0 {
		t.Error("empty result fraction should be 0")
	}
}

// TestQueueDrain checks that conflicting critical sections drain the
// rule-(b) queues: after many contended rounds the high-water mark stays
// far below the enqueue volume.
func TestQueueDrain(t *testing.T) {
	b := trace.NewBuilder()
	rounds := 200
	for i := 0; i < rounds; i++ {
		for _, th := range []string{"t1", "t2", "t3"} {
			b.CriticalSection(th, "l", func(b *trace.Builder) {
				b.Read(th, "x")
				b.Write(th, "x")
			})
		}
	}
	res := core.Detect(b.MustBuild())
	// Enqueue volume is ~6 entries per critical section × 600 sections;
	// with draining the high-water mark must stay bounded by a few rounds.
	if res.QueueMaxTotal > 100 {
		t.Errorf("queue high-water = %d; draining broken", res.QueueMaxTotal)
	}
}

// TestDistinctPairsAcrossLocations: one variable, racy accesses from three
// distinct locations give three distinct pairs.
func TestDistinctPairsAcrossLocations(t *testing.T) {
	b := trace.NewBuilder()
	b.At("w1").Write("t1", "x")
	b.At("w2").Write("t2", "x")
	b.At("w3").Write("t3", "x")
	tr := b.MustBuild()
	res := core.Detect(tr)
	if res.Report.Distinct() != 3 {
		t.Errorf("pairs = %d, want 3\n%s", res.Report.Distinct(), res.Report.Format(tr.Symbols))
	}
	// Repeating the same racing locations must not add pairs.
	b2 := trace.NewBuilder()
	for i := 0; i < 5; i++ {
		b2.At("w1").Write("t1", "x")
		b2.At("w2").Write("t2", "x")
	}
	res2 := core.Detect(b2.MustBuild())
	if res2.Report.Distinct() != 1 {
		t.Errorf("repeated pairs = %d, want 1", res2.Report.Distinct())
	}
	if res2.RacyEvents < 5 {
		t.Errorf("racy events = %d, want ≥ 5", res2.RacyEvents)
	}
}

// TestNoPairsMode checks the cheap mode agrees with the full mode on
// existence and first race.
func TestNoPairsMode(t *testing.T) {
	for _, name := range []string{"account", "moldyn", "raytracer"} {
		bench, _ := gen.ByName(name)
		tr := bench.Generate(1.0)
		full := core.Detect(tr)
		cheap := core.DetectOpts(tr, core.Options{})
		if cheap.Report != nil {
			t.Error("cheap mode allocated a report")
		}
		if (full.RacyEvents > 0) != (cheap.RacyEvents > 0) || full.FirstRace != cheap.FirstRace {
			t.Errorf("%s: full(%d,%d) vs cheap(%d,%d)", name,
				full.RacyEvents, full.FirstRace, cheap.RacyEvents, cheap.FirstRace)
		}
	}
}

// TestForkJoinOrdering: fork and join edges are WCP (HB-composed)
// orderings.
func TestForkJoinOrdering(t *testing.T) {
	b := trace.NewBuilder()
	b.Write("t0", "x")
	b.Fork("t0", "t1")
	b.Write("t1", "x")
	b.Join("t0", "t1")
	b.Write("t0", "x")
	res := core.Detect(b.MustBuild())
	if res.RacyEvents != 0 {
		t.Errorf("fork/join-ordered writes flagged: %d", res.RacyEvents)
	}

	b2 := trace.NewBuilder()
	b2.Fork("t0", "t1")
	b2.Write("t1", "x")
	b2.Write("t0", "x")
	res2 := core.Detect(b2.MustBuild())
	if res2.RacyEvents != 1 {
		t.Errorf("concurrent post-fork writes: racy = %d, want 1", res2.RacyEvents)
	}
}
