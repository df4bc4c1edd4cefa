package engine

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/closure"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/hb"
	"repro/internal/race"
	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/traceio"
)

// pairOrder renders a report's pairs in Pairs() order with their counts.
func pairOrder(tr *trace.Trace, rep *race.Report) []string {
	var out []string
	for _, p := range rep.Pairs() {
		out = append(out, fmt.Sprintf("(%s,%s)x%d", tr.Symbols.LocationName(p.A),
			tr.Symbols.LocationName(p.B), rep.Info(p).Count))
	}
	return out
}

// TestPairOrderDeterministic pins the order in which one racy access
// reports its partner locations: t0…t5 each write x at w0…w5, then t6
// reads x, racing with all six writes at once (each write also races with
// the earlier ones). Every run of wcp and hb — straight through or resumed
// from a snapshot after event 4 — must list each access's partners in
// location order, and so must the report store's listing built from the
// report.
func TestPairOrderDeterministic(t *testing.T) {
	b := trace.NewBuilder()
	var want, wantListed []string
	for k := 0; k < 6; k++ {
		b.At(fmt.Sprintf("w%d", k)).Write(fmt.Sprintf("t%d", k), "x")
		for i := 0; i < k; i++ {
			want = append(want, fmt.Sprintf("(w%d,w%d)x1", i, k))
			wantListed = append(wantListed, fmt.Sprintf("w%d,w%d", i, k))
		}
	}
	b.At("r").Read("t6", "x")
	for i := 0; i < 6; i++ {
		want = append(want, fmt.Sprintf("(w%d,r)x1", i))
		wantListed = append(wantListed, fmt.Sprintf("r,w%d", i))
	}
	tr := b.MustBuild()
	for _, name := range []string{"wcp", "hb"} {
		e := MustNew(name, Config{})
		check := func(label string, res *Result) {
			t.Helper()
			if got := pairOrder(tr, res.Report); !slices.Equal(got, want) {
				t.Fatalf("%s %s: pairs %v, want %v", name, label, got, want)
			}
			store := report.NewStore()
			store.AddReport(name, "t", res.Report, tr.Symbols, time.Time{})
			var listed []string
			for _, ent := range store.List(report.Filter{}) {
				listed = append(listed, ent.LocA+","+ent.LocB)
			}
			if !slices.Equal(listed, wantListed) {
				t.Fatalf("%s %s: store lists %v, want %v", name, label, listed, wantListed)
			}
		}
		for run := 0; run < 100; run++ {
			check(fmt.Sprintf("run %d", run), e.Analyze(tr))
		}
		check("restored after event 4", runDurable(t, name, tr, 4, CompactPolicy{}, map[int]bool{1: true}))
	}
}

// TestManyLocationsOneVariable drives a variable past the cells' location
// index: t1 writes x from 4,096 distinct locations, then t2 writes x
// unsynchronized. Each location's cell races with the last write exactly
// once, straight through and across a snapshot taken midway.
func TestManyLocationsOneVariable(t *testing.T) {
	const locs = 4096
	b := trace.NewBuilder()
	for i := 0; i < locs; i++ {
		b.At(fmt.Sprintf("w%d", i)).Write("t1", "x")
	}
	b.At("z").Write("t2", "x")
	tr := b.MustBuild()
	for _, name := range []string{"wcp", "hb"} {
		for _, res := range []*Result{
			runPlain(t, name, tr, locs+1),
			runDurable(t, name, tr, locs/2, CompactPolicy{}, map[int]bool{1: true, 2: true}),
		} {
			if res.RacyEvents != 1 || res.Report.Distinct() != locs {
				t.Fatalf("%s: %d racy events, %d pairs; want 1 and %d", name, res.RacyEvents, res.Report.Distinct(), locs)
			}
			z := tr.Symbols.Location("z")
			for i, p := range res.Report.Pairs() {
				w := tr.Symbols.Location(fmt.Sprintf("w%d", i))
				info := res.Report.Info(p)
				if p != race.MakePair(w, z) || info.Count != 1 || info.MaxDistance != locs-i {
					t.Fatalf("%s: pair %d = %v %+v, want (w%d,z) once at distance %d", name, i, p, *info, i, locs-i)
				}
			}
		}
	}
}

// FuzzEnginesAgainstClosure searches small random traces for a
// disagreement between the streaming detectors and the closure's
// definitional ≤WCP and ≤HB. Each input picks a gen.Random shape (threads,
// locks, variables, shared locations, fork/join, length, seed), a block
// size, and the blocks after which one session is snapshotted and restored
// and one is compacted.
//
//   - Stepped event by event, the wcp and hb detectors, with and without
//     pair tracking, flag exactly the closure's racy events, and every
//     HB-racy event is WCP-racy.
//   - As sessions over the blocks, wcp and hb reproduce the closure
//     reference's whole pair report.
func FuzzEnginesAgainstClosure(f *testing.F) {
	for _, s := range closureSeeds {
		f.Add(s.threads, s.locks, s.vars, s.locs, s.forkJoin, s.events, s.seed, s.block, s.snapAt, s.compactAt)
	}
	f.Fuzz(func(t *testing.T, threads, locks, vars, locs uint8, forkJoin bool, events uint8,
		seed int64, block, snapAt, compactAt uint8) {
		cfg := closureConfig(threads, locks, vars, locs, forkJoin, events, seed)
		tr := gen.Random(cfg)
		wcpRef, hbRef := closure.WCPReference(tr), closure.HBReference(tr)

		for _, pairs := range []bool{true, false} {
			wcpRacy, hbRacy := steppedRacy(tr, pairs)
			if !slices.Equal(wcpRacy, wcpRef.Racy) || !slices.Equal(hbRacy, hbRef.Racy) {
				t.Fatalf("%+v: stepped racy events (pairs %v) wcp %v hb %v, closure wcp %v hb %v",
					cfg, pairs, wcpRacy, hbRacy, wcpRef.Racy, hbRef.Racy)
			}
		}
		for _, e := range hbRef.Racy {
			if !slices.Contains(wcpRef.Racy, e) {
				t.Fatalf("%+v: event %d is HB-racy but not WCP-racy", cfg, e)
			}
		}

		checkSessions(t, fmt.Sprintf("%+v", cfg), tr, wcpRef, hbRef, block, snapAt, compactAt)
	})
}

// closureSeed is one seed input of FuzzEnginesAgainstClosure.
type closureSeed struct {
	threads, locks, vars, locs uint8
	forkJoin                   bool
	events                     uint8
	seed                       int64
	block, snapAt, compactAt   uint8
}

var closureSeeds = []closureSeed{
	{3, 2, 3, 0, false, 80, 1, 7, 2, 5},
	{5, 3, 2, 3, true, 140, 2, 16, 3, 1},
	{9, 2, 2, 4, true, 120, 3, 5, 9, 4},
	{12, 1, 1, 2, false, 149, 4, 3, 0, 0},
}

// closureConfig maps FuzzEnginesAgainstClosure's shape inputs to a small
// gen.Random configuration: T 2–12, at most 150 events.
func closureConfig(threads, locks, vars, locs uint8, forkJoin bool, events uint8, seed int64) gen.RandomConfig {
	return gen.RandomConfig{
		Threads: 2 + int(threads%11), Locks: int(locks % 4), Vars: 1 + int(vars%4),
		Locations: int(locs % 6), ForkJoin: forkJoin, Events: 1 + int(events%150), Seed: seed,
	}
}

// checkSessions streams tr through a session of every engine, in blocks of
// 1 + block%24 events, compacting after block compactAt%12 and restoring
// from a snapshot after block snapAt%12, and requires each report to match
// its closure reference.
func checkSessions(t *testing.T, what string, tr *trace.Trace, wcpRef, hbRef *closure.Reference, block, snapAt, compactAt uint8) {
	t.Helper()
	bs := 1 + int(block%24)
	for _, name := range sessionEngineNames {
		ref := wcpRef
		if strings.HasPrefix(name, "hb") {
			ref = hbRef
		}
		res := runFuzzSession(t, name, tr, bs, int(snapAt%12), int(compactAt%12))
		if err := ref.Check(res.RacyEvents, res.FirstRace, res.Report); err != nil {
			t.Fatalf("%s: %s (block %d): %v", what, name, bs, err)
		}
	}
}

// FuzzDecodedTracesAgainstClosure runs the detectors from bytes to
// reports: an input decodes with traceio.ReadBinary, and a trace that
// trace.Validate accepts, of at most 150 events and 12 threads, streams
// through wcp and hb sessions as in FuzzEnginesAgainstClosure, with the
// block size, compaction point and snapshot point drawn from the input.
// Both reports must match the closure reference's. The seeds are the
// binary encodings of FuzzEnginesAgainstClosure's seed traces.
func FuzzDecodedTracesAgainstClosure(f *testing.F) {
	for _, s := range closureSeeds {
		var buf bytes.Buffer
		tr := gen.Random(closureConfig(s.threads, s.locks, s.vars, s.locs, s.forkJoin, s.events, s.seed))
		if err := traceio.WriteBinary(&buf, tr); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes(), s.block, s.snapAt, s.compactAt)
	}
	f.Fuzz(func(t *testing.T, data []byte, block, snapAt, compactAt uint8) {
		tr, err := traceio.ReadBinary(bytes.NewReader(data))
		if err != nil || trace.Validate(tr) != nil || tr.Len() > 150 || tr.NumThreads() > 12 {
			return
		}
		checkSessions(t, fmt.Sprintf("%d-byte input", len(data)), tr,
			closure.WCPReference(tr), closure.HBReference(tr), block, snapAt, compactAt)
	})
}

// steppedRacy feeds tr event by event to wcp and hb detectors, tracking
// pairs or not, and returns the events each flags.
func steppedRacy(tr *trace.Trace, pairs bool) (wcp, hbRacy []int) {
	cd := core.NewDetector(tr.NumThreads(), tr.NumLocks(), tr.NumVars(), core.Options{TrackPairs: pairs})
	hd := hb.NewDetector(tr.NumThreads(), tr.NumLocks(), tr.NumVars(), hb.Options{TrackPairs: pairs})
	for i, e := range tr.Events {
		cBefore, hBefore := cd.Result().RacyEvents, hd.Result().RacyEvents
		cd.Process(e)
		hd.Process(e)
		if cd.Result().RacyEvents > cBefore {
			wcp = append(wcp, i)
		}
		if hd.Result().RacyEvents > hBefore {
			hbRacy = append(hbRacy, i)
		}
	}
	return wcp, hbRacy
}

// runFuzzSession streams tr through a session of engine name in blocks of
// bs events, compacting after block compactAt and snapshotting and
// restoring after block snapAt.
func runFuzzSession(t *testing.T, name string, tr *trace.Trace, bs, snapAt, compactAt int) *Result {
	t.Helper()
	s := MustNew(name, Config{}).(SessionEngine).NewSession(tr.NumThreads(), tr.NumLocks(), tr.NumVars())
	for k, i := 0, 0; i < tr.Len(); k, i = k+1, i+bs {
		s.ProcessBlock(trace.BlockOf(tr.Events[i:min(i+bs, tr.Len())]))
		if k == compactAt {
			s.(CompactableSession).Compact()
		}
		if k == snapAt {
			var buf bytes.Buffer
			if err := s.(SnapshotSession).Snapshot(&buf); err != nil {
				t.Fatalf("%s: snapshot: %v", name, err)
			}
			restored, _, err := RestoreSession(&buf)
			if err != nil {
				t.Fatalf("%s: restore: %v", name, err)
			}
			s = restored
		}
	}
	return s.Finish()
}
