package engine

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/trace"
)

// This file pins the bounded-memory session machinery to the
// straight-through baseline: a session that compacts aggressively, or that
// is serialized and restored at arbitrary block boundaries (or both), must
// produce results — including the formatted race report, byte for byte —
// identical to an uninterrupted, never-compacted run of the same engine
// over the same trace.

// sessionEngineNames are the engines that stream, with full session
// durability support.
var sessionEngineNames = []string{"wcp", "hb"}

// runPlain streams tr through a fresh session in fixed-size blocks with no
// compaction and no snapshotting.
func runPlain(t *testing.T, name string, tr *trace.Trace, blockSize int) *Result {
	t.Helper()
	e := MustNew(name, Config{}).(SessionEngine)
	s := e.NewSession(tr.NumThreads(), tr.NumLocks(), tr.NumVars())
	for i := 0; i < len(tr.Events); i += blockSize {
		end := i + blockSize
		if end > len(tr.Events) {
			end = len(tr.Events)
		}
		s.ProcessBlock(trace.BlockOf(tr.Events[i:end]))
	}
	return s.Finish()
}

// runDurable streams tr through a session with the given compaction policy,
// snapshotting and restoring the session at each block boundary listed in
// restoreAt (indices into the block sequence).
func runDurable(t *testing.T, name string, tr *trace.Trace, blockSize int,
	policy CompactPolicy, restoreAt map[int]bool) *Result {
	t.Helper()
	e := MustNew(name, Config{}).(SessionEngine)
	s := e.NewSession(tr.NumThreads(), tr.NumLocks(), tr.NumVars())
	s.(CompactableSession).SetCompactPolicy(policy)
	block := 0
	for i := 0; i < len(tr.Events); i += blockSize {
		end := i + blockSize
		if end > len(tr.Events) {
			end = len(tr.Events)
		}
		s.ProcessBlock(trace.BlockOf(tr.Events[i:end]))
		block++
		if restoreAt[block] {
			var buf bytes.Buffer
			if err := s.(SnapshotSession).Snapshot(&buf); err != nil {
				t.Fatalf("%s: snapshot at block %d: %v", name, block, err)
			}
			restored, gotName, err := RestoreSession(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("%s: restore at block %d: %v", name, block, err)
			}
			if gotName != name {
				t.Fatalf("restore returned engine %q, want %q", gotName, name)
			}
			restored.(CompactableSession).SetCompactPolicy(policy)
			s = restored
		}
	}
	return s.Finish()
}

// requireIdentical fails unless the two results match in every
// engine-independent field and their formatted reports are byte-identical.
func requireIdentical(t *testing.T, label string, tr *trace.Trace, got, want *Result) {
	t.Helper()
	if !resultsEqual(got, want) {
		t.Fatalf("%s: results diverge:\n got %s\nwant %s", label, summarize(got), summarize(want))
	}
	if got.Report != nil {
		g, w := got.Report.Format(tr.Symbols), want.Report.Format(tr.Symbols)
		if g != w {
			t.Fatalf("%s: formatted reports differ:\n got:\n%s\nwant:\n%s", label, g, w)
		}
	}
}

// durabilityTraces is a trimmed clockModeTraces mix: randomized shapes plus
// thread-scaling scenarios with enough fork/join and lock churn to make
// compaction actually retire threads, variables, and locks.
func durabilityTraces(t *testing.T) map[string]*trace.Trace {
	t.Helper()
	traces := map[string]*trace.Trace{}
	for i, cfg := range []gen.RandomConfig{
		{Threads: 2, Locks: 1, Vars: 2},
		{Threads: 3, Locks: 3, Vars: 8, ForkJoin: true},
		{Threads: 5, Locks: 4, Vars: 6, ForkJoin: true},
		{Threads: 9, Locks: 5, Vars: 10, ForkJoin: true},
		{Threads: 16, Locks: 8, Vars: 12, ForkJoin: true},
	} {
		cfg.Events = 900
		cfg.Seed = int64(41*i + 3)
		traces["random/"+itoa(i)+"/T"+itoa(cfg.Threads)] = gen.Random(cfg)
	}
	for _, shape := range gen.ThreadScalingShapes {
		for _, threads := range []int{8, 64} {
			cfg := gen.ThreadScalingConfig{Threads: threads, Events: 6000, Shape: shape, Races: 4}
			traces[shape+"/T"+itoa(threads)] = gen.ThreadScaling(cfg)
		}
	}
	for _, name := range []string{"account", "mergesort"} {
		bench, ok := gen.ByName(name)
		if !ok {
			t.Fatalf("unknown benchmark %s", name)
		}
		traces["bench/"+name] = bench.Generate(1.0)
	}
	return traces
}

// TestCompactedSessionsMatchStraightThrough runs every sessionable engine
// with an aggressive compaction policy (compact after every block) against
// the never-compacted baseline.
func TestCompactedSessionsMatchStraightThrough(t *testing.T) {
	const blockSize = 256
	for tn, tr := range durabilityTraces(t) {
		for _, name := range sessionEngineNames {
			want := runPlain(t, name, tr, blockSize)
			got := runDurable(t, name, tr, blockSize, CompactPolicy{EveryEvents: 1}, nil)
			requireIdentical(t, name+"/"+tn+"/compacted", tr, got, want)
		}
	}
}

// TestSnapshotRestoreMatchesStraightThrough serializes and restores each
// session at randomly chosen block boundaries — with and without compaction
// in the mix — and requires the final result to match the uninterrupted run.
func TestSnapshotRestoreMatchesStraightThrough(t *testing.T) {
	const blockSize = 256
	rng := rand.New(rand.NewSource(99))
	for tn, tr := range durabilityTraces(t) {
		blocks := (len(tr.Events) + blockSize - 1) / blockSize
		restoreAt := map[int]bool{}
		for i := 1; i <= blocks; i++ {
			if rng.Intn(4) == 0 {
				restoreAt[i] = true
			}
		}
		restoreAt[blocks] = true // always exercise a snapshot of the final state
		for _, name := range sessionEngineNames {
			want := runPlain(t, name, tr, blockSize)
			got := runDurable(t, name, tr, blockSize, CompactPolicy{}, restoreAt)
			requireIdentical(t, name+"/"+tn+"/restored", tr, got, want)

			got = runDurable(t, name, tr, blockSize, CompactPolicy{EveryEvents: 1}, restoreAt)
			requireIdentical(t, name+"/"+tn+"/compact+restored", tr, got, want)
		}
	}
}

// TestSnapshotResnapByteIdentical pins the canonical-payload property the
// fuzz target relies on: snapshotting a just-restored session reproduces
// the original snapshot byte for byte, at every block boundary.
func TestSnapshotResnapByteIdentical(t *testing.T) {
	const blockSize = 512
	tr := gen.Random(gen.RandomConfig{Threads: 7, Locks: 4, Vars: 9, Events: 4000, ForkJoin: true, Seed: 12})
	for _, name := range sessionEngineNames {
		e := MustNew(name, Config{}).(SessionEngine)
		s := e.NewSession(tr.NumThreads(), tr.NumLocks(), tr.NumVars())
		for i := 0; i < len(tr.Events); i += blockSize {
			end := i + blockSize
			if end > len(tr.Events) {
				end = len(tr.Events)
			}
			s.ProcessBlock(trace.BlockOf(tr.Events[i:end]))
			var first bytes.Buffer
			if err := s.(SnapshotSession).Snapshot(&first); err != nil {
				t.Fatalf("%s: snapshot: %v", name, err)
			}
			restored, _, err := RestoreSession(bytes.NewReader(first.Bytes()))
			if err != nil {
				t.Fatalf("%s: restore: %v", name, err)
			}
			var second bytes.Buffer
			if err := restored.(SnapshotSession).Snapshot(&second); err != nil {
				t.Fatalf("%s: resnap: %v", name, err)
			}
			if !bytes.Equal(first.Bytes(), second.Bytes()) {
				t.Fatalf("%s: resnap differs at event %d (%d vs %d bytes)",
					name, end, first.Len(), second.Len())
			}
			s = restored
		}
	}
}
