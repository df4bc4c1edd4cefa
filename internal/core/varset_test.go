package core

import (
	"fmt"
	"testing"

	"repro/internal/event"
	"repro/internal/trace"
)

// TestVarSetSpill exercises the linear-to-hash spill: inserts past the
// threshold must still dedupe (including the pre-spill prefix) and preserve
// insertion order of first occurrences.
func TestVarSetSpill(t *testing.T) {
	var s varSet
	const n = 1000
	for round := 0; round < 3; round++ {
		for i := 0; i < n; i++ {
			s.add(event.VID(i))
			s.add(event.VID(i)) // immediate duplicate: last-element fast path
		}
		// Re-adding earlier elements after the spill must not duplicate.
		for i := 0; i < n; i += 7 {
			s.add(event.VID(i))
		}
		if len(s.list) != n {
			t.Fatalf("round %d: len = %d, want %d", round, len(s.list), n)
		}
		for i, v := range s.list {
			if v != event.VID(i) {
				t.Fatalf("round %d: list[%d] = %d, want %d (insertion order lost)", round, i, v, i)
			}
		}
		if s.seen == nil {
			t.Fatal("set did not spill to a hash index past the threshold")
		}
		s.reset()
		if len(s.list) != 0 || len(s.seen) != 0 {
			t.Fatalf("reset left %d/%d elements", len(s.list), len(s.seen))
		}
	}
}

func TestVarSetSmallStaysLinear(t *testing.T) {
	var s varSet
	for i := 0; i < varSetSpill; i++ {
		s.add(event.VID(i))
	}
	if s.seen != nil {
		t.Fatalf("set spilled at %d elements, threshold is %d", varSetSpill, varSetSpill)
	}
}

func TestVarSetAddAll(t *testing.T) {
	var a, b varSet
	for i := 0; i < 40; i++ {
		a.add(event.VID(i))
	}
	for i := 20; i < 60; i++ {
		b.add(event.VID(i))
	}
	b.addAll(&a)
	if len(b.list) != 60 {
		t.Fatalf("merged len = %d, want 60", len(b.list))
	}
	seen := map[event.VID]bool{}
	for _, v := range b.list {
		if seen[v] {
			t.Fatalf("duplicate %d after addAll", v)
		}
		seen[v] = true
	}
}

// TestWideCriticalSection runs the detector end to end over critical
// sections touching 1000 distinct variables — the workload whose release
// processing went quadratic with the linear-scan set. Accesses are fully
// lock-protected, so the rule-(a) state built from the (spilled) access sets
// must order them: zero races.
func TestWideCriticalSection(t *testing.T) {
	b := trace.NewBuilder()
	const vars = 1000
	for _, th := range []string{"t1", "t2"} {
		b.Acquire(th, "l")
		for i := 0; i < vars; i++ {
			v := fmt.Sprintf("x%d", i)
			b.At(fmt.Sprintf("pc.%s.%s.w", th, v)).Write(th, v)
			b.At(fmt.Sprintf("pc.%s.%s.r", th, v)).Read(th, v)
		}
		b.Release(th, "l")
	}
	tr := b.MustBuild()
	res := Detect(tr)
	if res.RacyEvents != 0 {
		t.Fatalf("protected wide critical sections reported %d racy events (first at %d)",
			res.RacyEvents, res.FirstRace)
	}
	if res.Events != tr.Len() {
		t.Fatalf("processed %d events, want %d", res.Events, tr.Len())
	}
}

// TestWideCriticalSectionNested exercises the spill through mergeCS: a wide
// inner section folds its access set into the enclosing one.
func TestWideCriticalSectionNested(t *testing.T) {
	b := trace.NewBuilder()
	const vars = 300
	for _, th := range []string{"t1", "t2"} {
		b.Acquire(th, "outer")
		b.Acquire(th, "inner")
		for i := 0; i < vars; i++ {
			b.Write(th, fmt.Sprintf("y%d", i))
		}
		b.Release(th, "inner")
		b.Write(th, "z")
		b.Release(th, "outer")
	}
	tr := b.MustBuild()
	res := Detect(tr)
	if res.RacyEvents != 0 {
		t.Fatalf("nested wide critical sections reported %d racy events", res.RacyEvents)
	}
}
