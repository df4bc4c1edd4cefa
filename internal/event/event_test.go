package event

import (
	"strings"
	"testing"
)

func TestKindStringAndValid(t *testing.T) {
	cases := []struct {
		k    Kind
		name string
	}{
		{Acquire, "acq"}, {Release, "rel"}, {Read, "r"}, {Write, "w"},
		{Fork, "fork"}, {Join, "join"},
	}
	for _, c := range cases {
		if c.k.String() != c.name {
			t.Errorf("%v.String() = %q, want %q", uint8(c.k), c.k.String(), c.name)
		}
		if !c.k.Valid() {
			t.Errorf("%q should be valid", c.name)
		}
	}
	if Kind(99).Valid() {
		t.Error("Kind(99) should be invalid")
	}
	if !strings.Contains(Kind(99).String(), "99") {
		t.Errorf("invalid kind string: %q", Kind(99).String())
	}
}

func TestKindPredicates(t *testing.T) {
	if !Read.IsAccess() || !Write.IsAccess() {
		t.Error("read/write should be accesses")
	}
	if Acquire.IsAccess() || Fork.IsAccess() {
		t.Error("acquire/fork are not accesses")
	}
	if !Acquire.IsSync() || !Release.IsSync() {
		t.Error("acquire/release should be sync")
	}
	if Read.IsSync() {
		t.Error("read is not sync")
	}
}

func TestConflicts(t *testing.T) {
	w0 := Event{Kind: Write, Thread: 0, Obj: 1}
	w1 := Event{Kind: Write, Thread: 1, Obj: 1}
	r1 := Event{Kind: Read, Thread: 1, Obj: 1}
	r2 := Event{Kind: Read, Thread: 2, Obj: 1}
	otherVar := Event{Kind: Write, Thread: 1, Obj: 2}
	acq := Event{Kind: Acquire, Thread: 1, Obj: 1}

	if !w0.Conflicts(w1) || !w1.Conflicts(w0) {
		t.Error("write-write different threads should conflict")
	}
	if !w0.Conflicts(r1) || !r1.Conflicts(w0) {
		t.Error("read-write different threads should conflict")
	}
	if r1.Conflicts(r2) {
		t.Error("read-read never conflicts")
	}
	if w0.Conflicts(otherVar) {
		t.Error("different variables never conflict")
	}
	sameThread := Event{Kind: Read, Thread: 0, Obj: 1}
	if w0.Conflicts(sameThread) {
		t.Error("same thread never conflicts")
	}
	if w0.Conflicts(acq) || acq.Conflicts(w0) {
		t.Error("lock events never conflict")
	}
}

func TestAccessors(t *testing.T) {
	e := Event{Kind: Acquire, Thread: 2, Obj: 5}
	if e.Lock() != 5 {
		t.Errorf("Lock() = %d", e.Lock())
	}
	e = Event{Kind: Read, Thread: 2, Obj: 7}
	if e.Var() != 7 {
		t.Errorf("Var() = %d", e.Var())
	}
	e = Event{Kind: Fork, Thread: 2, Obj: 3}
	if e.Target() != 3 {
		t.Errorf("Target() = %d", e.Target())
	}
}

func TestSymbolsInterning(t *testing.T) {
	var s Symbols
	t0 := s.Thread("main")
	t1 := s.Thread("worker")
	if t0 == t1 {
		t.Error("distinct names should get distinct ids")
	}
	if s.Thread("main") != t0 {
		t.Error("interning not stable")
	}
	if s.NumThreads() != 2 {
		t.Errorf("NumThreads = %d", s.NumThreads())
	}
	if s.ThreadName(t0) != "main" {
		t.Errorf("ThreadName = %q", s.ThreadName(t0))
	}
	l := s.Lock("mu")
	v := s.Var("count")
	p := s.Location("main.go:10")
	if s.LockName(l) != "mu" || s.VarName(v) != "count" || s.LocationName(p) != "main.go:10" {
		t.Error("name round-trips failed")
	}
	if s.LocationName(NoLoc) != "?" {
		t.Errorf("NoLoc name = %q", s.LocationName(NoLoc))
	}
	// Out-of-range names degrade gracefully.
	if !strings.Contains(s.ThreadName(TID(42)), "42") {
		t.Errorf("unknown thread name: %q", s.ThreadName(TID(42)))
	}
}

func TestSymbolsDescribe(t *testing.T) {
	var s Symbols
	tid := s.Thread("t1")
	lid := s.Lock("l")
	vid := s.Var("x")
	loc := s.Location("pc1")
	e := Event{Kind: Acquire, Thread: tid, Obj: int32(lid), Loc: loc}
	if got := s.Describe(e); got != "t1:acq(l)@pc1" {
		t.Errorf("Describe acquire = %q", got)
	}
	e = Event{Kind: Write, Thread: tid, Obj: int32(vid), Loc: NoLoc}
	if got := s.Describe(e); got != "t1:w(x)" {
		t.Errorf("Describe write = %q", got)
	}
	u := s.Thread("t2")
	e = Event{Kind: Fork, Thread: tid, Obj: int32(u), Loc: NoLoc}
	if got := s.Describe(e); got != "t1:fork(t2)" {
		t.Errorf("Describe fork = %q", got)
	}
}

func TestEventString(t *testing.T) {
	e := Event{Kind: Write, Thread: 1, Obj: 2}
	if got := e.String(); got != "T1:w(V2)" {
		t.Errorf("String = %q", got)
	}
	e = Event{Kind: Release, Thread: 0, Obj: 3}
	if got := e.String(); got != "T0:rel(L3)" {
		t.Errorf("String = %q", got)
	}
	e = Event{Kind: Join, Thread: 0, Obj: 1}
	if got := e.String(); got != "T0:join(T1)" {
		t.Errorf("String = %q", got)
	}
}

func TestSymbolsTableAccessors(t *testing.T) {
	var s Symbols
	s.Thread("a")
	s.Thread("b")
	s.Lock("l")
	s.Var("x")
	s.Var("y")
	s.Location("p")
	if s.NumLocks() != 1 || s.NumVars() != 2 || s.NumLocations() != 1 {
		t.Errorf("counts: locks=%d vars=%d locs=%d", s.NumLocks(), s.NumVars(), s.NumLocations())
	}
	if got := s.ThreadNames(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("ThreadNames = %v", got)
	}
	if got := s.LockNames(); len(got) != 1 || got[0] != "l" {
		t.Errorf("LockNames = %v", got)
	}
	if got := s.VarNames(); len(got) != 2 || got[1] != "y" {
		t.Errorf("VarNames = %v", got)
	}
	if got := s.LocationNames(); len(got) != 1 || got[0] != "p" {
		t.Errorf("LocationNames = %v", got)
	}
}

// TestPositionalSymbols: a positional table keeps repeated names at their
// own indices, builds its by-name index only when interning starts, maps a
// repeated name to its first index, and appends new names without writing
// into a neighbouring table that shares the callers' backing array.
func TestPositionalSymbols(t *testing.T) {
	backing := []string{"t0", "t0", "m", "x", "a", "b", "a"}
	s := NewPositionalSymbols(backing[0:2], backing[2:3], backing[3:4], backing[4:7])
	if s.NumThreads() != 2 || s.ThreadName(1) != "t0" || s.LocationName(2) != "a" {
		t.Fatalf("positional tables lost a repeat: threads %q, locations %q", s.ThreadNames(), s.LocationNames())
	}
	if s.threads.byName != nil {
		t.Error("by-name index built before any interning call")
	}
	if got := s.Thread("t0"); got != 0 {
		t.Errorf("Thread(t0) = %d, want the first index 0", got)
	}
	if got := s.Location("a"); got != 0 {
		t.Errorf("Location(a) = %d, want the first index 0", got)
	}
	if got := s.Thread("t1"); got != 2 {
		t.Errorf("Thread(t1) = %d, want the next index 2", got)
	}
	if backing[2] != "m" {
		t.Errorf("interning a thread overwrote the lock table: %q", backing)
	}
	s.Preallocate(0, 0, 10, 0)
	if got := s.Var("x"); got != 0 {
		t.Errorf("Var(x) after Preallocate = %d, want 0", got)
	}
}
