package report

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/race"
	"repro/internal/trace"
	"repro/internal/traceio"
)

// twoThreadRacyTrace builds a trace with an unprotected write-write race on
// x (two locations) and a lock-protected non-race on y.
func twoThreadRacyTrace() *trace.Trace {
	b := trace.NewBuilder()
	b.At("L1").Write("t1", "x")
	b.At("L4").Acquire("t1", "m")
	b.At("L5").Write("t1", "y")
	b.At("L6").Release("t1", "m")
	b.At("L2").Write("t2", "x")
	b.At("L4").Acquire("t2", "m")
	b.At("L5").Write("t2", "y")
	b.At("L6").Release("t2", "m")
	return b.Build()
}

func TestFingerprintStableAcrossInterningOrder(t *testing.T) {
	// Two symbol tables interning the same names in different orders must
	// fingerprint identically.
	s1, s2 := &event.Symbols{}, &event.Symbols{}
	a1, b1 := s1.Location("f.go:10"), s1.Location("g.go:20")
	v1 := s1.Var("x")
	// Reverse interning order.
	b2, a2 := s2.Location("g.go:20"), s2.Location("f.go:10")
	v2 := s2.Var("x")

	i1 := &race.Info{Var: v1}
	i2 := &race.Info{Var: v2}
	f1 := NewFingerprint("wcp", race.MakePair(a1, b1), i1, s1)
	f2 := NewFingerprint("wcp", race.MakePair(b2, a2), i2, s2)
	if f1 != f2 {
		t.Errorf("fingerprints differ across interning orders:\n%+v\n%+v", f1, f2)
	}
}

func TestFingerprintFromDetector(t *testing.T) {
	tr := twoThreadRacyTrace()
	res := core.Detect(tr)
	if res.Report.Distinct() == 0 {
		t.Fatal("expected a race")
	}
	s := NewStore()
	if created := s.AddReport("wcp", "test", res.Report, tr.Symbols, time.Unix(0, 0)); created != res.Report.Distinct() {
		t.Fatalf("created %d classes, want %d", created, res.Report.Distinct())
	}
	entries := s.List(Filter{})
	for _, e := range entries {
		if e.Var != "x" {
			t.Errorf("entry %+v: Var = %q, want \"x\" (the racy variable)", e.Fingerprint, e.Var)
		}
	}
}

func TestStoreDedupAcrossSources(t *testing.T) {
	tr := twoThreadRacyTrace()
	rep := core.Detect(tr).Report
	s := NewStore()
	at := time.Unix(100, 0)
	for i := 0; i < 5; i++ {
		s.AddReport("wcp", fmt.Sprintf("session-%d", i), rep, tr.Symbols, at.Add(time.Duration(i)*time.Second))
	}
	if s.Len() != rep.Distinct() {
		t.Fatalf("store holds %d classes after 5 identical reports, want %d", s.Len(), rep.Distinct())
	}
	for _, e := range s.List(Filter{}) {
		if e.Traces != 5 {
			t.Errorf("%+v: Traces = %d, want 5", e.Fingerprint, e.Traces)
		}
		if e.FirstSource != "session-0" {
			t.Errorf("%+v: FirstSource = %q, want session-0", e.Fingerprint, e.FirstSource)
		}
		if !e.LastSeen.After(e.FirstSeen) {
			t.Errorf("%+v: LastSeen %v not after FirstSeen %v", e.Fingerprint, e.LastSeen, e.FirstSeen)
		}
	}
	// A different engine for the same pair is a distinct class.
	s.AddReport("hb", "session-x", rep, tr.Symbols, at)
	if s.Len() != 2*rep.Distinct() {
		t.Errorf("store holds %d classes after a second engine, want %d", s.Len(), 2*rep.Distinct())
	}
}

func TestStoreFilters(t *testing.T) {
	s := NewStore()
	at := time.Unix(0, 0)
	add := func(engine, locA, locB, v string, n int64) {
		s.Add(Fingerprint{Engine: engine, LocA: locA, LocB: locB, Var: v}, n, 0, "src", at)
	}
	add("wcp", "a.go:1", "b.go:2", "x", 10)
	add("hb", "a.go:1", "b.go:2", "x", 3)
	add("wcp", "c.go:3", "d.go:4", "y", 1)

	if got := s.List(Filter{Engine: "wcp"}); len(got) != 2 {
		t.Errorf("Engine filter: %d entries, want 2", len(got))
	}
	if got := s.List(Filter{Var: "y"}); len(got) != 1 || got[0].LocA != "c.go:3" {
		t.Errorf("Var filter: %+v", got)
	}
	if got := s.List(Filter{Loc: "b.go"}); len(got) != 2 {
		t.Errorf("Loc filter: %d entries, want 2", len(got))
	}
	if got := s.List(Filter{MinCount: 5}); len(got) != 1 || got[0].Count != 10 {
		t.Errorf("MinCount filter: %+v", got)
	}
	if got := s.List(Filter{Limit: 1}); len(got) != 1 {
		t.Errorf("Limit: %d entries, want 1", len(got))
	}
	if got, want := s.Observations(), int64(14); got != want {
		t.Errorf("Observations = %d, want %d", got, want)
	}
}

// TestStoreConcurrent hammers the store from many goroutines; run under
// -race this is the concurrency contract.
func TestStoreConcurrent(t *testing.T) {
	s := NewStore()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				f := Fingerprint{Engine: "wcp", LocA: fmt.Sprintf("L%d", i%17), LocB: "R"}
				s.Add(f, 1, i, fmt.Sprintf("g%d", g), time.Unix(int64(i), 0))
				s.List(Filter{Engine: "wcp", Limit: 5})
				s.Len()
			}
		}(g)
	}
	wg.Wait()
	if s.Len() != 17 {
		t.Errorf("Len = %d, want 17", s.Len())
	}
	if s.Observations() != 8*200 {
		t.Errorf("Observations = %d, want %d", s.Observations(), 8*200)
	}
}

// TestStoreEntriesDoNotAliasSymbols: a decoded header keeps all its names
// in one backing string, so a stored class that pointed into it would pin
// the whole symbol table of its session for the life of the store.
func TestStoreEntriesDoNotAliasSymbols(t *testing.T) {
	// t2 observes the race on x holding m, so the class has a lock context.
	b := trace.NewBuilder()
	b.At("L1").Write("t1", "x")
	b.At("L2").Acquire("t2", "m")
	b.At("L3").Write("t2", "x")
	b.At("L4").Release("t2", "m")
	var enc bytes.Buffer
	if err := traceio.WriteBinary(&enc, b.Build()); err != nil {
		t.Fatal(err)
	}
	tr, err := traceio.ReadBinary(&enc)
	if err != nil {
		t.Fatal(err)
	}
	res := core.Detect(tr)
	s := NewStore()
	s.AddReport("wcp", "test", res.Report, tr.Symbols, time.Unix(0, 0))
	entries := s.List(Filter{})
	if len(entries) == 0 {
		t.Fatal("expected a race")
	}
	var names []string
	for _, table := range [][]string{tr.Symbols.ThreadNames(), tr.Symbols.LockNames(),
		tr.Symbols.VarNames(), tr.Symbols.LocationNames()} {
		names = append(names, table...)
	}
	sawLocks := false
	for _, e := range entries {
		sawLocks = sawLocks || e.Locks != ""
		for _, got := range []string{e.LocA, e.LocB, e.Var, e.Locks} {
			for _, name := range names {
				if overlaps(got, name) {
					t.Errorf("entry %+v: %q shares memory with symbol name %q", e.Fingerprint, got, name)
				}
			}
		}
	}
	if !sawLocks {
		t.Error("no entry carries a lock context; the test needs one")
	}
}

// overlaps reports whether the bytes of a and b share memory.
func overlaps(a, b string) bool {
	if a == "" || b == "" {
		return false
	}
	pa, pb := uintptr(unsafe.Pointer(unsafe.StringData(a))), uintptr(unsafe.Pointer(unsafe.StringData(b)))
	return pa < pb+uintptr(len(b)) && pb < pa+uintptr(len(a))
}
