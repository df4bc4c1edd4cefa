package engine

import (
	"context"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/race"
	"repro/internal/trace"
)

// agreeBenchmarks are small-enough Table-1 workloads to run every engine
// (including whole-trace analysis) in a unit test.
var agreeBenchmarks = []string{"account", "airline", "array", "boundedbuffer", "critical", "pingpong", "mergesort"}

func genTrace(t *testing.T, name string, scale float64) (*trace.Trace, gen.Benchmark) {
	t.Helper()
	b, ok := gen.ByName(name)
	if !ok {
		t.Fatalf("unknown benchmark %s", name)
	}
	return b.Generate(scale), b
}

// TestEnginesAgree runs every engine concurrently over the same shared
// traces and checks each engine's documented race set: WCP and HB match
// the benchmark's Table-1 counts, and every HB race pair is also a WCP
// race pair (HB ⊆ WCP, Theorem: WCP is weaker).
func TestEnginesAgree(t *testing.T) {
	for _, name := range agreeBenchmarks {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			tr, b := genTrace(t, name, 1.0)
			results := RunAll(context.Background(), tr, All(Config{}))
			byName := map[string]*Result{}
			for _, r := range results {
				if r.Err != nil {
					t.Fatalf("%s: %v", r.Engine, r.Err)
				}
				byName[r.Engine] = r
			}

			if got, want := byName["wcp"].Distinct(), b.WCPRaces(); got != want {
				t.Errorf("wcp: %d distinct pairs, want %d", got, want)
			}
			if got, want := byName["hb"].Distinct(), b.HBRaces; got != want {
				t.Errorf("hb: %d distinct pairs, want %d", got, want)
			}

			wcpReport := byName["wcp"].Report
			for _, p := range byName["hb"].Report.Pairs() {
				if !wcpReport.Has(p.A, p.B) {
					t.Errorf("hb pair %v not detected by wcp (HB races must be WCP races)", p)
				}
			}
		})
	}
}

// TestRunAllOrder checks that results come back in engine order no matter
// which engine finishes first.
func TestRunAllOrder(t *testing.T) {
	tr, _ := genTrace(t, "bubblesort", 0.5)
	engines := All(Config{})
	results := RunAll(context.Background(), tr, engines)
	if len(results) != len(engines) {
		t.Fatalf("got %d results for %d engines", len(results), len(engines))
	}
	for i, r := range results {
		if r.Engine != engines[i].Name() {
			t.Errorf("result %d is %q, want %q", i, r.Engine, engines[i].Name())
		}
		if r.Err == nil && r.Duration <= 0 {
			t.Errorf("result %d (%s): non-positive duration", i, r.Engine)
		}
	}
}

// TestRunAllCanceled checks that a pre-canceled context skips all engines.
func TestRunAllCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tr, _ := genTrace(t, "account", 1.0)
	for _, r := range RunAll(ctx, tr, All(Config{})) {
		if r.Err == nil {
			t.Errorf("%s: ran despite canceled context", r.Engine)
		}
	}
}

// TestEngineSharedTrace runs the same engine over the same trace from many
// goroutines; under -race this verifies Analyze is concurrency-safe and
// treats the trace as read-only.
func TestEngineSharedTrace(t *testing.T) {
	tr, b := genTrace(t, "boundedbuffer", 1.0)
	e := MustNew("wcp", Config{})
	const goroutines = 8
	done := make(chan *Result, goroutines)
	for i := 0; i < goroutines; i++ {
		go func() { done <- e.Analyze(tr) }()
	}
	for i := 0; i < goroutines; i++ {
		if got := (<-done).Distinct(); got != b.WCPRaces() {
			t.Errorf("concurrent run %d: %d pairs, want %d", i, got, b.WCPRaces())
		}
	}
}

// TestNewUnknown checks the error path, including the retired epoch
// engines, and that Names covers every engine New accepts.
func TestNewUnknown(t *testing.T) {
	for _, name := range []string{"flux-capacitor", "wcp-epoch", "hb-epoch"} {
		if _, err := New(name, Config{}); err == nil {
			t.Fatalf("New accepted the unknown engine %q", name)
		}
	}
	if got := strings.Join(Names(), ","); got != "cp,hb,lockset,predict,wcp" {
		t.Fatalf("Names() = %s", got)
	}
	for _, name := range Names() {
		e, err := New(name, Config{})
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if e.Name() != name {
			t.Errorf("New(%q).Name() = %q", name, e.Name())
		}
	}
}

// TestResultDistinct covers the nil-report path.
func TestResultDistinct(t *testing.T) {
	r := &Result{}
	if r.Distinct() != 0 {
		t.Fatal("nil report should count 0 pairs")
	}
	rep := race.NewReport()
	rep.Record(1, 2, 0, 0)
	r.Report = rep
	if r.Distinct() != 1 {
		t.Fatal("want 1 pair")
	}
}
