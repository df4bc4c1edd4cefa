package repro

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

func figure2bTrace() *Trace {
	b := NewTraceBuilder()
	b.At("a").Write("t1", "y")
	b.Acquire("t1", "l")
	b.Write("t1", "x")
	b.Release("t1", "l")
	b.Acquire("t2", "l")
	b.At("b").Read("t2", "y")
	b.Read("t2", "x")
	b.Release("t2", "l")
	return b.Build()
}

func TestFacadeDetectors(t *testing.T) {
	tr := figure2bTrace()
	if err := ValidateTrace(tr); err != nil {
		t.Fatal(err)
	}
	if s := TraceStats(tr); s.Events != 8 {
		t.Errorf("stats = %+v", s)
	}
	if got := DetectWCP(tr).Report.Distinct(); got != 1 {
		t.Errorf("WCP pairs = %d, want 1", got)
	}
	if got := DetectHB(tr).Report.Distinct(); got != 0 {
		t.Errorf("HB pairs = %d, want 0", got)
	}
	if got := DetectCP(tr, 0).Report.Distinct(); got != 0 {
		t.Errorf("CP pairs = %d, want 0 (Figure 2b is CP-invisible)", got)
	}
	pres := DetectPredictive(tr, PredictOptions{})
	if got := pres.Report.Distinct(); got != 1 {
		t.Errorf("predictive pairs = %d, want 1", got)
	}
	if DetectLockset(tr).Warnings != 0 {
		t.Error("consistently locked x plus rare y access should not warn (y is write-then-read exclusive)")
	}
}

func TestFacadeWitness(t *testing.T) {
	tr := figure2bTrace()
	wit, ok := FindRaceWitness(tr, 0, 5, SearchBudget{})
	if !ok {
		t.Fatal("witness not found")
	}
	if err := CheckReordering(tr, wit.Reordering); err != nil {
		t.Fatal(err)
	}
	if _, ok := FindDeadlock(tr, SearchBudget{Nodes: 100000}); ok {
		t.Error("single-lock trace cannot deadlock")
	}
}

func TestFacadeStreamingMatchesBatch(t *testing.T) {
	b, _ := BenchmarkByName("raytracer")
	tr := b.Generate(0.5)
	batch := DetectWCP(tr)
	var bin bytes.Buffer
	if err := WriteTraceBinary(&bin, tr); err != nil {
		t.Fatal(err)
	}
	det := NewWCPDetector(tr.NumThreads(), tr.NumLocks(), tr.NumVars(), WCPOptions{TrackPairs: true})
	st, err := OpenTraceStream(&bin)
	if err != nil {
		t.Fatal(err)
	}
	block := NewTraceBlock(100)
	for {
		_, err := st.NextBlockSoA(block)
		det.ProcessBlock(block)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	stream := det.Result()
	if batch.Report.Distinct() != stream.Report.Distinct() {
		t.Errorf("batch %d pairs, stream %d", batch.Report.Distinct(), stream.Report.Distinct())
	}
	if batch.RacyEvents != stream.RacyEvents || batch.QueueMaxTotal != stream.QueueMaxTotal {
		t.Errorf("batch/stream mismatch: %+v vs %+v", batch, stream)
	}
}

func TestFacadeIO(t *testing.T) {
	tr := figure2bTrace()
	var text, bin bytes.Buffer
	if err := WriteTraceText(&text, tr); err != nil {
		t.Fatal(err)
	}
	if err := WriteTraceBinary(&bin, tr); err != nil {
		t.Fatal(err)
	}
	// ReadTrace auto-detects both formats.
	fromText, err := ReadTrace(bytes.NewReader(text.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	fromBin, err := ReadTrace(bytes.NewReader(bin.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for _, got := range []*Trace{fromText, fromBin} {
		if got.Len() != tr.Len() {
			t.Fatalf("round trip lost events: %d vs %d", got.Len(), tr.Len())
		}
		if DetectWCP(got).Report.Distinct() != 1 {
			t.Error("race lost in round trip")
		}
	}
	// Text traces stream block by block too.
	st, err := OpenTraceStream(bytes.NewReader(text.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	n, block := 0, NewTraceBlock(2)
	for {
		k, err := st.NextBlockSoA(block)
		n += k
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if n != tr.Len() {
		t.Errorf("text stream: %d events, want %d", n, tr.Len())
	}
}

func TestFacadeGenerators(t *testing.T) {
	if len(Benchmarks()) != 18 {
		t.Errorf("benchmarks = %d, want 18 (Table 1)", len(Benchmarks()))
	}
	if _, ok := BenchmarkByName("eclipse"); !ok {
		t.Error("eclipse missing")
	}
	if _, ok := BenchmarkByName("nonesuch"); ok {
		t.Error("nonexistent benchmark found")
	}
	tr := RandomTrace(RandomTraceConfig{Threads: 3, Locks: 2, Vars: 2, Events: 50, Seed: 9})
	if err := ValidateTrace(tr); err != nil {
		t.Error(err)
	}
	lb := LowerBoundTrace([]bool{true, false}, []bool{true, false})
	if err := ValidateTrace(lb); err != nil {
		t.Error(err)
	}
}

// TestRunTable1Small runs the experiment harness end to end on the small
// benchmarks and checks the race columns match the paper exactly.
func TestRunTable1Small(t *testing.T) {
	rows := RunTable1(Table1Options{
		Benchmarks: []string{"account", "airline", "array", "critical", "pingpong", "mergesort"},
	})
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.WCPRaces != r.WantWCP {
			t.Errorf("%s: WCP = %d, want %d", r.Name, r.WCPRaces, r.WantWCP)
		}
		if r.HBRaces != r.WantHB {
			t.Errorf("%s: HB = %d, want %d", r.Name, r.HBRaces, r.WantHB)
		}
		if r.PredictMax > r.WCPRaces {
			t.Errorf("%s: predictive found %d > WCP %d — impossible for sound engines on these traces",
				r.Name, r.PredictMax, r.WCPRaces)
		}
	}
	out := FormatTable1(rows)
	for _, want := range []string{"account", "airline", "Program"} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted table missing %q", want)
		}
	}
}

// TestRunFigure7Small runs a single-benchmark sweep and sanity-checks the
// grid shape.
func TestRunFigure7Small(t *testing.T) {
	pts := RunFigure7([]string{"mergesort"}, 1.0)
	if len(pts) != len(Figure7Windows)*len(Figure7Budgets) {
		t.Fatalf("points = %d", len(pts))
	}
	for _, p := range pts {
		if p.Races < 0 || p.Races > 3 {
			t.Errorf("point %+v out of range", p)
		}
	}
	if out := FormatFigure7(pts); !strings.Contains(out, "mergesort") {
		t.Error("formatted figure missing benchmark name")
	}
}
