package repro_test

import (
	"context"
	"fmt"
	"strings"

	"repro"
)

// racyTrace builds a small racy trace: both threads write x with no
// synchronization between them (their critical sections protect different
// variables under different locks), so every sound detector reports the
// (Main.java:3, Task.java:4) pair.
func racyTrace() *repro.Trace {
	b := repro.NewTraceBuilder()
	b.At("Main.java:3").Write("t1", "x")
	b.Acquire("t1", "l1").At("Main.java:5").Write("t1", "y1").Release("t1", "l1")
	b.Acquire("t2", "l2").At("Task.java:2").Write("t2", "y2").Release("t2", "l2")
	b.At("Task.java:4").Write("t2", "x")
	return b.Build()
}

// ExampleNewTraceBuilder builds a small trace programmatically and
// validates it.
func ExampleNewTraceBuilder() {
	b := repro.NewTraceBuilder()
	b.Acquire("t1", "l").Read("t1", "x").Release("t1", "l")
	b.Acquire("t2", "l").Write("t2", "x").Release("t2", "l")
	tr := b.Build()
	if err := repro.ValidateTrace(tr); err != nil {
		fmt.Println("invalid:", err)
		return
	}
	fmt.Println(repro.TraceStats(tr))
	// Output:
	// events=6 threads=2 locks=1 vars=1 r/w=1/1 acq/rel=2/2 fork/join=0/0
}

// ExampleDetectWCP runs the paper's Algorithm 1 — the streaming
// linear-time WCP detector — over a racy trace.
func ExampleDetectWCP() {
	res := repro.DetectWCP(racyTrace())
	fmt.Println("distinct race pairs:", res.Report.Distinct())
	fmt.Println("first racy event:", res.FirstRace)
	// Output:
	// distinct race pairs: 1
	// first racy event: 7
}

// ExampleRunEngines fans one trace out to every detector concurrently;
// the trace is shared read-only and results come back in engine order.
func ExampleRunEngines() {
	tr := racyTrace()
	engines := repro.AllEngines(repro.EngineConfig{})
	for _, res := range repro.RunEngines(context.Background(), tr, engines) {
		fmt.Printf("%-7s %d distinct race pair(s)\n", res.Engine, res.Distinct())
	}
	// Output:
	// wcp     1 distinct race pair(s)
	// hb      1 distinct race pair(s)
	// cp      1 distinct race pair(s)
	// predict 1 distinct race pair(s)
	// lockset 1 distinct race pair(s)
}

// ExampleAnalyzeTraceCorpus analyzes a corpus of traces on a worker pool,
// streaming per-trace results as they complete.
func ExampleAnalyzeTraceCorpus() {
	corpus := []repro.TraceSource{
		repro.NewTraceSource("racy", racyTrace()),
	}
	wcp, _ := repro.NewEngine("wcp", repro.EngineConfig{})
	for res := range repro.AnalyzeTraceCorpus(context.Background(), corpus, []repro.Engine{wcp}, 2) {
		fmt.Printf("%s: %d race pair(s)\n", res.Name, res.Results[0].Distinct())
	}
	// Output:
	// racy: 1 race pair(s)
}

// ExampleReadTrace parses the RAPID-style text trace format.
func ExampleReadTrace() {
	log := strings.Join([]string{
		"t1|acq(l)|Main.java:10",
		"t1|w(x)|Main.java:11",
		"t1|rel(l)|Main.java:12",
		"t2|w(x)|Task.java:7",
	}, "\n")
	tr, err := repro.ReadTrace(strings.NewReader(log))
	if err != nil {
		fmt.Println(err)
		return
	}
	res := repro.DetectWCP(tr)
	fmt.Println("races:", res.Report.Distinct())
	// Output:
	// races: 1
}
