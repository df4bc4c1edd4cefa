// Command rapid is the trace-analysis CLI, the counterpart of the paper's
// RAPID tool: it reads logged traces (text or binary format) and runs the
// selected race-detection engines over them.
//
// Usage:
//
//	rapid -engine=wcp trace.log
//	rapid -engine=hb -quiet trace.bin
//	rapid -engine=predict -window 1000 -budget 30000 trace.log
//	rapid -engine=all -parallel trace.log       # all engines concurrently
//	rapid -engine=wcp -jobs 8 traces/*.log      # batch: pool of 8 workers
//	rapid -engine=wcp -stream huge.bin          # block-by-block, O(1) memory
//	rapid -gen pools -threads 256               # built-in generator, no file
//	rapid -gen bench:montecarlo -engine=all     # Table-1 synthetic workload
//
// Engines: wcp (default; the paper's Algorithm 1), hb, cp, predict,
// lockset, all. The wcp and hb engines keep each variable's access times
// as epochs while its accesses stay ordered (the paper's §6 epoch
// optimisation), with exact verdicts and pair reports.
//
// With -gen, no trace file is read: the built-in generator produces the
// workload in memory and the selected engines analyze it. Generators:
// pools, forkjoin, hotlock (the thread-scaling scenario shapes; -threads,
// -events and -races parameterize them), random (the property-test
// generator; -threads, -events), and bench:NAME (a Table-1 synthetic).
//
// With one trace file, -parallel fans the trace out to all selected
// engines concurrently (the trace is shared read-only). With several
// trace files, the files are fanned out across a -jobs-wide worker pool
// (whole machine by default) and per-file reports stream out as each
// file's analysis completes. With -stream, binary traces are decoded
// block by block straight into the detectors, so memory stays constant
// no matter how long the trace is (engines that cannot stream, and text
// traces, fall back to loading).
//
// Every trace is checked for well-formedness (§2.1: lock semantics,
// well-nestedness, fork/join sanity) before any engine sees it: a loaded
// trace as a whole, a streamed one block by block. An ill-formed trace is
// an error naming the offending event's index.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"repro"
)

var (
	engineFlag = flag.String("engine", "wcp", "detector: wcp, hb, cp, predict, lockset, all")
	window     = flag.Int("window", 1000, "window size for windowed engines (cp, predict); 0 = whole trace")
	budget     = flag.Int("budget", 30000, "per-window exploration budget for predict")
	quiet      = flag.Bool("quiet", false, "print summary only, not individual race pairs")
	vindicate  = flag.Int("vindicate", 0, "wcp only: certify up to N reported race pairs with witness schedules")
	parallel   = flag.Bool("parallel", false, "run the selected engines concurrently over each trace")
	jobs       = flag.Int("jobs", 0, "worker-pool width for multi-file batches; 0 = GOMAXPROCS")
	stream     = flag.Bool("stream", false, "analyze block by block without materializing traces (binary traces with streaming engines: wcp, hb; others fall back to loading); -parallel has no effect: a streamed trace is decoded once while its engines run on goroutines of their own, and a trace that falls back to loading runs its engines serially")
	genFlag    = flag.String("gen", "", "analyze a built-in generated workload instead of a file: pools, forkjoin, hotlock, random, or bench:NAME")
	genThreads = flag.Int("threads", 64, "generator thread count (with -gen)")
	genEvents  = flag.Int("events", 100_000, "generator approximate event count (with -gen)")
	genRaces   = flag.Int("races", 4, "generator seeded race-pair count (with -gen pools/forkjoin/hotlock)")
)

func main() {
	flag.Parse()
	if *genFlag != "" {
		if err := runGenerated(); err != nil {
			fmt.Fprintln(os.Stderr, "rapid:", err)
			os.Exit(1)
		}
		return
	}
	if flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: rapid [flags] <trace file> [<trace file>...]")
		flag.PrintDefaults()
		os.Exit(2)
	}
	if err := run(flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "rapid:", err)
		os.Exit(1)
	}
}

// runGenerated analyzes a built-in generated workload (-gen).
func runGenerated() error {
	engines, err := selectEngines()
	if err != nil {
		return err
	}
	var tr *repro.Trace
	switch {
	case *genFlag == "random":
		tr = repro.RandomTrace(repro.RandomTraceConfig{
			Threads: *genThreads, Locks: *genThreads / 2, Vars: *genThreads,
			Events: *genEvents, Seed: 1, ForkJoin: true,
		})
	case strings.HasPrefix(*genFlag, "bench:"):
		b, ok := repro.BenchmarkByName(strings.TrimPrefix(*genFlag, "bench:"))
		if !ok {
			return fmt.Errorf("unknown benchmark %q (see Table 1 names)", *genFlag)
		}
		tr = b.Generate(1.0)
	default:
		ok := false
		for _, s := range repro.ThreadScalingShapes() {
			ok = ok || s == *genFlag
		}
		if !ok {
			return fmt.Errorf("unknown generator %q (want pools, forkjoin, hotlock, random, or bench:NAME)", *genFlag)
		}
		tr = repro.ThreadScalingTrace(repro.ThreadScalingConfig{
			Threads: *genThreads, Events: *genEvents, Shape: *genFlag, Races: *genRaces,
		})
	}
	fmt.Printf("generated %s (threads=%d): %s\n", *genFlag, tr.NumThreads(), repro.TraceStats(tr))
	return analyze(tr, engines)
}

// selectEngines resolves the -engine/-window/-budget flags.
func selectEngines() ([]repro.Engine, error) {
	cfg := repro.EngineConfig{Window: *window, Budget: *budget}
	if *window == 0 {
		// The flag's 0 means "whole trace"; EngineConfig's 0 means "default
		// window", so map it to the explicit whole-trace value.
		cfg.Window = -1
	}
	if *engineFlag == "all" {
		return repro.AllEngines(cfg), nil
	}
	e, err := repro.NewEngine(*engineFlag, cfg)
	if err != nil {
		return nil, err
	}
	return []repro.Engine{e}, nil
}

func run(paths []string) error {
	engines, err := selectEngines()
	if err != nil {
		return err
	}
	if *stream {
		if *vindicate > 0 {
			return fmt.Errorf("-vindicate needs the materialized trace; drop -stream")
		}
		return runBatch(paths, engines)
	}
	if len(paths) == 1 {
		tr, err := repro.ReadTraceFile(paths[0])
		if err != nil {
			return err
		}
		fmt.Printf("trace: %s\n", repro.TraceStats(tr))
		return analyze(tr, engines)
	}
	if *vindicate > 0 {
		return fmt.Errorf("-vindicate requires a single trace file (got %d)", len(paths))
	}
	return runBatch(paths, engines)
}

// analyze checks a loaded trace's well-formedness, then runs the selected
// engines over it, concurrently with -parallel.
func analyze(tr *repro.Trace, engines []repro.Engine) error {
	if err := repro.ValidateTrace(tr); err != nil {
		return fmt.Errorf("invalid trace: %w", err)
	}
	var results []*repro.EngineResult
	if *parallel {
		results = repro.RunEngines(context.Background(), tr, engines)
	} else {
		for _, e := range engines {
			results = append(results, e.Analyze(tr))
		}
	}
	for _, res := range results {
		printResult(tr.Symbols, res)
	}
	if *vindicate > 0 {
		runVindicate(tr, *vindicate)
	}
	return nil
}

// runBatch fans the trace files out across the worker pool and prints each
// file's block as its analysis completes.
func runBatch(paths []string, engines []repro.Engine) error {
	corpus := make([]repro.TraceSource, len(paths))
	for i, p := range paths {
		p := p
		if *stream {
			// Streamable source: engines that support it analyze the file
			// block by block, never materializing the trace.
			corpus[i] = repro.NewFileTraceSource(p)
		} else {
			corpus[i] = repro.TraceSource{Name: p, Load: func() (*repro.Trace, error) { return repro.ReadTraceFile(p) }}
		}
	}
	start := time.Now()
	failed := 0
	for res := range repro.AnalyzeTraceCorpus(context.Background(), corpus, engines, *jobs) {
		if res.Err != nil {
			failed++
			fmt.Printf("=== %s: error: %v\n", res.Name, res.Err)
			continue
		}
		var b strings.Builder
		fmt.Fprintf(&b, "=== %s (%v)\n", res.Name, res.Duration.Round(time.Millisecond))
		fmt.Fprintf(&b, "trace: %+v\n", res.Stats)
		fmt.Print(b.String())
		for _, er := range res.Results {
			printResult(res.Symbols, er)
		}
	}
	fmt.Printf("batch: %d file(s), %d failed, %v total (%d worker(s))\n",
		len(paths), failed, time.Since(start).Round(time.Millisecond), jobsWidth(len(paths)))
	if failed > 0 {
		return fmt.Errorf("%d of %d file(s) failed", failed, len(paths))
	}
	return nil
}

func jobsWidth(files int) int {
	n := *jobs
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n > files {
		n = files
	}
	return n
}

// printResult renders one engine result; syms supplies symbol names for
// the race-pair listing.
func printResult(syms *repro.Symbols, res *repro.EngineResult) {
	if res.Err != nil {
		fmt.Printf("%-9s error: %v\n", res.Engine+":", res.Err)
		return
	}
	fmt.Printf("%-9s %d distinct race pair(s) in %v; %s\n",
		res.Engine+":", res.Distinct(), res.Duration.Round(time.Millisecond), res.Summary)
	if syms != nil && res.Report != nil && !*quiet && res.Distinct() > 0 {
		fmt.Println(res.Report.Format(syms))
	}
}

// runVindicate certifies reported WCP race pairs with witness schedules
// (Theorem 1 made actionable).
func runVindicate(tr *repro.Trace, maxPairs int) {
	start := time.Now()
	vs := repro.VindicateWCPRaces(tr, maxPairs, repro.SearchBudget{Nodes: 500_000})
	fmt.Printf("vindicate: %d event pair(s) certified in %v\n", len(vs), time.Since(start).Round(time.Millisecond))
	for _, v := range vs {
		fmt.Printf("  (%s, %s): %s\n",
			tr.Symbols.Describe(tr.Events[v.Pair.First]),
			tr.Symbols.Describe(tr.Events[v.Pair.Second]),
			v.Verdict)
		if !*quiet && v.Witness != nil {
			fmt.Printf("    witness: %d-event schedule ending ", len(v.Witness))
			if v.Verdict == repro.VerdictRace {
				fmt.Printf("with the racing accesses back to back\n")
			} else {
				fmt.Printf("in a deadlock\n")
			}
		}
	}
}
