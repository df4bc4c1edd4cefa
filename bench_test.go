package repro

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/event"
	"repro/internal/gen"
	"repro/internal/hb"
	"repro/internal/predict"
	"repro/internal/trace"
	"repro/internal/traceio"
	"repro/internal/window"
)

// This file regenerates the paper's evaluation artifacts as Go benchmarks:
//
//   - BenchmarkTable1: columns 6–7 and 12–13 of Table 1 — WCP and HB
//     analysis over each benchmark's whole trace (races are asserted, time
//     and memory are the measurements; events/s is reported as a metric).
//   - BenchmarkTable1Predict: columns 8–9 and 14–15 — the RVPredict
//     substitute at the two reported window/budget points.
//   - BenchmarkFigure7: the window×budget sweep for eclipse/ftpserver/derby.
//   - BenchmarkScalingWCP/HB: Theorem 3 — linear time in trace length
//     (compare events/s across sizes).
//   - BenchmarkLowerBoundSpace: Theorems 4–5 — queue growth on the Figure-8
//     family (queue entries reported as a metric).
//   - BenchmarkAblationWindowedWCP: the design-choice ablation called out
//     in DESIGN.md (windowed vs whole-trace WCP).
//
// Absolute numbers differ from the paper's (scaled synthetic workloads on
// different hardware); EXPERIMENTS.md records the shape comparison.

// table1Scale keeps the per-iteration cost of the full table benchmarks
// moderate; cmd/experiments runs the full-scale version.
const table1Scale = 0.25

var traceCache = map[string]*trace.Trace{}

func benchTrace(b *testing.B, name string, scale float64) *trace.Trace {
	b.Helper()
	key := fmt.Sprintf("%s@%g", name, scale)
	if tr, ok := traceCache[key]; ok {
		return tr
	}
	bench, ok := gen.ByName(name)
	if !ok {
		b.Fatalf("unknown benchmark %s", name)
	}
	tr := bench.Generate(scale)
	traceCache[key] = tr
	return tr
}

func reportEventsPerSec(b *testing.B, events int) {
	b.ReportMetric(float64(events)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkTable1 measures whole-trace WCP and HB analysis per benchmark
// (Table 1 columns 6–7, 12–13) and asserts the distinct-race-pair counts.
func BenchmarkTable1(b *testing.B) {
	for _, bench := range gen.Benchmarks {
		bench := bench
		tr := benchTrace(b, bench.Name, table1Scale)
		b.Run(bench.Name+"/WCP", func(b *testing.B) {
			var races int
			for i := 0; i < b.N; i++ {
				races = core.Detect(tr).Report.Distinct()
			}
			if races != bench.WCPRaces() {
				b.Fatalf("WCP races = %d, want %d", races, bench.WCPRaces())
			}
			reportEventsPerSec(b, tr.Len())
		})
		b.Run(bench.Name+"/HB", func(b *testing.B) {
			var races int
			for i := 0; i < b.N; i++ {
				races = hb.Detect(tr).Report.Distinct()
			}
			if races != bench.HBRaces {
				b.Fatalf("HB races = %d, want %d", races, bench.HBRaces)
			}
			reportEventsPerSec(b, tr.Len())
		})
	}
}

// BenchmarkTable1Predict measures the windowed predictive engine at the
// paper's two reported parameter points (Table 1 columns 8–9, 14–15), on
// the three benchmarks Figure 7 highlights.
func BenchmarkTable1Predict(b *testing.B) {
	points := []struct {
		window, budget int
		label          string
	}{
		{1000, 60 * NodesPerSolverSecond, "w1K_b60"},
		{10000, 240 * NodesPerSolverSecond, "w10K_b240"},
	}
	for _, name := range []string{"derby", "ftpserver", "eclipse"} {
		tr := benchTrace(b, name, 0.1)
		for _, pt := range points {
			pt := pt
			b.Run(name+"/"+pt.label, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					predict.Detect(tr, predict.Options{WindowSize: pt.window, WindowBudget: pt.budget})
				}
				reportEventsPerSec(b, tr.Len())
			})
		}
	}
}

// BenchmarkFigure7 sweeps the predictive engine over the full window×budget
// grid for one benchmark, reporting races found per configuration as a
// metric (the bars of Figure 7).
func BenchmarkFigure7(b *testing.B) {
	tr := benchTrace(b, "ftpserver", 0.2)
	for _, w := range Figure7Windows {
		for _, s := range Figure7Budgets {
			w, s := w, s
			b.Run(fmt.Sprintf("w%d/s%d", w, s), func(b *testing.B) {
				races := 0
				for i := 0; i < b.N; i++ {
					res := predict.Detect(tr, predict.Options{WindowSize: w, WindowBudget: s * NodesPerSolverSecond})
					races = res.Report.Distinct()
				}
				b.ReportMetric(float64(races), "races")
			})
		}
	}
}

// BenchmarkScalingWCP demonstrates Theorem 3: WCP analysis time is linear
// in the number of events (events/s should be roughly flat across sizes).
func BenchmarkScalingWCP(b *testing.B) {
	for _, scale := range []float64{0.25, 0.5, 1.0, 2.0} {
		tr := benchTrace(b, "montecarlo", scale)
		b.Run(fmt.Sprintf("events_%d", tr.Len()), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.DetectOpts(tr, core.Options{})
			}
			reportEventsPerSec(b, tr.Len())
		})
	}
}

// BenchmarkScalingHB is the HB counterpart of BenchmarkScalingWCP, the
// paper's scalability baseline.
func BenchmarkScalingHB(b *testing.B) {
	for _, scale := range []float64{0.25, 0.5, 1.0, 2.0} {
		tr := benchTrace(b, "montecarlo", scale)
		b.Run(fmt.Sprintf("events_%d", tr.Len()), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				hb.DetectOpts(tr, hb.Options{})
			}
			reportEventsPerSec(b, tr.Len())
		})
	}
}

// threadScalingT is the thread-count dimension of the thread-scaling
// matrix; threadScalingEvents holds the event count fixed so the only
// variable is T.
var threadScalingT = []int{8, 64, 256, 1024}

const threadScalingEvents = 60_000

var threadScalingCache = map[string]*trace.Trace{}

func threadScalingTrace(b *testing.B, shape string, threads int) *trace.Trace {
	b.Helper()
	key := fmt.Sprintf("%s@%d", shape, threads)
	if tr, ok := threadScalingCache[key]; ok {
		return tr
	}
	tr := gen.ThreadScaling(gen.ThreadScalingConfig{
		Threads: threads, Events: threadScalingEvents, Shape: shape, Races: 4,
	})
	threadScalingCache[key] = tr
	return tr
}

// BenchmarkThreadScalingWCP sweeps the thread count T ∈ {8,64,256,1024} at
// a fixed event count across the three scenario shapes (disjoint-pool
// thread pools, fork/join waves, one hot global lock): the regime where
// dense vector clocks pay O(T) per operation and the windowed clocks (see
// internal/vc) must not. events/s across T is the metric; GOMAXPROCS is
// irrelevant (the detector is single-threaded).
func BenchmarkThreadScalingWCP(b *testing.B) {
	for _, shape := range gen.ThreadScalingShapes {
		for _, threads := range threadScalingT {
			tr := threadScalingTrace(b, shape, threads)
			b.Run(fmt.Sprintf("%s/T%d", shape, threads), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					core.DetectOpts(tr, core.Options{})
				}
				reportEventsPerSec(b, tr.Len())
			})
		}
	}
}

// BenchmarkThreadScalingHB is the HB counterpart of
// BenchmarkThreadScalingWCP.
func BenchmarkThreadScalingHB(b *testing.B) {
	for _, shape := range gen.ThreadScalingShapes {
		for _, threads := range threadScalingT {
			tr := threadScalingTrace(b, shape, threads)
			b.Run(fmt.Sprintf("%s/T%d", shape, threads), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					hb.DetectOpts(tr, hb.Options{})
				}
				reportEventsPerSec(b, tr.Len())
			})
		}
	}
}

// BenchmarkLowerBoundSpace measures Algorithm 1 on the Figure-8 family
// (Theorems 4–5): the queue high-water mark, reported as a metric, grows
// linearly with n while throughput stays linear.
func BenchmarkLowerBoundSpace(b *testing.B) {
	for _, n := range []int{16, 64, 256, 1024} {
		n := n
		u := gen.BitsFromUint(0, n)
		tr := gen.LowerBound(u, u)
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			var q int
			for i := 0; i < b.N; i++ {
				q = core.DetectOpts(tr, core.Options{}).QueueMaxTotal
			}
			b.ReportMetric(float64(q), "queue-entries")
			b.ReportMetric(float64(q)/float64(tr.Len()), "queue-frac")
		})
	}
}

// BenchmarkAblationWindowedWCP quantifies what the paper's core argument —
// no windowing needed — buys: WCP run per window finds fewer races than
// WCP run whole-trace on the same workload.
func BenchmarkAblationWindowedWCP(b *testing.B) {
	tr := benchTrace(b, "derby", table1Scale)
	b.Run("whole", func(b *testing.B) {
		races := 0
		for i := 0; i < b.N; i++ {
			races = core.Detect(tr).Report.Distinct()
		}
		b.ReportMetric(float64(races), "races")
	})
	b.Run("w1K", func(b *testing.B) {
		races := 0
		for i := 0; i < b.N; i++ {
			total := NewReport()
			for _, w := range window.Split(tr, 1000) {
				total.Merge(core.Detect(w).Report)
			}
			races = total.Distinct()
		}
		b.ReportMetric(float64(races), "races")
	})
}

// batchCorpus builds an in-memory corpus of medium generated traces for
// the batch-analysis benchmarks.
func batchCorpus(b *testing.B, files int) ([]engine.Source, int) {
	b.Helper()
	corpus := make([]engine.Source, files)
	events := 0
	for i := range corpus {
		tr := gen.Random(gen.RandomConfig{Seed: int64(i + 1), Events: 30_000, Threads: 6, Locks: 8, Vars: 24})
		events += tr.Len()
		corpus[i] = engine.TraceSource(fmt.Sprintf("trace-%d", i), tr)
	}
	return corpus, events
}

// streamedCorpus re-encodes corpus as binary traces in memory, streamable
// through Source.Open as file sources are.
func streamedCorpus(b *testing.B, corpus []engine.Source) []engine.Source {
	b.Helper()
	out := make([]engine.Source, len(corpus))
	for i, src := range corpus {
		tr, err := src.Load()
		if err != nil {
			b.Fatal(err)
		}
		var data bytes.Buffer
		if err := traceio.WriteBinary(&data, tr); err != nil {
			b.Fatal(err)
		}
		enc := data.Bytes()
		out[i] = engine.Source{
			Name: src.Name,
			Load: func() (*trace.Trace, error) { return traceio.ReadBinary(bytes.NewReader(enc)) },
			Open: func() (*traceio.Stream, error) { return traceio.OpenStream(bytes.NewReader(enc)) },
		}
	}
	return out
}

// BenchmarkBatchAnalysis compares the serial corpus loop against the
// worker-pool runner on the same corpus and engines: the parallel variant
// should win by roughly the core count on multi-core hardware (events/s is
// the comparable metric). The streamed_ variants run the corpus binary-
// encoded through Source.Open: each trace is decoded once and wcp and hb
// run concurrently on its blocks, so streamed_serial shows that fan-out,
// and streamed_parallel_jN, with GOMAXPROCS traces in flight, shows it
// oversubscribing the cores.
func BenchmarkBatchAnalysis(b *testing.B) {
	corpus, events := batchCorpus(b, 2*runtime.GOMAXPROCS(0))
	streamed := streamedCorpus(b, corpus)
	engines := []engine.Engine{engine.MustNew("wcp", engine.Config{}), engine.MustNew("hb", engine.Config{})}
	jN := fmt.Sprintf("_j%d", runtime.GOMAXPROCS(0))
	for _, c := range []struct {
		name   string
		corpus []engine.Source
		jobs   int
	}{
		{"serial", corpus, 1},
		{"parallel" + jN, corpus, 0},
		{"streamed_serial", streamed, 1},
		{"streamed_parallel" + jN, streamed, 0},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for res := range engine.AnalyzeCorpus(context.Background(), c.corpus, engines, c.jobs) {
					if res.Err != nil {
						b.Fatal(res.Err)
					}
				}
			}
			reportEventsPerSec(b, events*len(engines))
		})
	}
}

// BenchmarkEngineFanout compares running all engines over one trace
// serially against the concurrent fan-out (each engine walks the shared
// trace with its own cursor).
func BenchmarkEngineFanout(b *testing.B) {
	tr := benchTrace(b, "montecarlo", 0.5)
	engines := engine.All(engine.Config{})
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, e := range engines {
				e.Analyze(tr)
			}
		}
		reportEventsPerSec(b, tr.Len()*len(engines))
	})
	b.Run("fanout", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			engine.RunAll(context.Background(), tr, engines)
		}
		reportEventsPerSec(b, tr.Len()*len(engines))
	})
}

// BenchmarkStreamingWCP measures the per-event cost of the streaming
// detector without whole-trace materialization overheads.
func BenchmarkStreamingWCP(b *testing.B) {
	tr := benchTrace(b, "xalan", table1Scale)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := core.NewDetector(tr.NumThreads(), tr.NumLocks(), tr.NumVars(), core.Options{})
		for _, e := range tr.Events {
			d.Process(e)
		}
	}
	reportEventsPerSec(b, tr.Len())
}

// BenchmarkShortSessionsWCP measures the detector side of many short
// low-thread sessions: one wcp engine session per trace over six Table-1
// traces at scale 0.2 (T 3–13, four of them dense), fed in 512-event
// blocks that are built before the timer starts.
func BenchmarkShortSessionsWCP(b *testing.B) {
	type input struct {
		tr     *trace.Trace
		blocks []*trace.Block
	}
	var inputs []input
	events := 0
	for _, name := range []string{"ftpserver", "derby", "jigsaw", "xalan", "moldyn", "raytracer"} {
		in := input{tr: benchTrace(b, name, 0.2)}
		for at := 0; at < in.tr.Len(); at += 512 {
			in.blocks = append(in.blocks, trace.BlockOf(in.tr.Events[at:min(at+512, in.tr.Len())]))
		}
		inputs = append(inputs, in)
		events += in.tr.Len()
	}
	e := engine.MustNew("wcp", engine.Config{}).(engine.SessionEngine)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, in := range inputs {
			s := e.NewSession(in.tr.NumThreads(), in.tr.NumLocks(), in.tr.NumVars())
			for _, blk := range in.blocks {
				s.ProcessBlock(blk)
			}
			s.Finish()
		}
	}
	reportEventsPerSec(b, events)
}

// BenchmarkStreamingIngestWCP measures the full streaming-ingestion path:
// binary blocks decoded straight into the WCP detector through one reused
// buffer, the trace never materialized. With -benchmem, allocs/op here is
// dominated by the one-time header decode — the synthetic workload's
// builder assigns a distinct default location to every unlocated event, so
// its symbol table is pathologically large relative to its length — while
// the per-event decode+step loop allocates nothing
// (TestStreamingBoundsMaterialization pins that side).
func BenchmarkStreamingIngestWCP(b *testing.B) {
	tr := benchTrace(b, "montecarlo", 1.0)
	var data bytes.Buffer
	if err := traceio.WriteBinary(&data, tr); err != nil {
		b.Fatal(err)
	}
	raw := data.Bytes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := traceio.OpenStream(bytes.NewReader(raw))
		if err != nil {
			b.Fatal(err)
		}
		dims, known := st.Dims()
		if !known {
			b.Fatal("binary stream must declare dims")
		}
		d := core.NewDetector(dims.Threads, dims.Locks, dims.Vars, core.Options{})
		buf := make([]event.Event, traceio.DefaultBlockSize)
		for {
			n, err := st.NextBlock(buf)
			for _, e := range buf[:n] {
				d.Process(e)
			}
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	reportEventsPerSec(b, tr.Len())
}

// BenchmarkCheckBlock measures the §2.1 checker that every streamed block
// passes before a detector sees it (trace.Checker), in ns/event over
// decode-sized blocks: four Table-1 traces and serve-wide's shape, pools
// at T = 256.
func BenchmarkCheckBlock(b *testing.B) {
	traces := map[string]*trace.Trace{
		"pools/T256": gen.ThreadScaling(gen.ThreadScalingConfig{Threads: 256, Events: 400_000, Shape: "pools", Races: 4}),
	}
	for _, name := range []string{"xalan", "eclipse", "montecarlo", "derby"} {
		traces[name] = benchTrace(b, name, table1Scale)
	}
	for _, name := range []string{"xalan", "eclipse", "montecarlo", "derby", "pools/T256"} {
		tr := traces[name]
		var blocks []*trace.Block
		for at := 0; at < tr.Len(); at += traceio.DefaultBlockSize {
			blocks = append(blocks, trace.BlockOf(tr.Events[at:min(at+traceio.DefaultBlockSize, tr.Len())]))
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c, at := trace.NewChecker(tr.Symbols), 0
				for _, blk := range blocks {
					if err := c.CheckBlock(blk, at); err != nil {
						b.Fatal(err)
					}
					at += blk.Len()
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(tr.Len()), "ns/event")
		})
	}
}
