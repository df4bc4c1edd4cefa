package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/engine"
	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/traceio"
)

// batch-table1 is the paper's own evaluation on the rapid path:
// engine.AnalyzeCorpus with jobs=1 over the eight largest Table-1 traces,
// binary-encoded in memory and opened through Source.Open, wcp then hb,
// passes back to back. One trace at a time leaves the decoder goroutine of
// the pipelined driver as the only parallelism.

var batchEngines = []string{"wcp", "hb"}

type batchRig struct {
	set     *inputSet
	corpus  []engine.Source
	engines []engine.Engine
	// queue is each trace's QueueMaxTotal from its first analysis in this
	// run; every later analysis of the same seed must repeat it exactly.
	queue map[string]int
	env   *runEnv
}

func newBatchRig(cfg config, env *runEnv, queue map[string]int) (*batchRig, error) {
	set, err := makeInputs(cfg.workload, cfg.seed)
	if err != nil {
		return nil, err
	}
	if cfg.mutate != nil {
		cfg.mutate(set)
	}
	r := &batchRig{set: set, queue: queue, env: env}
	for _, n := range batchEngines {
		r.engines = append(r.engines, engine.MustNew(n, engine.Config{}))
	}
	for _, in := range set.inputs {
		enc := in.enc
		r.corpus = append(r.corpus, engine.Source{
			Name: in.name,
			Load: func() (*trace.Trace, error) { return traceio.ReadBinary(bytes.NewReader(enc)) },
			Open: func() (*traceio.Stream, error) { return traceio.OpenStream(bytes.NewReader(enc)) },
		})
	}
	return r, nil
}

// check compares one corpus entry with the reference.
func (r *batchRig) check(res engine.CorpusResult, in *input) error {
	if res.Err != nil {
		return res.Err
	}
	for _, er := range res.Results {
		if er.Err != nil {
			return fmt.Errorf("%s: %w", er.Engine, er.Err)
		}
	}
	if err := checkCounts(in, res.Stats.Events, distinctOf(res.Results)); err != nil {
		return err
	}
	q := res.Results[0].QueueMaxTotal
	if want, ok := r.queue[in.name]; ok && q != want {
		return fmt.Errorf("%s: wcp queue high-water %d, an earlier analysis of the same input gave %d", in.name, q, want)
	}
	r.queue[in.name] = q
	return nil
}

// batchStats is what one phase of passes measured.
type batchStats struct {
	start, end time.Time
	events     int64
	// units holds one record per pass: the wait for each CorpusResult as
	// its chunks, and the pass's AddReport total as its finish.
	units []*unitRec
	ops   ops
}

// pass runs AnalyzeCorpus over the corpus once, checking every result, then
// folds the pass's reports into a fresh store. A timed pass is recorded in
// st. The fold runs after the pass so nothing else competes with it.
func (r *batchRig) pass(ctx context.Context, timed bool, st *batchStats, rec *recorder) error {
	u := &unitRec{start: time.Now()}
	ch := engine.AnalyzeCorpus(ctx, r.corpus, r.engines, 1)
	prev := u.start
	var results []engine.CorpusResult
	_, endPass := rec.beginOp(ctx, "pass")
	for res := range ch {
		now := time.Now()
		in := r.set.inputs[res.Index]
		_, endTrace := rec.beginOp(ctx, "trace")
		st.ops.add(r.check(res, in), r.env.log, in.name)
		endTrace(in.name, "", in.events)
		u.chunks = append(u.chunks, chunkSample{at: now, ms: ms(now.Sub(prev)), events: in.events})
		u.events += in.events
		results = append(results, res)
		prev = now
	}
	u.end = time.Now()
	endPass("", "", 0)
	if err := ctx.Err(); err != nil {
		return err
	}
	store := report.NewStore()
	a0 := time.Now()
	for _, res := range results {
		for _, er := range res.Results {
			if er.Report != nil {
				store.AddReport(er.Engine, res.Name, er.Report, res.Symbols, a0)
			}
		}
	}
	u.finishMs = ms(time.Since(a0))
	u.finished = len(results) == len(r.corpus)
	if timed {
		st.units = append(st.units, u)
		st.events += int64(u.events)
	}
	return nil
}

// run repeats whole passes until the phase is over.
func (r *batchRig) run(ctx context.Context, phase time.Duration, rec *recorder) (*batchStats, error) {
	st := &batchStats{start: time.Now()}
	for deadline := st.start.Add(phase); time.Now().Before(deadline); {
		if err := r.pass(ctx, true, st, rec); err != nil {
			return nil, err
		}
	}
	st.end = time.Now()
	return st, nil
}

// rate is the whole phase's throughput.
func (st *batchStats) rate() float64 { return float64(st.events) / st.end.Sub(st.start).Seconds() }

// setUpBatch generates the inputs and warms up with one untimed pass.
func setUpBatch(ctx context.Context, cfg config, env *runEnv, queue map[string]int) (*batchRig, ops, error) {
	r, err := newBatchRig(cfg, env, queue)
	if err != nil {
		return nil, ops{}, err
	}
	warm := &batchStats{}
	if err := r.pass(ctx, false, warm, nil); err != nil {
		return nil, warm.ops, err
	}
	return r, warm.ops, nil
}

func runBatch(ctx context.Context, cfg config, env *runEnv) (metrics, ops, error) {
	queue := map[string]int{}
	if cfg.traced {
		return runBatchTraced(ctx, cfg, env, queue)
	}
	var total ops
	var setups []float64
	var rig *batchRig
	for round := 1; round <= setupRounds; round++ {
		env.setPhase(fmt.Sprintf("setup %d/%d", round, setupRounds))
		rig = nil
		runtime.GC()
		t0 := time.Now()
		r, warm, err := setUpBatch(ctx, cfg, env, queue)
		total.merge(warm)
		if err != nil {
			return nil, total, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		rig = r
	}
	fmt.Fprintf(env.log, "racebench: seed=%d inputs=%d events=%d sha256=%s\n", cfg.seed, len(rig.set.inputs), rig.set.events, rig.set.digest)

	env.setPhase("timed phase")
	hw := startHeapWatch()
	st, err := rig.run(ctx, cfg.phaseDur(), nil)
	hw.finish()
	if err != nil {
		return nil, total, err
	}
	total.merge(st.ops)
	m := metrics{}
	sel := fasterUnits(st.units)
	sel.endToEnd(m)
	m.set("heap_peak_mb", "MB", hw.peakMB())
	m.set("setup_s", "s", median(setups))
	fmt.Fprintf(env.log, "racebench: passes %d of %d; traces=%d; whole-phase events/s=%.0f\n",
		sel.windows, sel.of, len(sel.chunkMs), st.rate())
	return m, total, nil
}

// runBatchTraced runs an untraced and a traced phase, then replays one pass
// of the corpus stage by stage: OpenStream alone, NextBlockSoA alone,
// ProcessBlock alone, against AnalyzeStream per engine.
func runBatchTraced(ctx context.Context, cfg config, env *runEnv, queue map[string]int) (metrics, ops, error) {
	env.setPhase("setup")
	rig, total, err := setUpBatch(ctx, cfg, env, queue)
	if err != nil {
		return nil, total, err
	}
	fmt.Fprintf(env.log, "racebench: seed=%d inputs=%d events=%d sha256=%s\n", cfg.seed, len(rig.set.inputs), rig.set.events, rig.set.digest)

	env.setPhase("untraced phase")
	hw := startHeapWatch()
	plain, err := rig.run(ctx, cfg.phaseDur(), nil)
	hw.finish()
	if err != nil {
		return nil, total, err
	}
	total.merge(plain.ops)

	env.setPhase("traced phase")
	rec := newRecorder()
	rec.on.Store(true)
	traced, err := rig.run(ctx, cfg.phaseDur(), rec)
	rec.on.Store(false)
	if err != nil {
		return nil, total, err
	}
	total.merge(traced.ops)

	env.setPhase("replay")
	l := newLayerAcc()
	replayOps, err := rig.replay(ctx, l)
	total.merge(replayOps)
	if err != nil {
		return nil, total, err
	}
	m := layerMetrics()
	l.emit(m)
	m.setv("bench.layer_sum_ratio", ratio(float64(l.stageSum), float64(l.analyze)))
	m.setv("gc.alloc_bytes_per_event", ratio(float64(hw.allocs), float64(plain.events)))
	m.setv("gc.cycles", float64(hw.cycles))
	plainRate, tracedRate := fasterUnits(plain.units).rate(), fasterUnits(traced.units).rate()
	m.setv("bench.trace_overhead_pct", 100*ratio(plainRate-tracedRate, plainRate))
	fmt.Fprintf(env.log, "racebench: traced spans=%d untraced events/s=%.0f traced events/s=%.0f\n",
		len(rec.snapshot()), plainRate, tracedRate)
	return m, total, nil
}

// replay times one pass of the corpus layer by layer. Each trace is
// decoded once; header and decode count once per engine pass in the stage
// sum, because AnalyzeCorpus opens and decodes a fresh stream per engine.
func (r *batchRig) replay(ctx context.Context, l *layerAcc) (ops, error) {
	var o ops
	store := report.NewStore()
	var blocks []*trace.Block
	var body bytes.Buffer
	for _, in := range r.set.inputs {
		if err := ctx.Err(); err != nil {
			return o, err
		}
		for _, e := range r.engines {
			t0 := time.Now()
			st, err := traceio.OpenStream(bytes.NewReader(in.enc))
			if err != nil {
				return o, err
			}
			if _, err := e.(engine.StreamAnalyzer).AnalyzeStream(ctx, st); err != nil {
				return o, err
			}
			l.analyze += time.Since(t0)
			l.analyzeEvents += int64(in.events)
		}

		t0 := time.Now()
		st, err := traceio.OpenStream(bytes.NewReader(in.enc))
		if err != nil {
			return o, err
		}
		header := time.Since(t0)
		dims, _ := st.Dims()
		t0 = time.Now()
		nb := 0
		for ; ; nb++ {
			if nb == len(blocks) {
				blocks = append(blocks, trace.NewBlock(traceio.DefaultBlockSize))
			}
			n, err := st.NextBlockSoA(blocks[nb])
			l.decodeCalls++
			if err == io.EOF {
				break
			}
			if err != nil {
				return o, err
			}
			l.decodeEvents += int64(n)
		}
		decode := time.Since(t0)
		l.header += header
		l.headerEvents += int64(in.events)
		l.decode += decode

		rs, err := l.openSessions(batchEngines, dims)
		if err != nil {
			return o, err
		}
		var process time.Duration
		for _, b := range blocks[:nb] {
			process += l.processBlock(rs, b)
		}
		results := l.finish(rs, store, in.name, st.Symbols())
		l.stageSum += time.Duration(len(r.engines))*(header+decode) + process
		o.add(checkCounts(in, int(st.Stats().Events), distinctOf(results)), r.env.log, in.name+" (replay)")

		for _, b := range blocks[:nb] {
			evs := b.Events()
			body.Reset()
			t0 := time.Now()
			if err := traceio.EncodeEvents(&body, evs); err != nil {
				return o, err
			}
			l.encode += time.Since(t0)
			l.encodeEvents += int64(len(evs))
			l.bodyBytes += int64(body.Len())
		}
	}
	return o, nil
}
