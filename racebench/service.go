package main

import (
	"context"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/client"
)

// The serving workloads are closed loops: client.Session.Stream is
// synchronous, so each client sends its next chunk only after the ack.

// serveSpec is one serving workload's shape.
type serveSpec struct {
	sys     systemConfig
	clients int      // concurrent load goroutines
	chunk   int      // events per chunk
	engines []string // requested per session; nil takes the server default
	// served are the engines the server runs, for the replay.
	served []string
	// warmup is how many sessions each client runs during set-up.
	warmup int
	// window groups samples into fixed time windows; 0 makes every session
	// a window of its own (see robust.go).
	window time.Duration
}

// serve-wide: one client (two concurrent T=256 sessions on two cores swing
// events_per_s by a quarter between runs), the client's default 4096-event
// chunks, wcp and hb.
var wideSpec = serveSpec{
	sys:     systemConfig{},
	clients: 1,
	chunk:   4096,
	engines: []string{"wcp", "hb"},
	served:  []string{"wcp", "hb"},
	warmup:  1,
}

// fleet-small: two clients through a coordinator with two workers, 512-event
// chunks proxied (no FollowPlacement), the server-default engine wcp, and
// checkpoint pulls often enough that a phase sees many of them.
var fleetSpec = serveSpec{
	sys:     systemConfig{workers: 2, pullEvery: 100 * time.Millisecond},
	clients: 2,
	chunk:   512,
	served:  []string{"wcp"},
	warmup:  6,
	window:  fleetWindow,
}

func runServeWide(ctx context.Context, cfg config, env *runEnv) (metrics, ops, error) {
	return runServing(ctx, cfg, env, wideSpec)
}

func runFleetSmall(ctx context.Context, cfg config, env *runEnv) (metrics, ops, error) {
	return runServing(ctx, cfg, env, fleetSpec)
}

// servedSession is a session streamed while tracing was on, for the replay.
type servedSession struct {
	in    *input
	trace string
}

// phaseStats is what the clients measured over one phase.
type phaseStats struct {
	start, deadline time.Time
	units           []*unitRec // every session the phase started
	events          int64      // events acknowledged by the deadline
	allEvents       int64      // every event streamed, the tail sessions' too
	ops             ops
	sessions        []servedSession
}

func (p *phaseStats) merge(q *phaseStats) {
	p.units = append(p.units, q.units...)
	p.events += q.events
	p.allEvents += q.allEvents
	p.ops.merge(q.ops)
	p.sessions = append(p.sessions, q.sessions...)
}

// chunkMeanMs is the mean one-chunk call latency of every session the
// phase started.
func (p *phaseStats) chunkMeanMs() float64 {
	var xs []float64
	for _, u := range p.units {
		for _, c := range u.chunks {
			xs = append(xs, c.ms)
		}
	}
	return mean(xs)
}

// selected applies the workload's window rule to the phase.
func (p *phaseStats) selected(spec serveSpec) *selection {
	if spec.window > 0 {
		return fasterWindows(p.units, p.start, p.deadline, spec.window)
	}
	return fasterUnits(p.units)
}

func (p *phaseStats) seconds() float64 { return p.deadline.Sub(p.start).Seconds() }

// servingRig is a started deployment with its inputs.
type servingRig struct {
	spec serveSpec
	set  *inputSet
	sys  *system
	rec  *recorder
	env  *runEnv
}

// setUpServing generates the inputs, starts the deployment and warms it up.
func setUpServing(ctx context.Context, cfg config, env *runEnv, spec serveSpec, rec *recorder) (*servingRig, ops, error) {
	set, err := makeInputs(cfg.workload, cfg.seed)
	if err != nil {
		return nil, ops{}, err
	}
	if cfg.mutate != nil {
		cfg.mutate(set)
	}
	sys, err := startSystem(ctx, spec.sys, rec)
	if err != nil {
		return nil, ops{}, err
	}
	r := &servingRig{spec: spec, set: set, sys: sys, rec: rec, env: env}
	warm, err := r.runClients(ctx, 0)
	if err != nil {
		sys.close(context.Background())
		return nil, ops{}, err
	}
	return r, warm.ops, nil
}

// runClients runs the workload's clients: for phase seconds when phase > 0,
// else spec.warmup sessions each. Sessions still open at the deadline run
// to completion, so every one is checked, but only what completed by the
// deadline is timed.
func (r *servingRig) runClients(ctx context.Context, phase time.Duration) (*phaseStats, error) {
	all := &phaseStats{start: time.Now()}
	if phase > 0 {
		all.deadline = all.start.Add(phase)
	}
	stats := make([]phaseStats, r.spec.clients)
	errs := make([]error, r.spec.clients)
	var wg sync.WaitGroup
	for c := 0; c < r.spec.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			st := &stats[c]
			st.deadline = all.deadline
			for i := c; ; i += r.spec.clients {
				if phase > 0 && !time.Now().Before(all.deadline) {
					return
				}
				if phase == 0 && i/r.spec.clients >= r.spec.warmup {
					return
				}
				in := r.set.inputs[i%len(r.set.inputs)]
				err := r.session(ctx, in, st)
				st.ops.add(err, r.env.log, in.name)
				if ctx.Err() != nil {
					errs[c] = ctx.Err()
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for c := range stats {
		if errs[c] != nil {
			return nil, errs[c]
		}
		all.merge(&stats[c])
	}
	return all, nil
}

// session streams one input through Open, one-chunk Streams and Finish, and
// checks the reply against the reference. A timed phase (non-zero
// deadline) records the session's timings.
func (r *servingRig) session(ctx context.Context, in *input, st *phaseStats) error {
	ccfg := client.Config{BaseURL: r.sys.url, Engines: r.spec.engines, HTTPClient: r.sys.client, ChunkEvents: r.spec.chunk}
	traced := r.rec != nil && r.rec.on.Load()
	u := &unitRec{start: time.Now()}
	if !st.deadline.IsZero() {
		st.units = append(st.units, u)
	}
	octx, end := r.rec.beginOp(ctx, routeCreate)
	s, err := client.Open(octx, ccfg, in.tr.Symbols)
	if err != nil {
		end("", "", 0)
		return fmt.Errorf("open: %w", err)
	}
	end(s.Trace(), "", 0)
	if traced {
		st.sessions = append(st.sessions, servedSession{in: in, trace: s.Trace()})
	}
	evs := in.tr.Events
	for off := 0; off < len(evs); off += r.spec.chunk {
		n := min(r.spec.chunk, len(evs)-off)
		cctx, end := r.rec.beginOp(ctx, routeChunk)
		c0 := time.Now()
		err := s.Stream(cctx, evs[off:off+n], uint64(off))
		c1 := time.Now()
		end(s.Trace(), strconv.Itoa(off), n)
		if err != nil {
			s.Abort(ctx)
			return fmt.Errorf("chunk at %d: %w", off, err)
		}
		u.chunks = append(u.chunks, chunkSample{at: c1, ms: ms(c1.Sub(c0)), events: n})
		u.events += n
		st.allEvents += int64(n)
		if c1.Before(st.deadline) {
			st.events += int64(n)
		}
	}
	fctx, end := r.rec.beginOp(ctx, routeFinish)
	f0 := time.Now()
	fin, err := s.Finish(fctx)
	f1 := time.Now()
	end(s.Trace(), strconv.Itoa(len(evs)), 0)
	if err != nil {
		return fmt.Errorf("finish: %w", err)
	}
	u.end, u.finishMs, u.finished = f1, ms(f1.Sub(f0)), true
	return checkFinish(in, fin)
}

// runServing is the end-to-end run, or the traced one with cfg.traced.
func runServing(ctx context.Context, cfg config, env *runEnv, spec serveSpec) (metrics, ops, error) {
	if cfg.traced {
		return runServingTraced(ctx, cfg, env, spec)
	}
	var total ops
	var setups []float64
	var rig *servingRig
	for round := 1; round <= setupRounds; round++ {
		env.setPhase(fmt.Sprintf("setup %d/%d", round, setupRounds))
		t0 := time.Now()
		r, warm, err := setUpServing(ctx, cfg, env, spec, nil)
		if err != nil {
			return nil, total, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		total.merge(warm)
		if round < setupRounds {
			env.setPhase(fmt.Sprintf("teardown %d/%d", round, setupRounds))
			if err := r.sys.close(ctx); err != nil {
				return nil, total, err
			}
			runtime.GC()
			continue
		}
		rig = r
	}
	fmt.Fprintf(env.log, "racebench: seed=%d inputs=%d events=%d sha256=%s\n", cfg.seed, len(rig.set.inputs), rig.set.events, rig.set.digest)

	env.setPhase("timed phase")
	hw := startHeapWatch()
	st, err := rig.runClients(ctx, cfg.phaseDur())
	hw.finish()
	if err != nil {
		rig.sys.close(context.Background())
		return nil, total, err
	}
	total.merge(st.ops)
	env.setPhase("teardown")
	if err := rig.sys.close(ctx); err != nil {
		return nil, total, err
	}

	m := metrics{}
	sel := st.selected(spec)
	sel.endToEnd(m)
	m.set("heap_peak_mb", "MB", hw.peakMB())
	m.set("setup_s", "s", median(setups))
	fmt.Fprintf(env.log, "racebench: windows %d of %d; samples chunks=%d finishes=%d sessions=%d; whole-phase events/s=%.0f\n",
		sel.windows, sel.of, len(sel.chunkMs), len(sel.finishMs), len(sel.sessionMs), float64(st.events)/st.seconds())
	return m, total, nil
}

// runServingTraced sets up once, runs an untraced phase (the reference for
// the trace overhead and the layer sum) and a traced one, replays the
// traced sessions layer by layer, and cross-checks the split against the
// program's own /metrics.
func runServingTraced(ctx context.Context, cfg config, env *runEnv, spec serveSpec) (metrics, ops, error) {
	rec := newRecorder()
	env.setPhase("setup")
	rig, total, err := setUpServing(ctx, cfg, env, spec, rec)
	if err != nil {
		return nil, total, err
	}
	defer rig.sys.close(context.Background())
	fmt.Fprintf(env.log, "racebench: seed=%d inputs=%d events=%d sha256=%s\n", cfg.seed, len(rig.set.inputs), rig.set.events, rig.set.digest)

	env.setPhase("untraced phase")
	hw := startHeapWatch()
	plain, err := rig.runClients(ctx, cfg.phaseDur())
	hw.finish()
	if err != nil {
		return nil, total, err
	}
	total.merge(plain.ops)

	env.setPhase("traced phase")
	rec.on.Store(true)
	traced, err := rig.runClients(ctx, cfg.phaseDur())
	rec.on.Store(false)
	if err != nil {
		return nil, total, err
	}
	total.merge(traced.ops)

	env.setPhase("replay")
	l := newLayerAcc()
	costs, err := replayServed(ctx, l, traced.sessions, spec.served, spec.chunk, cfg.phaseDur()/4)
	if err != nil {
		return nil, total, err
	}
	m := layerMetrics()
	l.emit(m)
	fleetMode := spec.sys.workers > 0
	split := splitSpans(rec.snapshot(), costs, fleetMode)
	split.emit(m, fleetMode, plain.chunkMeanMs(), traced.seconds(), spec.sys.workers)

	env.setPhase("cross-check")
	if err := crossCheck(ctx, rig.sys, l, m, env.log); err != nil {
		return nil, total, err
	}
	m.setv("gc.alloc_bytes_per_event", ratio(float64(hw.allocs), float64(plain.allEvents)))
	m.setv("gc.cycles", float64(hw.cycles))
	plainRate, tracedRate := plain.selected(spec).rate(), traced.selected(spec).rate()
	m.setv("bench.trace_overhead_pct", 100*ratio(plainRate-tracedRate, plainRate))
	fmt.Fprintf(env.log, "racebench: traced chunks=%d replayed=%d rejects by status=%v untraced events/s=%.0f traced events/s=%.0f\n",
		len(split.clientSelf), split.replayChunks, split.rejects, plainRate, tracedRate)

	env.setPhase("teardown")
	if err := rig.sys.close(ctx); err != nil {
		return nil, total, err
	}
	return m, total, nil
}
