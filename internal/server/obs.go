package server

import (
	"context"
	"net/http"
	"runtime/pprof"
	"time"

	"repro/internal/obs"
)

// serverObs bundles the server's observability state: the metrics registry
// backing /metrics, the span ring backing /debug/trace and /debug/sessions,
// and the stage-timing instruments the ingest path samples.
//
// Sampling discipline: the ingest hot loop runs at tens of millions of
// events per second, so per-block stage timing (decode, per-engine process)
// fires only on every Nth block (Config.ObsSampleEvery). Per-chunk
// instruments (chunk latency, queue wait, counters) are unconditional —
// a chunk is thousands of events, so their cost is amortized to nothing.
type serverObs struct {
	reg      *obs.Registry
	trace    *obs.TraceLog
	name     string // worker name stamped into spans ("" single-node)
	sampleNs uint64 // sample stage timing every Nth block; 0 disables

	chunkIngest *obs.Histogram // whole-chunk ingest latency
	queueWait   *obs.Histogram // scheduler queue wait (sched.WaitObserve)
	decode      *obs.Histogram // sampled per-block decode latency
	checkpoint  *obs.Histogram // per-session checkpoint write latency
}

func newServerObs(cfg *Config) *serverObs {
	reg := obs.NewRegistry()
	o := &serverObs{
		reg:      reg,
		trace:    obs.NewTraceLog(cfg.TraceSpanCap),
		name:     cfg.Name,
		sampleNs: uint64(cfg.ObsSampleEvery),
		chunkIngest: reg.Histogram("raced_chunk_ingest_seconds",
			"Latency of one chunk's decode+analysis, measured inside the scheduler task.", nil),
		queueWait: reg.Histogram("raced_queue_wait_seconds",
			"Time a scheduler task waited between submission and dispatch.", nil),
		decode: reg.Histogram("raced_decode_seconds",
			"Sampled per-block decode latency (every Nth block, see -obs-sample).", nil),
		checkpoint: reg.Histogram("raced_checkpoint_seconds",
			"Latency of writing one session checkpoint.", nil),
	}
	return o
}

// engineHist returns the sampled per-block process-latency histogram for
// one engine. Called at session instrumentation time, never per block.
func (o *serverObs) engineHist(engine string) *obs.Histogram {
	return o.reg.Histogram("raced_engine_process_seconds",
		"Sampled per-block engine processing latency (every Nth block).",
		nil, obs.Label{Key: "engine", Value: engine})
}

// span records sp in the ring with this instance's worker name stamped in.
func (o *serverObs) span(sp obs.Span) {
	sp.Worker = o.name
	o.trace.Add(sp)
}

// engineObs is one engine's per-session instrumentation: its process
// histogram and a precomputed pprof label context (session=..., engine=...)
// so CPU profiles attribute hot loops to the session and engine burning
// them. Built once at session instrumentation; per-block application is a
// single runtime label store.
type engineObs struct {
	hist *obs.Histogram
	ctx  context.Context
}

// unlabeledCtx resets goroutine pprof labels after ingest returns the
// worker goroutine to the pool.
var unlabeledCtx = context.Background()

// instrument attaches the server's observability to a session (see
// Server.attach).
func (s *Server) instrument(sess *session) {
	sess.obs = s.obs
	sess.engObs = make([]engineObs, len(sess.names))
	sess.engNS = make([]int64, len(sess.names))
	for i, name := range sess.names {
		sess.engObs[i] = engineObs{
			hist: s.obs.engineHist(name),
			ctx: pprof.WithLabels(unlabeledCtx,
				pprof.Labels("session", sess.id, "engine", name)),
		}
	}
}

// registerMetrics wires every server-level series into the registry. The
// raced_* names predate the registry and are scraped by smoke scripts and
// dashboards — they are load-bearing, do not rename them.
func (s *Server) registerMetrics() {
	reg := s.obs.reg
	s.eventsIngested = reg.Counter("raced_events_ingested_total", "Events decoded and analyzed across all sessions.")
	s.chunksIngested = reg.Counter("raced_chunks_total", "Chunks accepted and analyzed.")
	s.sessionsCreated = reg.Counter("raced_sessions_created_total", "Sessions opened (including restores).")
	s.sessionsFinished = reg.Counter("raced_sessions_finished_total", "Sessions sealed via finish.")
	s.sessionsEvicted = reg.Counter("raced_sessions_evicted_total", "Idle sessions evicted by the janitor.")
	s.shed = reg.Counter("raced_shed_total", "Requests shed with 429 (queue or session-limit pressure).")
	s.chunksReplayed = reg.Counter("raced_chunks_replayed_total", "Chunks that replayed at least one acknowledged event.")
	s.eventsReplayed = reg.Counter("raced_events_replayed_total", "Events decoded but skipped as already acknowledged.")
	s.integrityRejects = reg.Counter("raced_chunk_integrity_rejects_total", "Requests rejected by CRC mismatch (422).")
	s.gapRejects = reg.Counter("raced_chunk_gap_rejects_total", "Chunks or finishes rejected because the client is ahead of the ack.")
	s.sessionsParked = reg.Counter("raced_sessions_pressure_parked_total", "Sessions parked by the memory-pressure ladder.")
	s.sessionsUnparked = reg.Counter("raced_sessions_unparked_total", "Parked sessions woken in place by a chunk past the ack, a finish, idle eviction or shutdown.")
	s.epochRejects = reg.Counter("raced_epoch_rejects_total", "Mutating requests rejected with 412 for carrying a stale coordinator epoch.")

	reg.GaugeFunc("raced_sessions_active", "Open sessions holding their detector state (not parked).", func() float64 {
		resident, _ := s.sessionCounts()
		return float64(resident)
	})
	reg.GaugeFunc("raced_sessions_parked", "Open sessions parked under memory pressure, in memory or on disk.", func() float64 {
		_, parked := s.sessionCounts()
		return float64(parked)
	})
	reg.GaugeFunc("raced_queue_depth", "Scheduler tasks pending (not yet running).", func() float64 {
		return float64(s.sched.QueueDepth())
	})
	reg.GaugeFunc("raced_queue_cap", "Scheduler pending-task capacity.", func() float64 {
		return float64(s.sched.QueueCap())
	})
	reg.GaugeFunc("raced_tasks_running", "Scheduler tasks currently executing.", func() float64 {
		return float64(s.sched.Running())
	})
	reg.GaugeFunc("raced_sched_workers", "Scheduler worker-pool size.", func() float64 {
		return float64(s.sched.Workers())
	})
	reg.GaugeFunc("raced_state_bytes", "Summed detector-state estimate across open sessions.", func() float64 {
		return float64(s.stateTotal.Load())
	})
	reg.GaugeFunc("raced_uptime_seconds", "Seconds since this process started serving.", func() float64 {
		return time.Since(s.start).Seconds()
	})
	reg.GaugeFunc("raced_coordinator_epoch", "Highest coordinator fencing epoch this worker has seen (0 when single-node).", func() float64 {
		return float64(s.coordEpoch.Load())
	})
	reg.GaugeFunc("raced_report_classes", "Distinct race classes in the dedup store.", func() float64 {
		return float64(s.store.Len())
	})
	reg.CounterFunc("raced_report_observations_total", "Race observations folded into the dedup store.", func() uint64 {
		return uint64(s.store.Observations())
	})
}

// --- debug endpoints ---

// handleDebugTrace (GET /debug/trace/{id}) returns every retained span of
// one request trace, ordered by start time.
func (s *Server) handleDebugTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !obs.ValidID(id) {
		obs.WriteError(w, http.StatusBadRequest, "bad trace id %q", id)
		return
	}
	spans := s.obs.trace.ByTrace(id)
	if spans == nil {
		spans = []obs.Span{}
	}
	obs.WriteJSON(w, http.StatusOK, map[string]any{"trace": id, "spans": spans})
}

// handleDebugSession (GET /debug/sessions/{id}) returns one session's
// lifecycle timeline: every retained span attributed to it, across all the
// traces that touched it.
func (s *Server) handleDebugSession(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !obs.ValidID(id) {
		obs.WriteError(w, http.StatusBadRequest, "bad session id %q", id)
		return
	}
	spans := s.obs.trace.BySession(id)
	if spans == nil {
		spans = []obs.Span{}
	}
	obs.WriteJSON(w, http.StatusOK, map[string]any{"session": id, "spans": spans})
}
