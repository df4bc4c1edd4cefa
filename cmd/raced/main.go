// Command raced is the always-on race-analysis daemon: the paper's
// linear-time streaming property turned into a service. Clients open
// sessions, stream binary trace chunks, and get per-engine race reports
// back; races are deduplicated by fingerprint across all sessions and
// queryable over /reports.
//
// Usage:
//
//	raced -addr :7477 -engines wcp,hb -workers 8 -queue 64
//
// Endpoints:
//
//	POST   /sessions?engines=...   open a session (body: binary trace header)
//	POST   /sessions/{id}/chunks   stream event-body chunks
//	POST   /sessions/{id}/finish   seal the session, get the reports
//	DELETE /sessions/{id}          abort without reporting
//	GET    /sessions[/{id}]        session status
//	POST   /analyze?engines=...    one-shot whole-trace analysis (any format)
//	POST   /checkpoint             checkpoint all sessions + reports now
//	GET    /sessions/{id}/snapshot serialized session state (migration handoff)
//	POST   /sessions/restore       accept a serialized session (body: snapshot)
//	GET    /reports?engine=&var=&loc=&min_count=&limit=   dedup race classes
//	GET    /healthz                liveness + drain state
//	GET    /metrics                counters (Prometheus text format)
//
// SIGINT/SIGTERM drain gracefully: in-flight chunks finish, open sessions
// are finalized into the report store, then the process exits. With
// -checkpoint-dir set, open sessions are checkpointed instead and a
// restarted daemon resumes them where the stream left off — the same path
// that recovers from a crash (kill -9, OOM, power loss).
//
// Fleet mode (see internal/fleet) shards the service across processes:
//
//	raced -coordinator -addr :7470
//	raced -addr :7471 -join http://localhost:7470
//	raced -addr :7472 -join http://localhost:7470
//
// The coordinator serves the same session API, placing each session on a
// worker via consistent hashing and failing sessions over to survivors
// when a worker dies; GET /fleet shows membership and placements, and
// /reports merges every worker's race classes. A worker's SIGTERM leaves
// the fleet gracefully — its sessions are handed off before the drain.
package main

import (
	"context"
	"errors"
	"flag"
	"log/slog"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/* on the debug mux below
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/engine"
	"repro/internal/faultinject"
	"repro/internal/fleet"
	"repro/internal/server"
)

// deriveAdvertise turns a listen address into a dialable base URL: a bare
// ":7477" advertises the loopback address, anything with a host is used
// as-is.
func deriveAdvertise(addr string) string {
	if strings.HasPrefix(addr, ":") {
		return "http://127.0.0.1" + addr
	}
	return "http://" + addr
}

var (
	addr         = flag.String("addr", ":7477", "listen address")
	engines      = flag.String("engines", "wcp", "default engines for sessions and /analyze (comma-separated)")
	workers      = flag.Int("workers", 0, "concurrent analysis tasks (0 = GOMAXPROCS)")
	queue        = flag.Int("queue", 0, "pending-task queue capacity (0 = 4x workers)")
	maxBody      = flag.Int64("max-body", 32<<20, "max request body bytes")
	maxSessions  = flag.Int("max-sessions", 1024, "max concurrently-open sessions")
	idle         = flag.Duration("idle", 5*time.Minute, "evict sessions idle this long (<0 disables)")
	window       = flag.Int("window", 0, "window size for the cp/predict engines on /analyze")
	budget       = flag.Int("budget", 0, "per-window search budget for the predict engine")
	drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "max time to finish in-flight work at shutdown")

	checkpointDir   = flag.String("checkpoint-dir", "", "directory for session/report checkpoints; enables crash recovery and graceful restarts")
	checkpointEvery = flag.Duration("checkpoint-every", 30*time.Second, "periodic checkpoint interval (<0 disables the timer; POST /checkpoint still works)")
	compactEvery    = flag.Int("compact-every", 1<<20, "compact session detector state every N events (0 disables)")

	stateBudget   = flag.Int64("state-budget", 0, "global detector-state budget in bytes: over it, sessions are force-compacted, then the coldest are parked (their detector state swapped for its snapshot, in memory or in -checkpoint-dir) until the next chunk or finish wakes them (0 disables)")
	ingestTimeout = flag.Duration("ingest-timeout", time.Minute, "per-request body read deadline (<0 disables)")
	chaos         = flag.String("chaos", "", "inject connection faults for resilience testing, e.g. 'drop=0.2,trunc=0.1,stall=0.1,flip=0.05,latency=2ms,seed=7' (see internal/faultinject)")

	debugAddr = flag.String("debug-addr", "", "serve net/http/pprof on this side address (empty disables); CPU profiles carry session= and engine= labels")
	obsSample = flag.Int("obs-sample", 0, "sample per-block stage timing every Nth decoded block (0 = default 32, <0 disables)")
	logJSON   = flag.Bool("log-json", false, "emit structured logs as JSON instead of text")

	// Fleet mode (see internal/fleet). -coordinator turns this process into
	// the fleet front door; -join turns it into a worker of one.
	coordinator      = flag.Bool("coordinator", false, "run as a fleet coordinator instead of an analysis worker")
	heartbeatTimeout = flag.Duration("heartbeat-timeout", 3*time.Second, "coordinator: declare a worker failed after this long without a heartbeat")
	pullEvery        = flag.Duration("pull-every", 10*time.Second, "coordinator: session checkpoint pull interval (<0 disables; failover then replays whole streams)")
	proxyTimeout     = flag.Duration("proxy-timeout", 2*time.Minute, "coordinator: per proxied request timeout")
	noRebalance      = flag.Bool("no-rebalance", false, "coordinator: don't migrate sessions onto newly joined workers")
	standbyOf        = flag.String("standby-of", "", "coordinator: run as a warm standby of this primary coordinator URL, taking over when its lease lapses")
	leaseTimeout     = flag.Duration("lease-timeout", 0, "standby: declare the primary dead after this long without an answer to a /healthz poll (default 3x heartbeat-timeout)")
	recoveryGrace    = flag.Duration("recovery-grace", 0, "coordinator: after a start or takeover, adopt worker-reported sessions for this long before rebalancing (default 2x heartbeat-timeout)")
	join             = flag.String("join", "", "worker: coordinator base URL(s) to register with, comma-separated primary,standby (e.g. http://localhost:7470)")
	advertise        = flag.String("advertise", "", "worker: base URL the coordinator should dial for this worker (default derived from -addr)")
	workerName       = flag.String("worker-name", "", "worker: stable fleet identity (default: the advertise URL)")
)

// newLogger builds the process logger every component shares. Structured
// fields (session=, trace=, worker=) make the logs greppable and let a log
// pipeline join them with /debug/trace output on the trace id.
func newLogger() *slog.Logger {
	if *logJSON {
		return slog.New(slog.NewJSONHandler(os.Stderr, nil))
	}
	return slog.New(slog.NewTextHandler(os.Stderr, nil))
}

// startDebugServer serves net/http/pprof on its own listener so profiling
// is never exposed on the public service address. The blank pprof import
// registers its handlers on http.DefaultServeMux.
func startDebugServer(logger *slog.Logger) {
	if *debugAddr == "" {
		return
	}
	go func() {
		logger.Info("debug server listening", "addr", *debugAddr, "endpoints", "/debug/pprof/")
		if err := http.ListenAndServe(*debugAddr, http.DefaultServeMux); err != nil {
			logger.Error("debug server failed", "err", err)
		}
	}()
}

func main() {
	flag.Parse()
	logger := newLogger()
	startDebugServer(logger)
	var err error
	if *coordinator {
		err = runCoordinator(logger)
	} else {
		err = run(logger)
	}
	if err != nil {
		logger.Error("fatal", "err", err)
		os.Exit(1)
	}
}

// runCoordinator serves the fleet front door: the full session API proxied
// onto registered workers, plus /fleet membership endpoints and a merged
// /reports view.
func runCoordinator(logger *slog.Logger) error {
	co := fleet.NewCoordinator(fleet.CoordinatorConfig{
		HeartbeatTimeout: *heartbeatTimeout,
		PullEvery:        *pullEvery,
		ProxyTimeout:     *proxyTimeout,
		MaxBodyBytes:     *maxBody,
		NoRebalance:      *noRebalance,
		StandbyOf:        *standbyOf,
		LeaseTimeout:     *leaseTimeout,
		RecoveryGrace:    *recoveryGrace,
		Logger:           logger,
	})
	httpSrv := &http.Server{Addr: *addr, Handler: co.Handler()}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() {
		logger.Info("coordinator listening", "addr", *addr, "heartbeat_timeout", *heartbeatTimeout)
		if err := httpSrv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
			return
		}
		errc <- nil
	}()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	stop()
	logger.Info("coordinator shutting down", "timeout", *drainTimeout)
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(dctx); err != nil {
		logger.Error("http shutdown", "err", err)
	}
	return co.Close(dctx)
}

func run(logger *slog.Logger) error {
	names := strings.Split(*engines, ",")
	for i := range names {
		names[i] = strings.TrimSpace(names[i])
		if _, err := engine.New(names[i], engine.Config{}); err != nil {
			return err
		}
	}

	// The chaos injector wraps the listener so every accepted connection
	// draws a fault plan — drops, stalls, bit flips, truncations — before
	// the HTTP layer sees a byte. Its counters ride along on /metrics.
	var inj *faultinject.Injector
	if *chaos != "" {
		opts, err := faultinject.ParseSpec(*chaos)
		if err != nil {
			return err
		}
		inj = faultinject.New(opts)
	}

	cfg := server.Config{
		DefaultEngines: names,
		Engine:         engine.Config{Window: *window, Budget: *budget},
		Workers:        *workers,
		QueueCap:       *queue,
		MaxBodyBytes:   *maxBody,
		MaxSessions:    *maxSessions,
		IdleTimeout:    *idle,
		Logger:         logger,
		Name:           *workerName,
		ObsSampleEvery: *obsSample,

		CheckpointDir:      *checkpointDir,
		CheckpointEvery:    *checkpointEvery,
		CompactEveryEvents: *compactEvery,

		StateBudgetBytes: *stateBudget,
		IngestTimeout:    *ingestTimeout,
	}
	if inj != nil {
		cfg.ExtraMetrics = inj.Counters.WriteMetrics
	}
	srv := server.New(cfg)
	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	if inj != nil {
		logger.Warn("CHAOS MODE: injecting faults on every connection", "spec", *chaos)
		ln = inj.WrapListener(ln)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		logger.Info("listening", "addr", *addr, "engines", names)
		if err := httpSrv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
			return
		}
		errc <- nil
	}()

	// Fleet worker mode: register with the coordinator and heartbeat until
	// shutdown, which then leaves gracefully — the coordinator migrates this
	// worker's sessions to survivors before the drain starts.
	var agent *fleet.Agent
	if *join != "" {
		adv := *advertise
		if adv == "" {
			adv = deriveAdvertise(*addr)
		}
		agent = fleet.StartAgent(fleet.AgentConfig{
			Coordinator: *join,
			Advertise:   adv,
			Name:        *workerName,
			Load: func() fleet.WorkerLoad {
				st := srv.Stats()
				return fleet.WorkerLoad{Sessions: st.Sessions, StateBytes: st.StateBytes, QueueDepth: st.QueueDepth}
			},
			Sessions:  srv.SessionIDs,
			Abort:     srv.AbortSession,
			Epoch:     srv.CoordinatorEpoch,
			NoteEpoch: srv.NoteCoordinatorEpoch,
			Logger:    logger,
		})
		logger.Info("joining fleet", "coordinator", *join, "advertise", adv)
	}

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	stop() // restore default signal handling: a second ^C kills immediately
	logger.Info("shutdown signal received, draining", "timeout", *drainTimeout)
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if agent != nil {
		if err := agent.Leave(dctx); err != nil {
			logger.Error("fleet leave", "err", err)
		} else {
			logger.Info("left the fleet; sessions handed off")
		}
	}
	if err := httpSrv.Shutdown(dctx); err != nil {
		logger.Error("http shutdown", "err", err)
	}
	if err := srv.Close(dctx); err != nil {
		logger.Error("drain", "err", err)
	}
	st := srv.Store()
	logger.Info("drained", "race_classes", st.Len(), "observations", st.Observations())
	return nil
}
