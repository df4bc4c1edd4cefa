package fleet

// End-to-end fleet tests: a real Coordinator and real raced workers on real
// TCP listeners, driven by the resilient internal/client. The acceptance bar
// mirrors the server chaos suite — after any failover the final reports must
// be byte-identical to an uninterrupted batch analysis of the same trace.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/engine"
	"repro/internal/faultinject"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/trace"
)

// testLogger adapts t.Logf into a slog.Logger so fleet internals log through
// the test runner.
func testLogger(t *testing.T) *slog.Logger {
	return slog.New(slog.NewTextHandler(testLogWriter{t}, nil))
}

type testLogWriter struct{ t *testing.T }

func (w testLogWriter) Write(p []byte) (int, error) {
	w.t.Logf("%s", strings.TrimRight(string(p), "\n"))
	return len(p), nil
}

// Aggressive timing so a full failover (missed deadline -> suspect ->
// restore) fits inside a unit test.
const (
	testHeartbeatTimeout = 150 * time.Millisecond
	testHeartbeatEvery   = 25 * time.Millisecond
	testPullEvery        = 50 * time.Millisecond
)

type testWorker struct {
	name  string
	url   string
	srv   *server.Server
	hs    *http.Server
	gate  *faultinject.PartitionGate
	agent *Agent
}

// kill simulates a crash: the heartbeat agent stops silently and the HTTP
// listener closes along with every open connection. The server object stays
// for teardown, like a dead process's memory nobody can reach.
func (tw *testWorker) kill() {
	tw.agent.Stop()
	tw.hs.Close()
}

type testFleet struct {
	t       *testing.T
	co      *Coordinator
	url     string
	coAddr  string // coordinator listen address, reused across restarts
	coCfg   CoordinatorConfig
	hs      *http.Server
	gated   bool
	workers []*testWorker
	// defaults runs coordinators and worker agents at their production
	// timings instead of the harness's aggressive ones.
	defaults bool
	// workerCfg, when set, adjusts each worker's server config.
	workerCfg func(*server.Config)

	standby     *Coordinator
	standbyURL  string
	standbyHS   *http.Server
	standbyGate *faultinject.PartitionGate
}

func workerServerConfig() server.Config {
	return server.Config{Workers: 4, QueueCap: 256, IdleTimeout: -1}
}

// fleetOpts parameterizes the test fleet beyond the common harness knobs:
// a warm standby coordinator and a partition gate on the standby's lease
// polls (the fencing tests' "paused primary" lever).
type fleetOpts struct {
	workers      int
	gated        bool
	pullEvery    time.Duration // 0 test default, <0 disables
	standby      bool          // also run a warm standby coordinator
	standbyGated bool          // route the standby's outbound HTTP through a gate
	leaseTimeout time.Duration // 0 uses the coordinator default
	defaults     bool          // production timings everywhere (overrides the above)
	workerCfg    func(*server.Config)
}

// startTestFleet brings up a coordinator plus n workers and waits until all
// are registered and healthy. With gated=true each worker's listener and
// agent transport run through a PartitionGate so tests can sever it from
// the network without killing it. pullEvery 0 uses the test default; <0
// disables checkpoint pulling so failover must re-create from headers.
func startTestFleet(t *testing.T, n int, gated bool, pullEvery time.Duration) *testFleet {
	return startTestFleetOpts(t, fleetOpts{workers: n, gated: gated, pullEvery: pullEvery})
}

func startTestFleetOpts(t *testing.T, opts fleetOpts) *testFleet {
	t.Helper()
	if opts.pullEvery == 0 {
		opts.pullEvery = testPullEvery
	}
	cfg := CoordinatorConfig{
		HeartbeatTimeout: testHeartbeatTimeout,
		HeartbeatEvery:   testHeartbeatEvery,
		PullEvery:        opts.pullEvery,
		ProxyTimeout:     5 * time.Second,
		LeaseTimeout:     opts.leaseTimeout,
		Logger:           testLogger(t),
	}
	if opts.defaults {
		cfg = CoordinatorConfig{Logger: testLogger(t)}
	}
	co := NewCoordinator(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: co.Handler()}
	go hs.Serve(ln)
	f := &testFleet{
		t: t, co: co, url: "http://" + ln.Addr().String(),
		coAddr: ln.Addr().String(), coCfg: cfg, hs: hs,
		gated: opts.gated, defaults: opts.defaults, workerCfg: opts.workerCfg,
	}
	if opts.standby {
		sbCfg := cfg
		sbCfg.StandbyOf = f.url
		if opts.standbyGated {
			f.standbyGate = &faultinject.PartitionGate{}
			sbCfg.HTTPClient = &http.Client{Transport: f.standbyGate.Transport(nil)}
		}
		f.standby = NewCoordinator(sbCfg)
		sln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		f.standbyHS = &http.Server{Handler: f.standby.Handler()}
		go f.standbyHS.Serve(sln)
		f.standbyURL = "http://" + sln.Addr().String()
	}
	for i := 0; i < opts.workers; i++ {
		f.addWorker()
	}
	f.wait(func() bool { return f.healthy() == opts.workers }, fmt.Sprintf("%d healthy workers", opts.workers))
	return f
}

// coordinators is the address list worker agents register with: the primary
// plus the warm standby when one runs (the dual-heartbeat).
func (f *testFleet) coordinators() string {
	if f.standbyURL != "" {
		return f.url + "," + f.standbyURL
	}
	return f.url
}

// clientBase is what a failover-aware client should dial: every configured
// coordinator, primary first.
func (f *testFleet) clientBase() string { return f.coordinators() }

// killCoordinator simulates a coordinator crash: the listener drops with
// every open connection and the background loops stop. Nothing survives:
// the coordinator keeps no durable state.
func (f *testFleet) killCoordinator() {
	f.t.Helper()
	f.hs.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := f.co.Close(ctx); err != nil {
		f.t.Errorf("coordinator close: %v", err)
	}
}

// restartCoordinator brings a fresh coordinator up on the SAME address with
// the same config, so clients and worker agents reconnect without being
// told anything. It rebuilds its placements from the workers' re-register
// reports.
func (f *testFleet) restartCoordinator() {
	f.t.Helper()
	co := NewCoordinator(f.coCfg)
	var ln net.Listener
	var err error
	deadline := time.Now().Add(5 * time.Second)
	for {
		ln, err = net.Listen("tcp", f.coAddr)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			f.t.Fatalf("re-listen on %s: %v", f.coAddr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	hs := &http.Server{Handler: co.Handler()}
	go hs.Serve(ln)
	f.co, f.hs = co, hs
}

func (f *testFleet) addWorker() *testWorker {
	f.t.Helper()
	name := fmt.Sprintf("w%d", len(f.workers))
	cfg := workerServerConfig()
	cfg.Name = name // stamped into spans so merged /debug views attribute work per worker
	if f.workerCfg != nil {
		f.workerCfg(&cfg)
	}
	srv := server.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.t.Fatal(err)
	}
	wrapped := net.Listener(ln)
	var gate *faultinject.PartitionGate
	if f.gated {
		gate = &faultinject.PartitionGate{}
		wrapped = gate.WrapListener(ln)
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(wrapped)
	tw := &testWorker{
		name: name,
		url:  "http://" + ln.Addr().String(),
		srv:  srv, hs: hs, gate: gate,
	}
	hc, every := &http.Client{Timeout: 2 * time.Second}, testHeartbeatEvery
	if gate != nil {
		hc.Transport = gate.Transport(nil)
	}
	if f.defaults {
		hc, every = nil, 0
	}
	tw.agent = StartAgent(AgentConfig{
		Coordinator: f.coordinators(),
		Advertise:   tw.url,
		Name:        tw.name,
		Every:       every,
		HTTPClient:  hc,
		Load: func() WorkerLoad {
			st := srv.Stats()
			return WorkerLoad{Sessions: st.Sessions, StateBytes: st.StateBytes, QueueDepth: st.QueueDepth}
		},
		Sessions:  srv.SessionIDs,
		Abort:     srv.AbortSession,
		Epoch:     srv.CoordinatorEpoch,
		NoteEpoch: srv.NoteCoordinatorEpoch,
		Logger:    testLogger(f.t),
	})
	f.workers = append(f.workers, tw)
	return tw
}

func (f *testFleet) stop() {
	for _, w := range f.workers {
		w.agent.Stop()
	}
	f.hs.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := f.co.Close(ctx); err != nil {
		f.t.Errorf("coordinator close: %v", err)
	}
	if f.standby != nil {
		if f.standbyGate != nil {
			f.standbyGate.Heal() // unblock any in-flight poll so Close can finish
		}
		f.standbyHS.Close()
		if err := f.standby.Close(ctx); err != nil {
			f.t.Errorf("standby close: %v", err)
		}
		f.standby.cfg.HTTPClient.CloseIdleConnections()
	}
	for _, w := range f.workers {
		w.hs.Close()
		if err := w.srv.Close(ctx); err != nil {
			f.t.Errorf("worker %s close: %v", w.name, err)
		}
	}
	// Keep-alive conns held by the coordinator's and agents' pools each pin
	// transport goroutines; release them so leak checks see a quiet process.
	f.co.cfg.HTTPClient.CloseIdleConnections()
	if tr, ok := http.DefaultTransport.(*http.Transport); ok {
		tr.CloseIdleConnections()
	}
}

func (f *testFleet) healthy() int {
	_, h := f.co.fleetSnapshot()
	return h
}

func (f *testFleet) wait(cond func() bool, what string) {
	f.t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			f.t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// workerFor returns the test worker currently owning a session.
func (f *testFleet) workerFor(id string) *testWorker {
	name := f.co.Placements()[id]
	for _, w := range f.workers {
		if w.name == name {
			return w
		}
	}
	f.t.Fatalf("session %s placed on unknown worker %q", id, name)
	return nil
}

// fleetClientConfig mirrors chaosClientConfig in internal/server: small
// chunks, deep retry budget, millisecond backoff. The budget covers a full
// failover: heartbeat deadline + sweep + restore is a few hundred ms here.
func fleetClientConfig(base string, follow bool) client.Config {
	return client.Config{
		BaseURL:         base,
		Engines:         []string{"wcp", "hb"},
		HTTPClient:      &http.Client{Transport: &http.Transport{DisableKeepAlives: true}},
		ChunkEvents:     400,
		RetryBudget:     300,
		BaseBackoff:     time.Millisecond,
		MaxBackoff:      50 * time.Millisecond,
		RequestTimeout:  2 * time.Second,
		FollowPlacement: follow,
	}
}

func fleetTrace(c int) *trace.Trace {
	return gen.Random(gen.RandomConfig{
		Seed: int64(700 + c), Events: 3000 + 500*c, Threads: 3 + c%3, Locks: 2, Vars: 4,
	})
}

// verifyFinish requires the session's reports to be byte-identical to an
// uninterrupted single-node batch analysis of the same trace.
func verifyFinish(t *testing.T, label string, engines []string, tr *trace.Trace, fin *client.FinishResult) {
	t.Helper()
	if fin.Events != uint64(len(tr.Events)) {
		t.Errorf("%s: session saw %d events, want %d", label, fin.Events, len(tr.Events))
		return
	}
	for i, name := range engines {
		want := engine.MustNew(name, engine.Config{}).Analyze(tr)
		got := fin.Results[i]
		if got.Distinct != want.Distinct() || got.RacyEvents != want.RacyEvents {
			t.Errorf("%s %s: distinct=%d racy=%d, want distinct=%d racy=%d",
				label, name, got.Distinct, got.RacyEvents, want.Distinct(), want.RacyEvents)
		}
		if wantReport := want.Report.Format(tr.Symbols); got.Report != wantReport {
			t.Errorf("%s %s: report after failover differs from batch analysis:\n%s\n--- want ---\n%s",
				label, name, got.Report, wantReport)
		}
	}
}

// TestFleetFailoverKill is the headline e2e: three workers, three concurrent
// streaming clients, SIGKILL-equivalent on the worker owning client 0's
// session mid-stream. Every stream must complete with zero client-visible
// errors and byte-identical reports; the kill must actually have forced a
// failover.
func TestFleetFailoverKill(t *testing.T) {
	f := startTestFleet(t, 3, false, 0)
	defer f.stop()
	ctx := context.Background()

	const nclients = 3
	traces := make([]*trace.Trace, nclients)
	cfgs := make([]client.Config, nclients)
	sessions := make([]*client.Session, nclients)
	for c := 0; c < nclients; c++ {
		traces[c] = fleetTrace(c)
		// Odd clients follow placement (chunks go straight to the worker),
		// even ones route everything through the coordinator: both paths
		// must survive the kill.
		cfgs[c] = fleetClientConfig(f.url, c%2 == 1)
		s, err := client.Open(ctx, cfgs[c], traces[c].Symbols)
		if err != nil {
			t.Fatalf("client %d: open: %v", c, err)
		}
		sessions[c] = s
	}

	// Stream 40% so there's real detector state, then give the pull loop a
	// couple of cycles to capture checkpoints of it.
	for c, s := range sessions {
		if err := s.Stream(ctx, traces[c].Events[:len(traces[c].Events)*4/10], 0); err != nil {
			t.Fatalf("client %d: stream (pre-kill): %v", c, err)
		}
	}
	time.Sleep(3 * testPullEvery)

	victim := f.workerFor(sessions[0].ID())
	var wg sync.WaitGroup
	errs := make([]error, nclients)
	for c := 0; c < nclients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			errs[c] = sessions[c].Stream(ctx, traces[c].Events, 0)
		}(c)
	}
	time.Sleep(20 * time.Millisecond) // let chunks be in flight
	victim.kill()
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			t.Fatalf("client %d: stream through failover: %v", c, err)
		}
	}

	for c, s := range sessions {
		// FinishReplay, not Finish: a client whose stream completed just
		// before the kill only learns about the checkpoint rollback at the
		// finish barrier, and must replay the lost tail.
		fin, err := s.FinishReplay(ctx, traces[c].Events, 0)
		if err != nil {
			t.Fatalf("client %d: finish: %v", c, err)
		}
		verifyFinish(t, fmt.Sprintf("client %d", c), cfgs[c].Engines, traces[c], fin)
	}

	if f.co.sessionsFailed.Value() == 0 {
		t.Error("no session failed over: the kill exercised nothing")
	}
	for id, w := range f.co.Placements() {
		if w == victim.name {
			t.Errorf("session %s still placed on killed worker %s", id, w)
		}
	}
}

// TestFleetGracefulDrain: a worker leaves via the drain protocol mid-stream.
// Its sessions migrate with fresh snapshots, the drained server ends up
// empty, and the streams complete byte-identically.
func TestFleetGracefulDrain(t *testing.T) {
	f := startTestFleet(t, 3, false, 0)
	defer f.stop()
	ctx := context.Background()

	const nclients = 2
	traces := make([]*trace.Trace, nclients)
	cfgs := make([]client.Config, nclients)
	sessions := make([]*client.Session, nclients)
	for c := 0; c < nclients; c++ {
		traces[c] = fleetTrace(c + 10)
		cfgs[c] = fleetClientConfig(f.url, c%2 == 0)
		s, err := client.Open(ctx, cfgs[c], traces[c].Symbols)
		if err != nil {
			t.Fatalf("client %d: open: %v", c, err)
		}
		sessions[c] = s
		if err := s.Stream(ctx, traces[c].Events[:len(traces[c].Events)/2], 0); err != nil {
			t.Fatalf("client %d: stream (pre-drain): %v", c, err)
		}
	}

	leaver := f.workerFor(sessions[0].ID())
	if err := leaver.agent.Leave(ctx); err != nil {
		t.Fatalf("leave: %v", err)
	}
	if got := f.co.sessionsMigrated.Value(); got == 0 {
		t.Error("graceful leave migrated no sessions")
	}
	for id, w := range f.co.Placements() {
		if w == leaver.name {
			t.Errorf("session %s still placed on drained worker %s", id, w)
		}
	}
	// The migrated source copies are aborted best-effort; the drained worker
	// must end up with nothing authoritative.
	f.wait(func() bool { return leaver.srv.Stats().Sessions == 0 }, "drained worker to empty")

	for c, s := range sessions {
		if err := s.Stream(ctx, traces[c].Events, 0); err != nil {
			t.Fatalf("client %d: stream after drain: %v", c, err)
		}
		fin, err := s.Finish(ctx)
		if err != nil {
			t.Fatalf("client %d: finish: %v", c, err)
		}
		verifyFinish(t, fmt.Sprintf("client %d", c), cfgs[c].Engines, traces[c], fin)
	}
}

// TestFleetDegradedAdmission: with every worker gone, new sessions are shed
// with 503 + a Retry-After, while the in-flight session is retained as a
// pending failover and lands intact once a fresh worker joins.
func TestFleetDegradedAdmission(t *testing.T) {
	f := startTestFleet(t, 1, false, 0)
	defer f.stop()
	ctx := context.Background()

	tr := fleetTrace(20)
	cfg := fleetClientConfig(f.url, false)
	s, err := client.Open(ctx, cfg, tr.Symbols)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if err := s.Stream(ctx, tr.Events[:len(tr.Events)/2], 0); err != nil {
		t.Fatalf("stream: %v", err)
	}
	time.Sleep(3 * testPullEvery) // let a checkpoint be pulled

	f.workers[0].kill()
	f.wait(func() bool { return f.healthy() == 0 }, "the only worker to be declared failed")

	// New sessions must be shed with a queue-derived Retry-After, not queued
	// or errored opaquely.
	resp, err := http.Post(f.url+"/sessions", "application/octet-stream", strings.NewReader(""))
	if err != nil {
		t.Fatalf("create during outage: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("create during outage: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("degraded-mode 503 is missing its Retry-After header")
	}
	hz, err := http.Get(f.url + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz with no workers: status %d, want 503", hz.StatusCode)
	}

	// Recovery: a fresh worker joins, the stalled failover retries onto it,
	// and the client — which saw only retries, never an error — completes.
	replacement := f.addWorker()
	f.wait(func() bool {
		return f.co.pendingFailovers.Load() == 0 && f.co.Placements()[s.ID()] == replacement.name
	}, "pending failover to land on the replacement worker")
	if err := s.Stream(ctx, tr.Events, 0); err != nil {
		t.Fatalf("stream after recovery: %v", err)
	}
	fin, err := s.FinishReplay(ctx, tr.Events, 0)
	if err != nil {
		t.Fatalf("finish after recovery: %v", err)
	}
	verifyFinish(t, "recovered client", cfg.Engines, tr, fin)
}

// TestFleetRetryAfterPropagation pins satellite 1: a worker's own
// queue-derived Retry-After must pass through the coordinator proxy
// verbatim, not be replaced by a coordinator-side guess.
func TestFleetRetryAfterPropagation(t *testing.T) {
	co := NewCoordinator(CoordinatorConfig{
		HeartbeatTimeout: time.Hour, // the stub never heartbeats; keep it alive
		PullEvery:        -1,
		Logger:           testLogger(t),
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: co.Handler()}
	go hs.Serve(ln)
	coURL := "http://" + ln.Addr().String()
	defer func() {
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		co.Close(ctx)
	}()

	// A stub worker that accepts any session and answers every chunk 429
	// with its own Retry-After.
	mux := http.NewServeMux()
	mux.HandleFunc("POST /sessions", func(w http.ResponseWriter, r *http.Request) {
		obs.WriteJSON(w, http.StatusCreated, map[string]string{"id": r.Header.Get(HeaderSessionID)})
	})
	mux.HandleFunc("POST /sessions/{id}/chunks", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "17")
		obs.WriteError(w, http.StatusTooManyRequests, "worker saturated")
	})
	wln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	whs := &http.Server{Handler: mux}
	go whs.Serve(wln)
	defer whs.Close()

	reg, _ := json.Marshal(registerRequest{Name: "stub", URL: "http://" + wln.Addr().String()})
	resp, err := http.Post(coURL+"/fleet/register", "application/json", strings.NewReader(string(reg)))
	if err != nil {
		t.Fatalf("register stub: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register stub: status %d", resp.StatusCode)
	}

	resp, err = http.Post(coURL+"/sessions", "application/octet-stream", strings.NewReader("hdr"))
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	var created struct {
		ID string `json:"id"`
	}
	json.NewDecoder(resp.Body).Decode(&created)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated || created.ID == "" {
		t.Fatalf("create via stub: status %d id %q", resp.StatusCode, created.ID)
	}
	if got := resp.Header.Get(HeaderWorker); got != "http://"+wln.Addr().String() {
		t.Errorf("create response %s = %q, want the stub's URL", HeaderWorker, got)
	}

	resp, err = http.Post(coURL+"/sessions/"+created.ID+"/chunks", "application/octet-stream", strings.NewReader("x"))
	if err != nil {
		t.Fatalf("chunk: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("proxied chunk: status %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "17" {
		t.Errorf("proxied Retry-After = %q, want the worker's own %q", got, "17")
	}
}

// TestFleetReportsMerge: the same trace analyzed in sessions on different
// workers must collapse to one set of race classes in the coordinator's
// merged /reports, with counts and trace tallies summed across workers.
func TestFleetReportsMerge(t *testing.T) {
	f := startTestFleet(t, 2, false, 0)
	defer f.stop()
	ctx := context.Background()

	tr := gen.Random(gen.RandomConfig{Seed: 900, Events: 2000, Threads: 3, Locks: 2, Vars: 4})
	cfg := fleetClientConfig(f.url, false)
	cfg.Engines = []string{"wcp"}

	// Open sessions until both workers own at least one (ids are random, so
	// a handful suffices), then run the identical trace through each.
	perWorker := map[string]int{}
	var sessions []*client.Session
	for len(perWorker) < 2 && len(sessions) < 32 {
		s, err := client.Open(ctx, cfg, tr.Symbols)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		sessions = append(sessions, s)
		perWorker[f.co.Placements()[s.ID()]]++
	}
	if len(perWorker) < 2 {
		t.Fatalf("32 sessions all landed on one worker: %v", perWorker)
	}
	for i, s := range sessions {
		if err := s.Stream(ctx, tr.Events, 0); err != nil {
			t.Fatalf("session %d: stream: %v", i, err)
		}
		if _, err := s.Finish(ctx); err != nil {
			t.Fatalf("session %d: finish: %v", i, err)
		}
	}

	want := engine.MustNew("wcp", engine.Config{}).Analyze(tr)
	var merged struct {
		Total   int `json:"total"`
		Matched int `json:"matched"`
		Reports []struct {
			Count  int64 `json:"count"`
			Traces int64 `json:"traces"`
		} `json:"reports"`
		Workers     int `json:"workers"`
		Unreachable int `json:"unreachable"`
	}
	if err := client.Reports(ctx, cfg, "", &merged); err != nil {
		t.Fatalf("merged reports: %v", err)
	}
	if merged.Workers != 2 || merged.Unreachable != 0 {
		t.Errorf("merged over workers=%d unreachable=%d, want 2/0", merged.Workers, merged.Unreachable)
	}
	if merged.Total != want.Distinct() {
		t.Errorf("merged total = %d race classes, want %d: dedup across workers failed", merged.Total, want.Distinct())
	}
	// Every session contributed the identical trace, so each class must have
	// been seen by all of them — summed across workers, not deduplicated away.
	for i, e := range merged.Reports {
		if e.Traces != int64(len(sessions)) {
			t.Errorf("class %d: traces = %d, want %d (one per session across both workers)", i, e.Traces, len(sessions))
		}
	}

	// min_count/limit are applied to the merged view, post-merge.
	var limited struct {
		Total   int `json:"total"`
		Matched int `json:"matched"`
	}
	if err := client.Reports(ctx, cfg, "limit=1", &limited); err != nil {
		t.Fatalf("limited reports: %v", err)
	}
	if limited.Total != want.Distinct() || limited.Matched != 1 {
		t.Errorf("limit=1: total=%d matched=%d, want total=%d matched=1", limited.Total, limited.Matched, want.Distinct())
	}
}

// TestFleetTracePropagation: the client's one trace id survives a
// mid-stream worker kill, and the coordinator's merged /debug/trace view
// stitches the whole timeline together — its own proxy/failover spans name
// the dead worker (the coordinator's record is the dead worker's obituary;
// the worker itself is unreachable), and the survivor's restored session
// contributes spans under the same trace because failover forwards the
// X-Raced-Trace header with the snapshot.
func TestFleetTracePropagation(t *testing.T) {
	f := startTestFleet(t, 2, false, 0)
	defer f.stop()
	ctx := context.Background()

	tr := fleetTrace(0)
	cfg := fleetClientConfig(f.url, false) // proxy mode: every request crosses the coordinator
	s, err := client.Open(ctx, cfg, tr.Symbols)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	traceID := s.Trace()
	if !obs.ValidID(traceID) {
		t.Fatalf("client minted invalid trace id %q", traceID)
	}

	// Stream 40%, let the pull loop checkpoint it, then kill the owner.
	if err := s.Stream(ctx, tr.Events[:len(tr.Events)*4/10], 0); err != nil {
		t.Fatalf("stream (pre-kill): %v", err)
	}
	time.Sleep(3 * testPullEvery)
	victim := f.workerFor(s.ID())
	var survivor *testWorker
	for _, w := range f.workers {
		if w != victim {
			survivor = w
		}
	}
	victim.kill()
	if err := s.Stream(ctx, tr.Events, 0); err != nil {
		t.Fatalf("stream through failover: %v", err)
	}
	fin, err := s.FinishReplay(ctx, tr.Events, 0)
	if err != nil {
		t.Fatalf("finish: %v", err)
	}
	verifyFinish(t, "traced client", cfg.Engines, tr, fin)
	if f.co.sessionsFailed.Value() == 0 {
		t.Fatal("no session failed over: the kill exercised nothing")
	}

	// The merged trace view: one trace id, spans attributed to both the
	// dead worker and the survivor.
	resp, err := http.Get(f.url + "/debug/trace/" + traceID)
	if err != nil {
		t.Fatalf("debug/trace: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("debug/trace: %d", resp.StatusCode)
	}
	var out struct {
		Trace string     `json:"trace"`
		Spans []obs.Span `json:"spans"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Trace != traceID {
		t.Errorf("debug/trace echoed %q, want %q", out.Trace, traceID)
	}
	workers := make(map[string]bool)
	names := make(map[string]bool)
	for _, sp := range out.Spans {
		if sp.Trace != traceID {
			t.Errorf("span %q carries trace %q, want %q", sp.Name, sp.Trace, traceID)
		}
		workers[sp.Worker] = true
		names[sp.Name] = true
	}
	if !workers[victim.name] {
		t.Errorf("merged trace has no spans attributed to dead worker %s (workers seen: %v)", victim.name, workers)
	}
	if !workers[survivor.name] {
		t.Errorf("merged trace has no spans from surviving worker %s (workers seen: %v)", survivor.name, workers)
	}
	for _, want := range []string{"proxy_create", "proxy_chunk", "chunk", "finish"} {
		if !names[want] {
			t.Errorf("merged trace missing a %q span (names seen: %v)", want, names)
		}
	}
	if !names["failover_restore"] && !names["failover_recreate"] {
		t.Errorf("merged trace records no failover span (names seen: %v)", names)
	}

	// The coordinator's merged /metrics: its own fleet_* series stay
	// unlabeled, scraped worker series carry worker="...".
	resp, err = http.Get(f.url + "/metrics")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	fams, err := obs.ParseExposition(raw)
	if err != nil {
		t.Fatalf("merged exposition does not parse: %v\n%s", err, raw)
	}
	series := make(map[string]bool)
	var survivorSeries bool
	for _, fam := range fams {
		for _, l := range fam.Lines {
			if series[l.Series()] {
				t.Errorf("merged exposition renders series %s twice", l.Series())
			}
			series[l.Series()] = true
			if strings.HasPrefix(fam.Name, "raced_") && strings.Contains(l.Labels, `worker="`+survivor.name+`"`) {
				survivorSeries = true
			}
		}
	}
	if !survivorSeries {
		t.Error("merged /metrics carries no worker-labeled raced_* series from the survivor")
	}
	if !series["fleet_sessions_failed_over_total"] {
		t.Error("coordinator's own fleet_sessions_failed_over_total is missing or grew labels")
	}
}
