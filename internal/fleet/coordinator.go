package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// CoordinatorConfig parameterizes a Coordinator. The zero value picks
// usable defaults.
type CoordinatorConfig struct {
	// HeartbeatTimeout is how long a worker may go without a heartbeat
	// before it is marked suspect and its sessions are failed over.
	// Defaults to 3 seconds.
	HeartbeatTimeout time.Duration
	// HeartbeatEvery is the cadence advertised to registering workers.
	// Defaults to HeartbeatTimeout/3.
	HeartbeatEvery time.Duration
	// PullEvery is how often the coordinator pulls session checkpoints
	// from workers — the failover restore source. Defaults to 10 seconds;
	// <0 disables pulling (failover then replays whole streams from the
	// retained create headers).
	PullEvery time.Duration
	// ProxyTimeout bounds each proxied request. Defaults to 2 minutes.
	ProxyTimeout time.Duration
	// MaxBodyBytes caps proxied request bodies. Defaults to 32 MiB.
	MaxBodyBytes int64
	// Vnodes is the virtual-node count per worker on the placement ring.
	Vnodes int
	// NoRebalance disables session migration onto a newly joined worker.
	// By default a joining worker receives the open sessions that hash to
	// it — bounded movement, about 1/N of the fleet's sessions.
	NoRebalance bool
	// HTTPClient issues worker requests; defaults to a keep-alive client.
	HTTPClient *http.Client
	// Logger receives structured operational logs; nil discards them.
	Logger *slog.Logger
	// TraceSpanCap bounds the coordinator's in-memory span ring (see
	// internal/obs.TraceLog). Defaults to obs.DefaultSpanCap.
	TraceSpanCap int

	// StandbyOf makes this coordinator a warm standby of the primary
	// coordinator at this base URL: it accepts worker registrations and
	// heartbeats, answers the session API 503, and leases the primary by
	// polling its /healthz. When the lease lapses it takes over with a
	// higher fencing epoch and rebuilds placements from worker reports.
	StandbyOf string
	// LeaseTimeout is how long the standby tolerates unanswered /healthz
	// polls before declaring the primary dead and taking over. Defaults to
	// 3x HeartbeatTimeout.
	LeaseTimeout time.Duration
	// RecoveryGrace is the registration grace window every start (and a
	// standby takeover) opens: placements rebuild from workers' re-register
	// session reports, the epoch rises above any fence they report,
	// rebalancing is held off, and /healthz reports "recovering". Defaults
	// to 2x HeartbeatTimeout.
	RecoveryGrace time.Duration
}

func (c *CoordinatorConfig) fill() {
	if c.HeartbeatTimeout <= 0 {
		c.HeartbeatTimeout = 3 * time.Second
	}
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = c.HeartbeatTimeout / 3
	}
	if c.PullEvery == 0 {
		c.PullEvery = 10 * time.Second
	}
	if c.ProxyTimeout <= 0 {
		c.ProxyTimeout = 2 * time.Minute
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 32 << 20
	}
	if c.HTTPClient == nil {
		c.HTTPClient = &http.Client{}
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.DiscardHandler)
	}
	if c.LeaseTimeout <= 0 {
		c.LeaseTimeout = 3 * c.HeartbeatTimeout
	}
	if c.RecoveryGrace <= 0 {
		c.RecoveryGrace = 2 * c.HeartbeatTimeout
	}
}

// placement is the coordinator's record of one session: where it lives,
// whether it is mid-move, and everything needed to resurrect it on another
// worker — the latest pulled checkpoint blob and, as the fallback of last
// resort, the retained create request (header bytes + engines) that can
// re-open it empty at offset zero for a full client replay.
type placement struct {
	id      string
	worker  string
	moving  bool
	trace   string // request-trace id from the create, re-attached on failover
	engines string // raw ?engines= value from the create request
	header  []byte // retained create body (binary trace header)
	blob    []byte // latest pulled session checkpoint
}

// Coordinator owns session placement across a fleet of raced workers and
// fronts the whole session API: create/chunk/finish/status are proxied to
// the owning worker, /reports is merged across workers, and worker
// heartbeats drive failover. Create with NewCoordinator, serve Handler,
// stop with Close.
type Coordinator struct {
	cfg   CoordinatorConfig
	mux   *http.ServeMux
	start time.Time

	mu         sync.Mutex
	workers    map[string]*worker
	ring       *Ring
	placements map[string]*placement

	// finished caches proxied finish responses so a replayed finish for a
	// session whose placement is gone still gets the identical report.
	// Bounded by finishedCacheCap entries and finishedTTL age (entries land
	// in time order, so expiry walks finOrder from the front).
	finMu    sync.Mutex
	finished map[string]finishedEntry
	finOrder []string

	// pendingFailovers counts sessions whose worker is gone and whose
	// restore hasn't landed — the queue that derives the admission
	// Retry-After. pendingMigrations counts graceful moves (drain,
	// rebalance), which never shed admission: their source still serves.
	pendingFailovers  atomic.Int64
	pendingMigrations atomic.Int64

	closed      atomic.Bool
	stop        chan struct{}
	monitorDone chan struct{}
	pullDone    chan struct{}
	moverDone   chan struct{}
	standbyDone chan struct{}
	pullKick    chan struct{}
	moveQ       chan moveSpec

	// Fencing. The coordinator keeps no durable state: epoch is the
	// monotonic fencing token, stamped on every worker-bound request and
	// raised above every fence workers report while recovering; workers
	// reject lower epochs, so a superseded coordinator cannot mutate
	// placements. fenced is set when a worker rejects our epoch: a newer
	// coordinator exists, stop serving and let clients fail over to it.
	// standbyMode is true while leasing a primary (session API answers
	// 503); a takeover flips it. takeoverAt (unix nanoseconds) is when a
	// standby whose lease polls have started failing expects to take over,
	// 0 while the primary answers.
	epoch       atomic.Uint64
	fenced      atomic.Bool
	standbyMode atomic.Bool
	takeoverAt  atomic.Int64

	// recoveringUntil, guarded by mu: the end of the registration grace
	// window that every start and every takeover opens, while placements
	// rebuild from worker re-register reports.
	recoveringUntil time.Time

	// Observability: the coordinator's own registry (fleet_* families,
	// unlabeled) and span ring. Proxy and failover spans recorded here carry
	// the target worker's name, so a request's trace survives the death of
	// the worker that served it — the coordinator's half of the timeline
	// outlives the worker's.
	reg      *obs.Registry
	trace    *obs.TraceLog
	proxyDur *obs.Histogram

	// counters (registered in newMetrics; fleet_* names are load-bearing)
	proxied          *obs.Counter
	sessionsCreated  *obs.Counter
	sessionsFinished *obs.Counter
	admissionShed    *obs.Counter
	workerFailovers  *obs.Counter
	sessionsFailed   *obs.Counter // sessions failed over (restored elsewhere)
	sessionsMigrated *obs.Counter // graceful moves (drain, rebalance)
	sessionsLost     *obs.Counter // unrecoverable (no blob, no header)
	sessionsAdopted  *obs.Counter
	pullsOK          *obs.Counter
	pullsFailed      *obs.Counter
	reportMerges     *obs.Counter
	finEvictions     *obs.Counter
	forwardRetries   *obs.Counter
	epochRejects     *obs.Counter // our writes rejected by a higher worker fence
	takeovers        *obs.Counter
}

// finishedEntry is one cached finish reply with its insertion time.
type finishedEntry struct {
	body []byte
	at   time.Time
}

// NewCoordinator builds a Coordinator and starts its heartbeat monitor,
// checkpoint-pull loop, and session mover. It starts with no placements and
// inside the recovery grace window: whether this is a fresh fleet or a
// restart, placements, membership and the fencing epoch come from the
// workers' re-register reports. With StandbyOf set it starts as a warm
// standby leasing that primary instead, and opens the window at takeover.
func NewCoordinator(cfg CoordinatorConfig) *Coordinator {
	cfg.fill()
	c := &Coordinator{
		cfg:         cfg,
		workers:     make(map[string]*worker),
		ring:        NewRing(cfg.Vnodes),
		placements:  make(map[string]*placement),
		finished:    make(map[string]finishedEntry),
		start:       time.Now(),
		stop:        make(chan struct{}),
		monitorDone: make(chan struct{}),
		pullDone:    make(chan struct{}),
		moverDone:   make(chan struct{}),
		standbyDone: make(chan struct{}),
		pullKick:    make(chan struct{}, 1),
		moveQ:       make(chan moveSpec, 1024),
		trace:       obs.NewTraceLog(cfg.TraceSpanCap),
	}
	c.newMetrics()
	c.epoch.Store(1)
	if cfg.StandbyOf != "" {
		c.standbyMode.Store(true)
		go c.standbyLoop()
	} else {
		close(c.standbyDone)
		c.recoveringUntil = c.start.Add(cfg.RecoveryGrace)
	}
	c.mux = http.NewServeMux()
	c.mux.HandleFunc("POST /sessions", c.handleCreateSession)
	c.mux.HandleFunc("GET /sessions/{id}", c.handleSessionStatus)
	c.mux.HandleFunc("POST /sessions/{id}/chunks", c.handleChunk)
	c.mux.HandleFunc("POST /sessions/{id}/finish", c.handleFinish)
	c.mux.HandleFunc("DELETE /sessions/{id}", c.handleAbort)
	c.mux.HandleFunc("GET /sessions/{id}/snapshot", c.handleSessionSnapshot)
	c.mux.HandleFunc("GET /reports", c.handleReports)
	c.mux.HandleFunc("GET /healthz", c.handleHealthz)
	c.mux.HandleFunc("GET /metrics", c.handleMetrics)
	c.mux.HandleFunc("GET /fleet", c.handleFleet)
	c.mux.HandleFunc("POST /fleet/register", c.handleRegister)
	c.mux.HandleFunc("POST /fleet/heartbeat", c.handleHeartbeat)
	c.mux.HandleFunc("POST /fleet/leave", c.handleLeave)
	c.mux.HandleFunc("GET /debug/trace/{id}", c.handleDebugTrace)
	c.mux.HandleFunc("GET /debug/sessions/{id}", c.handleDebugSession)
	go c.monitorLoop()
	go c.moverLoop()
	if cfg.PullEvery > 0 {
		go c.pullLoop()
	} else {
		close(c.pullDone)
	}
	return c
}

// Handler returns the coordinator's HTTP handler.
func (c *Coordinator) Handler() http.Handler { return c.mux }

// Close stops the background loops. In-flight proxied requests are the
// HTTP server's to drain.
func (c *Coordinator) Close(ctx context.Context) error {
	if c.closed.Swap(true) {
		return nil
	}
	close(c.stop)
	for _, done := range []chan struct{}{c.monitorDone, c.pullDone, c.moverDone, c.standbyDone} {
		select {
		case <-done:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

// Placements returns a snapshot of session id -> owning worker name.
func (c *Coordinator) Placements() map[string]string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]string, len(c.placements))
	for id, pl := range c.placements {
		out[id] = pl.worker
	}
	return out
}

// recoveryLeft is how much of the registration grace window remains, 0
// once it has closed.
func (c *Coordinator) recoveryLeft() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return max(time.Until(c.recoveringUntil), 0)
}

// recovering reports whether the registration grace window is still open.
func (c *Coordinator) recovering() bool { return c.recoveryLeft() > 0 }

// retryAfter renders a wait as a Retry-After value: whole seconds, rounded
// up, at least 1.
func retryAfter(d time.Duration) string {
	return strconv.Itoa(max(1, int((d+time.Second-1)/time.Second)))
}

// proxyResult is one forwarded request's outcome.
type proxyResult struct {
	status int
	header http.Header
	body   []byte
}

// forward issues one request to a worker and buffers the response. hdr
// entries are set verbatim on the outgoing request. Every request is
// stamped with the coordinator's fencing epoch; a worker holding a higher
// fence answers 412, which marks this coordinator superseded. A transport
// failure gets one jittered retry before the error is surfaced (and
// counted as a strike by the caller). The worker may have applied the
// first attempt and only its reply been lost. A retried chunk is then a
// replay, not a second append: every chunk declares its absolute offset
// (obs.HeaderOffset), and the worker drops the events it has already
// acknowledged. A retried finish gets the worker's cached reply. A retried
// create is not covered: it meets the session its first attempt opened
// and is answered 409.
func (c *Coordinator) forward(ctx context.Context, method, url string, body []byte, hdr map[string]string) (*proxyResult, error) {
	ctx, cancel := context.WithTimeout(ctx, c.cfg.ProxyTimeout)
	defer cancel()
	epoch := strconv.FormatUint(c.epoch.Load(), 10)
	attempt := func() (*proxyResult, error) {
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, url, rd)
		if err != nil {
			return nil, err
		}
		for k, v := range hdr {
			if v != "" {
				req.Header.Set(k, v)
			}
		}
		req.Header.Set(obs.HeaderEpoch, epoch)
		t0 := time.Now()
		resp, err := c.cfg.HTTPClient.Do(req)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(io.LimitReader(resp.Body, c.cfg.MaxBodyBytes))
		if err != nil {
			return nil, fmt.Errorf("reading %s %s response: %w", method, url, err)
		}
		c.proxied.Add(1)
		c.proxyDur.ObserveSince(t0)
		return &proxyResult{status: resp.StatusCode, header: resp.Header, body: raw}, nil
	}
	pr, err := attempt()
	if err != nil && ctx.Err() == nil {
		// One jittered retry: a single dropped SYN during a worker GC
		// pause must not start the suspect clock.
		c.forwardRetries.Add(1)
		select {
		case <-time.After(10*time.Millisecond + time.Duration(int64(time.Now().UnixNano())%20)*time.Millisecond):
		case <-ctx.Done():
			return nil, err
		}
		pr, err = attempt()
	}
	if err == nil && pr.status == http.StatusPreconditionFailed {
		c.noteFenced(url, pr)
	}
	return pr, err
}

// noteFenced reacts to a worker rejecting our epoch: a coordinator with a
// higher epoch has taken over. Stop serving — clients fail over to the
// live coordinator — and stop initiating failovers/moves, which would all
// be rejected anyway. The process stays up for observability.
func (c *Coordinator) noteFenced(url string, pr *proxyResult) {
	c.epochRejects.Add(1)
	if !c.fenced.Swap(true) {
		c.cfg.Logger.Error("fenced: a worker holds a higher coordinator epoch; this coordinator is superseded",
			"worker_url", url, "our_epoch", c.epoch.Load(), "worker_fence", pr.header.Get(obs.HeaderEpoch))
	}
}

// writeProxied relays a worker response to the client byte for byte. The
// worker's Retry-After rides along untouched — the owning worker derived it
// from its own queue depth, and that number, not a coordinator-side guess,
// is the back-off the client should honor. The owning worker's name is
// attached for placement-following clients.
func (c *Coordinator) writeProxied(w http.ResponseWriter, pr *proxyResult, workerName string) {
	if v := pr.header.Get("Content-Type"); v != "" {
		w.Header().Set("Content-Type", v)
	}
	if v := pr.header.Get("Retry-After"); v != "" {
		w.Header().Set("Retry-After", v)
	}
	if workerName != "" {
		if url := c.workerURL(workerName); url != "" {
			w.Header().Set(obs.HeaderWorker, url)
		}
	}
	w.WriteHeader(pr.status)
	w.Write(pr.body)
}

// workerAddr names a worker and the base URL the coordinator dials.
type workerAddr struct{ name, url string }

// liveWorkers snapshots the alive workers, sorted by name.
func (c *Coordinator) liveWorkers() []workerAddr {
	c.mu.Lock()
	out := make([]workerAddr, 0, len(c.workers))
	for _, wk := range c.workers {
		if wk.alive() {
			out = append(out, workerAddr{wk.name, wk.url})
		}
	}
	c.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

func (c *Coordinator) workerURL(name string) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if wk := c.workers[name]; wk != nil {
		return wk.url
	}
	return ""
}

// traceFor resolves the effective trace id for a request against a session:
// the id the request carried wins, else the one retained at create time.
func (c *Coordinator) traceFor(r *http.Request, id string) string {
	if tr := obs.TraceIDFrom(r); tr != "" {
		return tr
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if pl := c.placements[id]; pl != nil {
		return pl.trace
	}
	return ""
}

// readBody buffers a capped request body.
func (c *Coordinator) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := obs.ReadBody(w, r, c.cfg.MaxBodyBytes)
	if err != nil {
		obs.WriteError(w, http.StatusBadRequest, "reading request body: %v", err)
		return nil, false
	}
	return body, true
}

// lookupPlacement snapshots one placement under the lock.
func (c *Coordinator) lookupPlacement(id string) (workerName, workerURL string, moving, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	pl := c.placements[id]
	if pl == nil {
		return "", "", false, false
	}
	url := ""
	if wk := c.workers[pl.worker]; wk != nil {
		url = wk.url
	}
	return pl.worker, url, pl.moving, true
}

// refuseSessionAPI answers session-API traffic 503 when this coordinator
// must not serve it: it is a standby (the primary owns placement) or it
// has been fenced by a successor. Clients configured with a coordinator
// list rotate to the live one on 503.
func (c *Coordinator) refuseSessionAPI(w http.ResponseWriter) bool {
	switch {
	case c.standbyMode.Load():
		w.Header().Set("Retry-After", c.standbyRetryAfter())
		obs.WriteError(w, http.StatusServiceUnavailable, "standby coordinator: primary owns the session API")
		return true
	case c.fenced.Load():
		w.Header().Set("Retry-After", "1")
		obs.WriteError(w, http.StatusServiceUnavailable, "coordinator superseded (fenced at epoch %d)", c.epoch.Load())
		return true
	}
	return false
}

// admission decides whether a new session may be placed right now. The
// fleet sheds new work before sacrificing in-flight sessions: with a
// failover queue outstanding (or no live worker at all), creation is
// refused with a Retry-After derived from that queue's depth, while chunk
// traffic for existing sessions keeps flowing.
func (c *Coordinator) admission() (shed bool, retryAfter int) {
	pending := int(c.pendingFailovers.Load())
	c.mu.Lock()
	healthy := 0
	for _, wk := range c.workers {
		if wk.alive() {
			healthy++
		}
	}
	c.mu.Unlock()
	if healthy == 0 {
		return true, min(60, 2+pending/4)
	}
	if pending > 0 {
		return true, min(60, 1+pending/4)
	}
	return false, 0
}

// --- session API (proxied) ---

// handleCreateSession places a new session on the ring and proxies the
// create to the owning worker. The coordinator chooses the session id so
// placement is a pure function of (id, ring membership); the create body
// and engines parameter are retained so the session can be rebuilt from
// scratch on another worker if it must fail over before any checkpoint was
// pulled. A worker that refuses (503, draining, or unreachable) degrades
// the routing, not the request: the next worker clockwise is tried.
func (c *Coordinator) handleCreateSession(w http.ResponseWriter, r *http.Request) {
	if c.closed.Load() {
		obs.WriteError(w, http.StatusServiceUnavailable, "coordinator is shutting down")
		return
	}
	if c.refuseSessionAPI(w) {
		return
	}
	if shed, retry := c.admission(); shed {
		c.admissionShed.Add(1)
		w.Header().Set("Retry-After", strconv.Itoa(retry))
		obs.WriteError(w, http.StatusServiceUnavailable,
			"fleet degraded (%d failovers pending): new sessions shed, retry later", c.pendingFailovers.Load())
		return
	}
	body, ok := c.readBody(w, r)
	if !ok {
		return
	}
	engines := r.URL.Query().Get("engines")
	traceID := obs.TraceIDFrom(r)
	id := obs.NewID()
	tried := make(map[string]bool)
	for {
		name, url := c.pickWorker(id, tried)
		if name == "" {
			c.admissionShed.Add(1)
			w.Header().Set("Retry-After", strconv.Itoa(min(60, 2+int(c.pendingFailovers.Load())/4)))
			obs.WriteError(w, http.StatusServiceUnavailable, "no worker accepted the session")
			return
		}
		tried[name] = true
		target := url + "/sessions"
		if engines != "" {
			target += "?engines=" + engines
		}
		t0 := time.Now()
		pr, err := c.forward(r.Context(), "POST", target, body, map[string]string{
			obs.HeaderSessionID: id,
			obs.HeaderTrace:     traceID,
			"Content-Type":      r.Header.Get("Content-Type"),
			obs.HeaderCRC:       r.Header.Get(obs.HeaderCRC),
		})
		if err != nil {
			c.noteProxyFailure(name, err)
			continue
		}
		if pr.status == http.StatusServiceUnavailable {
			continue // worker draining: degrade routing to the next on the ring
		}
		if pr.status >= 200 && pr.status < 300 {
			c.mu.Lock()
			c.placements[id] = &placement{id: id, worker: name, trace: traceID, engines: engines, header: body}
			c.mu.Unlock()
			c.sessionsCreated.Add(1)
			c.span(obs.Span{Trace: traceID, Session: id, Name: "proxy_create",
				Worker: name, Start: t0, Duration: time.Since(t0).Seconds()})
			c.cfg.Logger.Info("session placed", "session", id, "worker", name, "trace", traceID)
		}
		c.writeProxied(w, pr, name)
		return
	}
}

// pickWorker walks the ring clockwise from the id's hash, skipping workers
// already tried and anything not alive.
func (c *Coordinator) pickWorker(id string, tried map[string]bool) (name, url string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	name = c.ring.OwnerWhere(id, func(n string) bool {
		wk := c.workers[n]
		return wk != nil && wk.alive() && !tried[n]
	})
	if name == "" {
		return "", ""
	}
	return name, c.workers[name].url
}

// handleChunk proxies one chunk to the owning worker. A session mid-move is
// answered 503 without Retry-After — the move completes in well under a
// second, the client's own jittered backoff is the right cadence. A worker
// that cannot be reached starts failure detection and the client retries
// into the post-failover placement.
func (c *Coordinator) handleChunk(w http.ResponseWriter, r *http.Request) {
	if c.refuseSessionAPI(w) {
		return
	}
	id := r.PathValue("id")
	name, url, moving, ok := c.lookupPlacement(id)
	if !ok {
		obs.WriteError(w, http.StatusNotFound, "unknown session %q", id)
		return
	}
	if moving || url == "" {
		obs.WriteError(w, http.StatusServiceUnavailable, "session %s is failing over, retry", id)
		return
	}
	body, bok := c.readBody(w, r)
	if !bok {
		return
	}
	traceID := c.traceFor(r, id)
	t0 := time.Now()
	pr, err := c.forward(r.Context(), "POST", url+"/sessions/"+id+"/chunks", body, map[string]string{
		obs.HeaderTrace:  traceID,
		"Content-Type":   r.Header.Get("Content-Type"),
		obs.HeaderOffset: r.Header.Get(obs.HeaderOffset),
		obs.HeaderCRC:    r.Header.Get(obs.HeaderCRC),
	})
	if err != nil {
		c.noteProxyFailure(name, err)
		c.span(obs.Span{Trace: traceID, Session: id, Name: "proxy_chunk", Worker: name,
			Start: t0, Duration: time.Since(t0).Seconds(), Err: err.Error()})
		obs.WriteError(w, http.StatusServiceUnavailable, "worker %s unreachable, failover pending: %v", name, err)
		return
	}
	c.span(obs.Span{Trace: traceID, Session: id, Name: "proxy_chunk", Worker: name,
		Start: t0, Duration: time.Since(t0).Seconds()})
	c.writeProxied(w, pr, name)
}

// handleFinish proxies the finish and, on success, seals the placement:
// the response is cached so a replayed finish (lost reply, retried through
// a failover) returns the identical report even after the placement is
// gone.
func (c *Coordinator) handleFinish(w http.ResponseWriter, r *http.Request) {
	if c.refuseSessionAPI(w) {
		return
	}
	id := r.PathValue("id")
	name, url, moving, ok := c.lookupPlacement(id)
	if !ok {
		c.finishUnplaced(w, r, id)
		return
	}
	if moving || url == "" {
		obs.WriteError(w, http.StatusServiceUnavailable, "session %s is failing over, retry", id)
		return
	}
	traceID := c.traceFor(r, id)
	t0 := time.Now()
	pr, err := c.forward(r.Context(), "POST", url+"/sessions/"+id+"/finish", nil, map[string]string{
		obs.HeaderTrace:  traceID,
		obs.HeaderOffset: r.Header.Get(obs.HeaderOffset),
	})
	if err != nil {
		c.noteProxyFailure(name, err)
		obs.WriteError(w, http.StatusServiceUnavailable, "worker %s unreachable, failover pending: %v", name, err)
		return
	}
	if pr.status >= 200 && pr.status < 300 {
		c.rememberFinished(id, pr.body)
		c.dropPlacement(id)
		c.sessionsFinished.Add(1)
		c.span(obs.Span{Trace: traceID, Session: id, Name: "proxy_finish", Worker: name,
			Start: t0, Duration: time.Since(t0).Seconds()})
	}
	c.writeProxied(w, pr, name)
}

// finishUnplaced answers a finish for a session without a placement: a
// finish replayed after the session was sealed, perhaps across a restart or
// a takeover since. The coordinator's own reply cache answers first — it is
// the only copy once the sealing worker has died. Otherwise the sealing
// worker still holds the reply in its cache, so the finish goes to each
// live worker and the first 2xx is relayed; every other worker answers 404.
// While the grace window is open an unknown id is not yet known to be
// sealed — its worker may not have re-registered — so the finish is
// deferred until the window closes.
func (c *Coordinator) finishUnplaced(w http.ResponseWriter, r *http.Request, id string) {
	if body, cached := c.recallFinished(id); cached {
		w.Header().Set("Content-Type", "application/json")
		w.Write(body)
		return
	}
	if left := c.recoveryLeft(); left > 0 {
		w.Header().Set("Retry-After", retryAfter(left))
		obs.WriteError(w, http.StatusServiceUnavailable, "session %q unknown while workers re-register, retry", id)
		return
	}
	hdr := map[string]string{
		obs.HeaderTrace:  obs.TraceIDFrom(r),
		obs.HeaderOffset: r.Header.Get(obs.HeaderOffset),
	}
	for _, wk := range c.liveWorkers() {
		pr, err := c.forward(r.Context(), "POST", wk.url+"/sessions/"+id+"/finish", nil, hdr)
		if err != nil {
			c.noteProxyFailure(wk.name, err)
			continue
		}
		if pr.status >= 200 && pr.status < 300 {
			c.rememberFinished(id, pr.body)
			c.writeProxied(w, pr, wk.name)
			return
		}
	}
	obs.WriteError(w, http.StatusNotFound, "unknown session %q", id)
}

func (c *Coordinator) handleAbort(w http.ResponseWriter, r *http.Request) {
	if c.refuseSessionAPI(w) {
		return
	}
	id := r.PathValue("id")
	name, url, moving, ok := c.lookupPlacement(id)
	if !ok {
		obs.WriteError(w, http.StatusNotFound, "unknown session %q", id)
		return
	}
	if moving || url == "" {
		obs.WriteError(w, http.StatusServiceUnavailable, "session %s is failing over, retry", id)
		return
	}
	pr, err := c.forward(r.Context(), "DELETE", url+"/sessions/"+id, nil, nil)
	if err != nil {
		c.noteProxyFailure(name, err)
		obs.WriteError(w, http.StatusServiceUnavailable, "worker %s unreachable: %v", name, err)
		return
	}
	if (pr.status >= 200 && pr.status < 300) || pr.status == http.StatusNotFound {
		c.dropPlacement(id)
	}
	c.writeProxied(w, pr, name)
}

func (c *Coordinator) handleSessionStatus(w http.ResponseWriter, r *http.Request) {
	if c.refuseSessionAPI(w) {
		return
	}
	id := r.PathValue("id")
	name, url, moving, ok := c.lookupPlacement(id)
	if !ok {
		obs.WriteError(w, http.StatusNotFound, "unknown session %q", id)
		return
	}
	if moving || url == "" {
		obs.WriteError(w, http.StatusServiceUnavailable, "session %s is failing over, retry", id)
		return
	}
	pr, err := c.forward(r.Context(), "GET", url+"/sessions/"+id, nil, nil)
	if err != nil {
		c.noteProxyFailure(name, err)
		obs.WriteError(w, http.StatusServiceUnavailable, "worker %s unreachable, failover pending: %v", name, err)
		return
	}
	c.writeProxied(w, pr, name)
}

func (c *Coordinator) handleSessionSnapshot(w http.ResponseWriter, r *http.Request) {
	if c.refuseSessionAPI(w) {
		return
	}
	id := r.PathValue("id")
	name, url, moving, ok := c.lookupPlacement(id)
	if !ok {
		obs.WriteError(w, http.StatusNotFound, "unknown session %q", id)
		return
	}
	if moving || url == "" {
		obs.WriteError(w, http.StatusServiceUnavailable, "session %s is failing over, retry", id)
		return
	}
	pr, err := c.forward(r.Context(), "GET", url+"/sessions/"+id+"/snapshot", nil, nil)
	if err != nil {
		c.noteProxyFailure(name, err)
		obs.WriteError(w, http.StatusServiceUnavailable, "worker %s unreachable: %v", name, err)
		return
	}
	c.writeProxied(w, pr, name)
}

// --- finish idempotency cache ---

// The finish-reply cache keeps at most finishedCacheCap entries, each for
// at most finishedTTL.
const (
	finishedCacheCap = 4096
	finishedTTL      = 10 * time.Minute
)

func (c *Coordinator) rememberFinished(id string, body []byte) {
	c.finMu.Lock()
	defer c.finMu.Unlock()
	if _, ok := c.finished[id]; !ok {
		c.finOrder = append(c.finOrder, id)
	}
	c.finished[id] = finishedEntry{body: body, at: time.Now()}
	for len(c.finOrder) > finishedCacheCap {
		delete(c.finished, c.finOrder[0])
		c.finOrder = c.finOrder[1:]
		c.finEvictions.Add(1)
	}
}

func (c *Coordinator) recallFinished(id string) ([]byte, bool) {
	c.finMu.Lock()
	defer c.finMu.Unlock()
	e, ok := c.finished[id]
	return e.body, ok
}

// expireFinished drops cached finish replies older than finishedTTL at now.
// Entries land in time order, so the scan stops at the first fresh one.
// Called from the monitor loop.
func (c *Coordinator) expireFinished(now time.Time) {
	cutoff := now.Add(-finishedTTL)
	c.finMu.Lock()
	defer c.finMu.Unlock()
	for len(c.finOrder) > 0 {
		id := c.finOrder[0]
		if e, ok := c.finished[id]; ok && e.at.After(cutoff) {
			break
		}
		delete(c.finished, id)
		c.finOrder = c.finOrder[1:]
		c.finEvictions.Add(1)
	}
}

// --- fleet membership handlers ---

// handleRegister admits a worker into the ring (or welcomes one back). The
// worker's open-session list is reconciled in both directions: sessions the
// coordinator doesn't know are adopted — after every start and takeover this
// is how placements are rebuilt — and sessions the coordinator has since
// failed over elsewhere are returned as stale for the worker to abort, the
// split-brain a healed partition leaves behind.
func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req registerRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		obs.WriteError(w, http.StatusBadRequest, "register: %v", err)
		return
	}
	if req.Name == "" || req.URL == "" {
		obs.WriteError(w, http.StatusBadRequest, "register: name and url are required")
		return
	}
	var stale, adopted []string
	c.mu.Lock()
	// A standby keeps a membership view but makes no placement decisions:
	// no adoption, no stale verdicts, no rebalancing. Read under mu, which
	// takeover holds while it resets membership and flips the mode, so a
	// registration lands wholly before or wholly after the takeover.
	standby := c.standbyMode.Load()
	c.trackFence(req.Epoch)
	recovering := time.Now().Before(c.recoveringUntil)
	// While recovering, the fleet's fencing epoch may be ahead of ours:
	// adopt above any fence a re-registering worker reports, or our own
	// writes would be rejected by the fence our predecessor raised. Outside
	// the window a higher fence means this coordinator is the zombie.
	if !standby && recovering && req.Epoch >= c.epoch.Load() {
		c.epoch.Store(req.Epoch + 1)
		c.cfg.Logger.Info("adopted fencing epoch from worker report",
			"worker", req.Name, "epoch", req.Epoch+1)
	}
	wk := c.workers[req.Name]
	if wk == nil {
		wk = &worker{name: req.Name}
		c.workers[req.Name] = wk
	}
	wk.url = req.URL
	wk.state = workerActive
	wk.lastBeat = time.Now()
	wk.load = req.Load
	c.ring.Add(req.Name)
	for _, id := range req.Sessions {
		pl := c.placements[id]
		switch {
		case standby:
			// Placements are the primary's until a takeover.
		case pl == nil:
			c.placements[id] = &placement{id: id, worker: req.Name}
			adopted = append(adopted, id)
		case pl.worker != req.Name && !pl.moving:
			// Owned elsewhere now: the rejoining worker's copy is stale.
			stale = append(stale, id)
		}
	}
	c.mu.Unlock()
	if len(adopted) > 0 {
		c.sessionsAdopted.Add(uint64(len(adopted)))
		c.kickPull() // fetch restore blobs for adopted sessions promptly
	}
	c.cfg.Logger.Info("worker registered", "worker", req.Name, "url", req.URL, "standby", standby,
		"sessions", len(req.Sessions), "adopted", len(adopted), "stale", len(stale))
	if !standby && !recovering && !c.cfg.NoRebalance {
		staleSet := make(map[string]bool, len(stale))
		for _, id := range stale {
			staleSet[id] = true
		}
		c.rebalanceOnto(req.Name, staleSet)
	}
	c.retryStalledFailovers()
	obs.WriteJSON(w, http.StatusOK, registerResponse{
		HeartbeatMS: c.cfg.HeartbeatEvery.Milliseconds(),
		Stale:       stale,
		Epoch:       c.epoch.Load(),
	})
}

// handleHeartbeat refreshes a worker's deadline and load. A heartbeat from
// a worker the coordinator has declared dead (or never met) is answered
// 410/404 so the agent re-registers and reconciles.
func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req registerRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		obs.WriteError(w, http.StatusBadRequest, "heartbeat: %v", err)
		return
	}
	c.mu.Lock()
	c.trackFence(req.Epoch)
	wk := c.workers[req.Name]
	var state workerState
	if wk != nil {
		state = wk.state
		if state == workerActive || state == workerDraining {
			wk.lastBeat = time.Now()
			wk.load = req.Load
		}
	}
	c.mu.Unlock()
	switch {
	case wk == nil:
		obs.WriteError(w, http.StatusNotFound, "worker %q is not registered", req.Name)
	case state == workerSuspect, state == workerDead:
		obs.WriteError(w, http.StatusGone, "worker %q was declared failed; re-register", req.Name)
	default:
		// The ack carries the fencing epoch so every heartbeat cycle
		// propagates a takeover's new epoch to the whole fleet.
		obs.WriteJSON(w, http.StatusOK, map[string]any{"ok": true, "epoch": c.epoch.Load()})
	}
}

// trackFence raises a standby's epoch to the highest fence its workers
// report on registers and heartbeats, so that a takeover's epoch+1
// outranks the primary it replaces even if no worker re-registers inside
// the grace window. A standby stamps no writes, so holding the fleet's own
// epoch costs nothing. Called with mu held; takeover bumps the epoch under
// mu too.
func (c *Coordinator) trackFence(reported uint64) {
	if c.standbyMode.Load() && reported > c.epoch.Load() {
		c.epoch.Store(reported)
	}
}

// --- observability ---

func (c *Coordinator) fleetSnapshot() ([]workerInfo, int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	infos := make([]workerInfo, 0, len(c.workers))
	healthy := 0
	for _, wk := range c.workers {
		if wk.alive() {
			healthy++
		}
		infos = append(infos, workerInfo{
			Name:          wk.name,
			URL:           wk.url,
			State:         wk.state.String(),
			LastBeatMSAgo: now.Sub(wk.lastBeat).Milliseconds(),
			Load:          wk.load,
		})
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	return infos, healthy
}

func (c *Coordinator) handleFleet(w http.ResponseWriter, r *http.Request) {
	infos, healthy := c.fleetSnapshot()
	obs.WriteJSON(w, http.StatusOK, map[string]any{
		"workers":            infos,
		"healthy":            healthy,
		"placements":         c.Placements(),
		"pending_failovers":  c.pendingFailovers.Load(),
		"pending_migrations": c.pendingMigrations.Load(),
	})
}

func (c *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	infos, healthy := c.fleetSnapshot()
	status, code := "ok", http.StatusOK
	switch {
	case c.closed.Load():
		status, code = "closing", http.StatusServiceUnavailable
	case c.fenced.Load():
		status, code = "fenced", http.StatusServiceUnavailable
	case c.standbyMode.Load():
		status = "standby"
	case healthy == 0:
		status, code = "no-workers", http.StatusServiceUnavailable
	case c.recovering():
		status = "recovering"
	case c.pendingFailovers.Load() > 0:
		status = "degraded"
	}
	c.mu.Lock()
	sessions := len(c.placements)
	c.mu.Unlock()
	obs.WriteJSON(w, code, map[string]any{
		"status":         status,
		"workers":        len(infos),
		"healthy":        healthy,
		"sessions":       sessions,
		"epoch":          c.epoch.Load(),
		"uptime_seconds": time.Since(c.start).Seconds(),
	})
}

// newMetrics wires every fleet-level series into the coordinator's registry.
// The fleet_* names are scraped by smoke scripts and dashboards — they are
// load-bearing, do not rename them. The coordinator's own series stay
// unlabeled; the worker= label belongs exclusively to scraped worker series.
func (c *Coordinator) newMetrics() {
	reg := obs.NewRegistry()
	c.reg = reg
	c.proxied = reg.Counter("fleet_proxied_requests_total", "Requests forwarded to workers.")
	c.sessionsCreated = reg.Counter("fleet_sessions_created_total", "Sessions placed on the ring.")
	c.sessionsFinished = reg.Counter("fleet_sessions_finished_total", "Sessions sealed through the coordinator.")
	c.admissionShed = reg.Counter("fleet_admission_shed_total", "Session creates refused while the fleet was degraded.")
	c.workerFailovers = reg.Counter("fleet_worker_failovers_total", "Workers declared failed.")
	c.sessionsFailed = reg.Counter("fleet_sessions_failed_over_total", "Sessions restored on a survivor after their worker died.")
	c.sessionsMigrated = reg.Counter("fleet_sessions_migrated_total", "Sessions moved gracefully (drain, rebalance).")
	c.sessionsLost = reg.Counter("fleet_sessions_lost_total", "Sessions unrecoverable after failure (no checkpoint or create header held).")
	c.sessionsAdopted = reg.Counter("fleet_sessions_adopted_total", "Sessions adopted from re-registering workers after a coordinator start or takeover.")
	c.pullsOK = reg.Counter("fleet_checkpoint_pulls_total", "Session checkpoints pulled from workers.")
	c.pullsFailed = reg.Counter("fleet_checkpoint_pull_failures_total", "Checkpoint pulls that failed.")
	c.reportMerges = reg.Counter("fleet_report_merges_total", "Merged /reports responses served.")
	c.finEvictions = reg.Counter("fleet_finished_cache_evictions_total", "Cached finish replies evicted by TTL or capacity.")
	c.forwardRetries = reg.Counter("fleet_forward_retries_total", "Worker requests retried once after a transient dial failure.")
	c.epochRejects = reg.Counter("fleet_epoch_rejects_total", "Worker rejections of this coordinator's fencing epoch (a successor exists).")
	c.takeovers = reg.Counter("fleet_standby_takeovers_total", "Times this coordinator promoted itself from standby to primary.")
	c.proxyDur = reg.Histogram("fleet_proxy_seconds", "Latency of one proxied worker request.", nil)

	reg.GaugeFunc("fleet_workers", "Registered workers.", func() float64 {
		infos, _ := c.fleetSnapshot()
		return float64(len(infos))
	})
	reg.GaugeFunc("fleet_workers_healthy", "Workers with a fresh heartbeat.", func() float64 {
		_, healthy := c.fleetSnapshot()
		return float64(healthy)
	})
	for _, st := range []string{"active", "suspect", "draining", "dead"} {
		st := st
		reg.GaugeFunc("fleet_workers_state", "Workers by lifecycle state.", func() float64 {
			infos, _ := c.fleetSnapshot()
			n := 0
			for _, wi := range infos {
				if wi.State == st {
					n++
				}
			}
			return float64(n)
		}, obs.Label{Key: "state", Value: st})
	}
	reg.GaugeFunc("fleet_sessions_placed", "Sessions with a live placement.", func() float64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return float64(len(c.placements))
	})
	reg.GaugeFunc("fleet_pending_failovers", "Failovers queued but not yet restored.", func() float64 {
		return float64(c.pendingFailovers.Load())
	})
	reg.GaugeFunc("fleet_pending_migrations", "Graceful moves in flight.", func() float64 {
		return float64(c.pendingMigrations.Load())
	})
	reg.GaugeFunc("fleet_uptime_seconds", "Seconds since this coordinator started.", func() float64 {
		return time.Since(c.start).Seconds()
	})
	reg.GaugeFunc("fleet_coordinator_epoch", "This coordinator's fencing epoch (monotonic across incarnations).", func() float64 {
		return float64(c.epoch.Load())
	})
	reg.GaugeFunc("fleet_coordinator_standby", "1 while this coordinator is a warm standby, 0 when primary.", func() float64 {
		if c.standbyMode.Load() {
			return 1
		}
		return 0
	})
}

// handleMetrics serves the coordinator's own registry followed by every live
// worker's scraped registry, each worker's series re-labeled with
// worker="name" and merged per family so the output stays a valid exposition
// (one HELP/TYPE per family even when every worker exports it).
func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	c.reg.WritePrometheus(w)

	targets := c.liveWorkers()
	groups := make([][]*obs.ParsedFamily, 0, len(targets))
	for _, t := range targets {
		pr, err := c.forward(r.Context(), "GET", t.url+"/metrics", nil, nil)
		if err != nil || pr.status != http.StatusOK {
			c.cfg.Logger.Warn("worker metrics scrape failed", "worker", t.name, "err", err)
			continue
		}
		fams, err := obs.ParseExposition(pr.body)
		if err != nil {
			c.cfg.Logger.Warn("worker metrics unparseable", "worker", t.name, "err", err)
			continue
		}
		for _, f := range fams {
			f.Inject("worker", t.name)
		}
		groups = append(groups, fams)
	}
	if len(groups) > 0 {
		obs.WriteFamilies(w, obs.MergeFamilies(groups...))
	}
}

// span records one coordinator-side span. The Worker field carries the
// proxied-to worker, so the coordinator's timeline names dead workers long
// after they stop answering.
func (c *Coordinator) span(sp obs.Span) { c.trace.Add(sp) }

// mergedSpans gathers spans for one trace or session across the coordinator
// and every live worker. kind is "trace" or "sessions" (the debug URL path).
func (c *Coordinator) mergedSpans(ctx context.Context, kind, id string, own []obs.Span) []obs.Span {
	spans := own
	for _, wk := range c.liveWorkers() {
		pr, err := c.forward(ctx, "GET", wk.url+"/debug/"+kind+"/"+id, nil, nil)
		if err != nil || pr.status != http.StatusOK {
			continue
		}
		var out struct {
			Spans []obs.Span `json:"spans"`
		}
		if json.Unmarshal(pr.body, &out) == nil {
			spans = append(spans, out.Spans...)
		}
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start.Before(spans[j].Start) })
	if spans == nil {
		spans = []obs.Span{}
	}
	return spans
}

// handleDebugTrace (GET /debug/trace/{id}) returns the fleet-wide view of
// one request trace: the coordinator's proxy and failover spans plus every
// live worker's retained spans, ordered by start time. Spans proxied to a
// worker that has since died survive here — the coordinator's record is the
// dead worker's obituary.
func (c *Coordinator) handleDebugTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !obs.ValidID(id) {
		obs.WriteError(w, http.StatusBadRequest, "bad trace id %q", id)
		return
	}
	spans := c.mergedSpans(r.Context(), "trace", id, c.trace.ByTrace(id))
	obs.WriteJSON(w, http.StatusOK, map[string]any{"trace": id, "spans": spans})
}

// handleDebugSession (GET /debug/sessions/{id}) is the session-keyed
// equivalent: one session's lifecycle across every worker that ever held it.
func (c *Coordinator) handleDebugSession(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !obs.ValidID(id) {
		obs.WriteError(w, http.StatusBadRequest, "bad session id %q", id)
		return
	}
	spans := c.mergedSpans(r.Context(), "sessions", id, c.trace.BySession(id))
	obs.WriteJSON(w, http.StatusOK, map[string]any{"session": id, "spans": spans})
}
