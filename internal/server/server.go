// Package server is raced's HTTP layer: an always-on race-analysis service
// over the repository's engines. Clients open a session by POSTing a binary
// trace header (the symbol universe sizes the detectors up front), then
// stream the event body in arbitrarily-sized chunks; each chunk is decoded
// block by block straight into per-session resumable detector sessions, so
// analysis is incremental and memory stays O(detector state) per session no
// matter how long the trace runs. Finishing a session folds its race
// reports into a global deduplicating fingerprint store queryable over
// /reports.
//
// Admission goes through a bounded scheduler (internal/server/sched): one
// session's chunks are analyzed serially in arrival order, concurrent
// sessions share a fixed worker pool, and a full queue sheds load with
// 429/Retry-After instead of queueing without bound.
package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/server/sched"
	"repro/internal/trace"
	"repro/internal/traceio"
)

// checkCRC verifies the declared checksum (obs.HeaderCRC), when present,
// against prefix followed by body. A non-nil error is the 422 message.
func checkCRC(r *http.Request, prefix string, body []byte) error {
	v := r.Header.Get(obs.HeaderCRC)
	if v == "" {
		return nil
	}
	want, err := strconv.ParseUint(v, 10, 32)
	if err != nil {
		return fmt.Errorf("bad %s header %q", obs.HeaderCRC, v)
	}
	h := crc32.NewIEEE()
	io.WriteString(h, prefix)
	h.Write(body)
	if got := h.Sum32(); got != uint32(want) {
		return fmt.Errorf("integrity check failed: computed crc32 %d, header declares %d — resend the request", got, want)
	}
	return nil
}

// Config parameterizes a Server. The zero value picks usable defaults.
type Config struct {
	// DefaultEngines are the engines a session runs when the request names
	// none. Defaults to ["wcp"].
	DefaultEngines []string
	// Workers and QueueCap size the admission scheduler (see sched.Config).
	Workers  int
	QueueCap int
	// MaxBodyBytes caps a single request body. Defaults to 32 MiB.
	MaxBodyBytes int64
	// MaxSessions caps concurrently-open sessions. Defaults to 1024.
	MaxSessions int
	// MaxThreads caps the thread count a session header may declare.
	// Detector state is O(threads²) clock words per engine, so this is the
	// real memory guard — a crafted header must not be able to demand
	// terabytes. Defaults to 4096.
	MaxThreads int
	// MaxSymbols caps each remaining symbol table (locks, vars, locations)
	// a header may declare. Defaults to 1<<20.
	MaxSymbols int
	// IdleTimeout evicts sessions with no chunk activity for this long
	// (their partial results still reach the report store). Defaults to
	// 5 minutes; <0 disables eviction.
	IdleTimeout time.Duration
	// JanitorPeriod is how often idle sessions are collected. Defaults to
	// IdleTimeout/4.
	JanitorPeriod time.Duration
	// CheckpointDir, when non-empty, enables session durability: open
	// sessions and the report store are checkpointed there, restored on
	// startup, and a graceful Close checkpoints instead of finalizing.
	CheckpointDir string
	// CheckpointEvery is the periodic checkpoint interval. Defaults to
	// 30 seconds when CheckpointDir is set; <0 disables the periodic loop
	// (checkpoints then happen only via POST /checkpoint and Close).
	CheckpointEvery time.Duration
	// CompactEveryEvents is the compaction cadence installed on every
	// session engine (see engine.CompactPolicy). Zero disables compaction.
	CompactEveryEvents int
	// StateBudgetBytes caps the summed detector state across all open
	// sessions. When the total exceeds it the server degrades gracefully
	// instead of OOMing: first forced compaction (largest sessions first),
	// then the coldest sessions are parked: each swaps its engines for
	// their snapshot frames, kept in memory or, with a CheckpointDir, in
	// its checkpoint file. A parked session stays open and counts against
	// MaxSessions; status and snapshot requests serve it as it is, and the
	// next chunk past its ack, finish or idle eviction wakes it in place.
	// 0 disables the budget.
	StateBudgetBytes int64
	// IngestTimeout bounds reading one request body (header or chunk), so
	// a stalled peer cannot hold a connection forever. Defaults to 1
	// minute; <0 disables the deadline.
	IngestTimeout time.Duration
	// ExtraMetrics, when non-nil, is appended to the /metrics output —
	// the daemon uses it to export fault-injection counters in -chaos
	// soak runs.
	ExtraMetrics func(io.Writer)
	// Logger receives structured operational logs; nil discards them.
	Logger *slog.Logger
	// Name identifies this instance (the fleet worker name) in trace spans.
	// Empty for a single-node daemon.
	Name string
	// ObsSampleEvery samples per-stage timing (block decode, per-engine
	// process) on every Nth decoded block, keeping the ingest hot loop free
	// of time syscalls and allocations between samples. Defaults to 32;
	// <0 disables stage timing entirely. Per-chunk instruments are always
	// on.
	ObsSampleEvery int
	// TraceSpanCap bounds the in-memory span ring serving /debug/trace and
	// /debug/sessions. Defaults to obs.DefaultSpanCap.
	TraceSpanCap int
}

func (c *Config) fill() {
	if len(c.DefaultEngines) == 0 {
		c.DefaultEngines = []string{"wcp"}
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 32 << 20
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 1024
	}
	if c.MaxThreads <= 0 {
		c.MaxThreads = 4096
	}
	if c.MaxSymbols <= 0 {
		c.MaxSymbols = 1 << 20
	}
	if c.IdleTimeout == 0 {
		c.IdleTimeout = 5 * time.Minute
	}
	if c.CheckpointEvery == 0 {
		c.CheckpointEvery = 30 * time.Second
	}
	if c.JanitorPeriod <= 0 {
		c.JanitorPeriod = c.IdleTimeout / 4
	}
	if c.IngestTimeout == 0 {
		c.IngestTimeout = time.Minute
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.DiscardHandler)
	}
	if c.ObsSampleEvery == 0 {
		c.ObsSampleEvery = 32
	}
	if c.ObsSampleEvery < 0 {
		c.ObsSampleEvery = 0 // 0 means "never sample" internally
	}
}

// Server is the raced service state: sessions, scheduler, report store.
// Create with New, serve via Handler, stop with Close.
type Server struct {
	cfg   Config
	sched *sched.Scheduler
	store *report.Store
	mux   *http.ServeMux
	start time.Time
	obs   *serverObs

	// sessions holds every open session, resident or parked.
	mu       sync.Mutex
	sessions map[string]*session

	// finished caches the response of a sealed session so a client that
	// lost the finish reply can replay the request idempotently.
	finMu    sync.Mutex
	finished map[string]sessionFinished
	finOrder []string

	// stateTotal is the live sum of cached per-session detector
	// StateBytes, the quantity StateBudgetBytes bounds.
	stateTotal atomic.Int64

	draining atomic.Bool
	// coordEpoch is the highest coordinator fencing epoch seen (header or
	// heartbeat ack); mutating requests stamped with a lower one get 412.
	coordEpoch atomic.Uint64

	janitorStop  chan struct{}
	janitorDone  chan struct{}
	ckptStop     chan struct{}
	ckptDone     chan struct{}
	pressureKick chan struct{}
	pressureStop chan struct{}
	pressureDone chan struct{}

	// counters live in the obs registry (registerMetrics wires them), so
	// /metrics is a straight registry exposition; gauges are read live at
	// scrape time via GaugeFuncs.
	eventsIngested   *obs.Counter
	chunksIngested   *obs.Counter
	sessionsCreated  *obs.Counter
	sessionsFinished *obs.Counter
	sessionsEvicted  *obs.Counter
	shed             *obs.Counter
	chunksReplayed   *obs.Counter
	eventsReplayed   *obs.Counter
	integrityRejects *obs.Counter
	gapRejects       *obs.Counter
	sessionsParked   *obs.Counter
	sessionsUnparked *obs.Counter
	epochRejects     *obs.Counter
}

// New builds a Server and starts its scheduler and idle-session janitor.
func New(cfg Config) *Server {
	cfg.fill()
	o := newServerObs(&cfg)
	s := &Server{
		cfg: cfg,
		obs: o,
		sched: sched.New(sched.Config{
			Workers:  cfg.Workers,
			QueueCap: cfg.QueueCap,
			WaitObserve: func(d time.Duration) {
				o.queueWait.Observe(d.Seconds())
			},
		}),
		store:        report.NewStore(),
		sessions:     make(map[string]*session),
		finished:     make(map[string]sessionFinished),
		start:        time.Now(),
		janitorStop:  make(chan struct{}),
		janitorDone:  make(chan struct{}),
		ckptStop:     make(chan struct{}),
		ckptDone:     make(chan struct{}),
		pressureKick: make(chan struct{}, 1),
		pressureStop: make(chan struct{}),
		pressureDone: make(chan struct{}),
	}
	s.registerMetrics()
	// Crash recovery: re-open whatever the previous process checkpointed
	// before accepting any traffic.
	s.restoreCheckpoints()
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /sessions", s.handleCreateSession)
	s.mux.HandleFunc("GET /sessions", s.handleListSessions)
	s.mux.HandleFunc("GET /sessions/{id}", s.handleSessionStatus)
	s.mux.HandleFunc("POST /sessions/{id}/chunks", s.handleChunk)
	s.mux.HandleFunc("POST /sessions/{id}/finish", s.handleFinish)
	s.mux.HandleFunc("DELETE /sessions/{id}", s.handleAbort)
	s.mux.HandleFunc("POST /checkpoint", s.handleCheckpoint)
	s.mux.HandleFunc("GET /sessions/{id}/snapshot", s.handleSessionSnapshot)
	s.mux.HandleFunc("POST /sessions/restore", s.handleSessionRestore)
	s.mux.HandleFunc("GET /reports", s.handleReports)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /debug/trace/{id}", s.handleDebugTrace)
	s.mux.HandleFunc("GET /debug/sessions/{id}", s.handleDebugSession)
	if cfg.IdleTimeout > 0 {
		go s.janitor()
	} else {
		close(s.janitorDone)
	}
	if cfg.CheckpointDir != "" && cfg.CheckpointEvery > 0 {
		go s.checkpointLoop()
	} else {
		close(s.ckptDone)
	}
	if cfg.StateBudgetBytes > 0 {
		go s.pressureLoop()
	} else {
		close(s.pressureDone)
	}
	return s
}

// Handler returns the HTTP handler serving the raced API.
func (s *Server) Handler() http.Handler { return s.mux }

// Store exposes the deduplicating report store (for embedding servers).
func (s *Server) Store() *report.Store { return s.store }

// Close drains the server: new requests are refused (503), the scheduler
// finishes every accepted chunk, and still-open sessions are finalized so
// their races reach the report store (parked ones are woken for it). With
// a CheckpointDir configured, open sessions are checkpointed instead of
// finalized — a graceful restart and crash recovery share the restore
// path, and a session parked to disk is already checkpointed. Safe to call
// once.
func (s *Server) Close(ctx context.Context) error {
	s.draining.Store(true)
	close(s.janitorStop)
	<-s.janitorDone
	close(s.ckptStop)
	<-s.ckptDone
	close(s.pressureStop)
	<-s.pressureDone
	err := s.sched.Drain(ctx)

	s.mu.Lock()
	open := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		open = append(open, sess)
	}
	s.sessions = make(map[string]*session)
	s.mu.Unlock()
	if s.cfg.CheckpointDir != "" {
		kept := 0
		for _, sess := range open {
			// The scheduler is drained, so writing directly is serialized.
			if cerr := s.checkpointSession(sess); cerr != nil {
				s.cfg.Logger.Error("shutdown checkpoint failed, finalizing", "session", sess.id, "err", cerr)
				sess.finalize(s.store, time.Now())
				s.dropSessionCheckpoint(sess.id)
				continue
			}
			kept++
		}
		s.checkpointStore()
		if len(open) > 0 {
			s.cfg.Logger.Info("checkpointed open sessions at shutdown", "sessions", kept)
		}
		return err
	}
	for _, sess := range open {
		sess.finalize(s.store, time.Now())
	}
	if len(open) > 0 {
		s.cfg.Logger.Info("finalized open sessions at shutdown", "sessions", len(open))
	}
	return err
}

// janitor evicts idle sessions, parked ones included, on a timer. Eviction
// goes through the scheduler under the session's key, so it serializes
// behind any chunk still queued for that session.
func (s *Server) janitor() {
	defer close(s.janitorDone)
	t := time.NewTicker(s.cfg.JanitorPeriod)
	defer t.Stop()
	for {
		select {
		case <-s.janitorStop:
			return
		case <-t.C:
		}
		cutoff := time.Now().Add(-s.cfg.IdleTimeout)
		s.mu.Lock()
		var stale []*session
		for _, sess := range s.sessions {
			if sess.idleSince().Before(cutoff) {
				stale = append(stale, sess)
			}
		}
		s.mu.Unlock()
		for _, sess := range stale {
			sess := sess
			err := s.sched.Submit(sess.id, func() {
				// Chunks queued behind this task may have touched the
				// session since the tick collected it, and an earlier tick's
				// task may have evicted it: re-check at execution time.
				if s.getSession(sess.id) != sess || sess.idleSince().After(time.Now().Add(-s.cfg.IdleTimeout)) {
					return
				}
				sess.finalize(s.store, time.Now())
				s.noteSessionState(sess)
				s.checkpointStore()
				s.dropSessionCheckpoint(sess.id)
				s.sessionsEvicted.Add(1)
				// The session leaves the registry only once its races are in
				// the store, so a client that finds it gone finds them in
				// /reports.
				s.dropSession(sess)
				s.cfg.Logger.Info("evicted idle session", "session", sess.id, "events", sess.status().Events)
			})
			if err != nil {
				// Saturated or draining: retry at the next tick.
				continue
			}
		}
	}
}

// dropSession removes sess from the registry if it is still registered:
// an abort may have removed it already, and a new session may hold its id
// since.
func (s *Server) dropSession(sess *session) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sessions[sess.id] == sess {
		delete(s.sessions, sess.id)
	}
}

func (s *Server) getSession(id string) *session {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sessions[id]
}

// attach wires a session into this server on every path that makes it
// live (create, restore): observability, the compaction policy, and the
// wake hook parking relies on.
func (s *Server) attach(sess *session) {
	s.instrument(sess)
	s.applyCompactPolicy(sess)
	sess.wake = s.wake
}

// --- helpers ---

type apiError struct {
	Error  string `json:"error"`
	Offset int64  `json:"offset,omitempty"`
	Event  int64  `json:"event"` // -1 in a header
}

// writeDecodeError maps a chunk/trace decode failure or §2.1 violation to
// 400 with the event index (and, for a decode failure, the byte offset)
// the traceio layer or the checker captured.
func writeDecodeError(w http.ResponseWriter, err error) {
	var de *traceio.DecodeError
	if errors.As(err, &de) {
		obs.WriteJSON(w, http.StatusBadRequest, apiError{Error: de.Error(), Offset: de.Offset, Event: de.Event})
		return
	}
	var ve *trace.ValidationError
	if errors.As(err, &ve) {
		obs.WriteJSON(w, http.StatusBadRequest, apiError{Error: ve.Error(), Event: int64(ve.Index)})
		return
	}
	obs.WriteError(w, http.StatusBadRequest, "%v", err)
}

// retryAfterSecs derives the Retry-After hint from live scheduler pressure
// instead of a constant: floor seconds plus one second per full round of
// queued work the pool has ahead of the caller, clamped at a minute. A
// draining scheduler pins the hint to the floor — the backlog is finishing,
// the client should retry against the restarted process soon.
func (s *Server) retryAfterSecs(floor int) int {
	if s.sched.Draining() {
		return floor
	}
	secs := floor + s.sched.QueueDepth()/max(s.sched.Workers(), 1)
	return min(secs, 60)
}

// shed429 sheds one request: 429 with a queue-depth-derived Retry-After.
func (s *Server) shed429(w http.ResponseWriter, floor int, format string, args ...any) {
	s.shed.Add(1)
	w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSecs(floor)))
	obs.WriteError(w, http.StatusTooManyRequests, format, args...)
}

// shedOrFail maps scheduler admission errors: saturation is 429 with a
// Retry-After hint, draining is 503.
func (s *Server) shedOrFail(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, sched.ErrSaturated):
		s.shed429(w, 1, "analysis queue saturated, retry later")
	case errors.Is(err, sched.ErrDraining), s.draining.Load():
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSecs(1)))
		obs.WriteError(w, http.StatusServiceUnavailable, "server is draining")
	default:
		obs.WriteError(w, http.StatusInternalServerError, "%v", err)
	}
}

// setIngestDeadline bounds how long a request body read may take, so a
// stalled peer degrades to a timed-out request instead of a pinned
// connection. Best effort: not every ResponseWriter supports deadlines.
func (s *Server) setIngestDeadline(w http.ResponseWriter) {
	if s.cfg.IngestTimeout <= 0 {
		return
	}
	rc := http.NewResponseController(w)
	_ = rc.SetReadDeadline(time.Now().Add(s.cfg.IngestTimeout))
}

// --- finish idempotency cache ---

// finishedCacheCap bounds the replayable-finish cache; oldest entries fall
// out first. 4096 sealed sessions of headroom is far past any retry window.
const finishedCacheCap = 4096

// rememberFinished caches a sealed session's finish response so a client
// whose finish reply was lost in transit can replay the request and get the
// identical report instead of a 404.
func (s *Server) rememberFinished(id string, resp sessionFinished) {
	s.finMu.Lock()
	defer s.finMu.Unlock()
	if _, ok := s.finished[id]; !ok {
		s.finOrder = append(s.finOrder, id)
	}
	s.finished[id] = resp
	for len(s.finOrder) > finishedCacheCap {
		delete(s.finished, s.finOrder[0])
		s.finOrder = s.finOrder[1:]
	}
}

func (s *Server) recallFinished(id string) (sessionFinished, bool) {
	s.finMu.Lock()
	defer s.finMu.Unlock()
	resp, ok := s.finished[id]
	return resp, ok
}

func (s *Server) refuseDraining(w http.ResponseWriter) bool {
	if s.draining.Load() {
		obs.WriteError(w, http.StatusServiceUnavailable, "server is draining")
		return true
	}
	return false
}

// NoteCoordinatorEpoch raises the worker's coordinator-epoch fence to e.
// The fence is monotonic: it never lowers, so once a standby's takeover
// epoch reaches this worker (heartbeat ack or proxied request), the
// superseded primary's writes are refused forever.
func (s *Server) NoteCoordinatorEpoch(e uint64) {
	for {
		cur := s.coordEpoch.Load()
		if e <= cur || s.coordEpoch.CompareAndSwap(cur, e) {
			return
		}
	}
}

// CoordinatorEpoch reports the highest coordinator epoch seen.
func (s *Server) CoordinatorEpoch() uint64 { return s.coordEpoch.Load() }

// refuseFenced rejects a mutating request stamped (via obs.HeaderEpoch)
// with a coordinator epoch below the fence. 412 is deliberate: the fleet
// client treats it as retryable, so a client talking through a zombie
// coordinator rotates to the live one instead of giving up; the zombie
// itself fences on seeing it. The current fence rides back in the response
// header. An absent or malformed header passes — direct clients are never
// fenced — and a higher epoch advances the fence right here.
func (s *Server) refuseFenced(w http.ResponseWriter, r *http.Request) bool {
	v := r.Header.Get(obs.HeaderEpoch)
	if v == "" {
		return false
	}
	e, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		return false
	}
	if cur := s.coordEpoch.Load(); e < cur {
		s.epochRejects.Add(1)
		w.Header().Set(obs.HeaderEpoch, strconv.FormatUint(cur, 10))
		obs.WriteError(w, http.StatusPreconditionFailed,
			"coordinator epoch %d is fenced (worker has seen %d)", e, cur)
		return true
	}
	s.NoteCoordinatorEpoch(e)
	return false
}

// engineNames parses the ?engines=a,b,c parameter, defaulting to the
// configured list.
func (s *Server) engineNames(r *http.Request) []string {
	raw := r.URL.Query().Get("engines")
	if raw == "" {
		return s.cfg.DefaultEngines
	}
	parts := strings.Split(raw, ",")
	names := parts[:0]
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			names = append(names, p)
		}
	}
	return names
}

// engineResult is the JSON shape of one engine's outcome.
type engineResult struct {
	Engine        string  `json:"engine"`
	Events        int     `json:"events"`
	RacyEvents    int     `json:"racy_events"`
	FirstRace     int     `json:"first_race"`
	Distinct      int     `json:"distinct"`
	QueueMaxTotal int     `json:"queue_max_total,omitempty"`
	Summary       string  `json:"summary"`
	Report        string  `json:"report,omitempty"`
	DurationMS    float64 `json:"duration_ms"`
	Error         string  `json:"error,omitempty"`
}

func renderResult(res *engine.Result, events int, h traceio.Header) engineResult {
	er := engineResult{
		Engine:        res.Engine,
		Events:        events,
		RacyEvents:    res.RacyEvents,
		FirstRace:     res.FirstRace,
		Distinct:      res.Distinct(),
		QueueMaxTotal: res.QueueMaxTotal,
		Summary:       res.Summary,
		DurationMS:    float64(res.Duration.Microseconds()) / 1e3,
	}
	if res.Report != nil {
		er.Report = res.Report.Format(h.Syms)
	}
	if res.Err != nil {
		er.Error = res.Err.Error()
	}
	return er
}

// --- session lifecycle handlers ---

type sessionCreated struct {
	ID      string   `json:"id"`
	Engines []string `json:"engines"`
	Dims    struct {
		Threads int `json:"threads"`
		Locks   int `json:"locks"`
		Vars    int `json:"vars"`
		Locs    int `json:"locs"`
	} `json:"dims"`
}

// handleCreateSession opens a session: the body is a binary trace header
// (traceio.WriteHeader) declaring the symbol universe, which sizes every
// requested engine's detector up front.
func (s *Server) handleCreateSession(w http.ResponseWriter, r *http.Request) {
	if s.refuseDraining(w) {
		return
	}
	if s.refuseFenced(w, r) {
		return
	}
	tStart := time.Now()
	traceID := obs.TraceIDFrom(r)
	names := s.engineNames(r)
	makers := make([]engine.SessionEngine, len(names))
	for i, name := range names {
		e, err := engine.New(name, engine.Config{})
		if err != nil {
			obs.WriteError(w, http.StatusBadRequest, "%v", err)
			return
		}
		se, ok := e.(engine.SessionEngine)
		if !ok {
			obs.WriteError(w, http.StatusBadRequest,
				"engine %q cannot run as a streaming session (streaming engines: wcp, hb)", name)
			return
		}
		makers[i] = se
	}

	// Buffer the header body so an optional obs.HeaderCRC can vouch for it
	// before it shapes detector allocation: a bit flipped inside a symbol
	// name would otherwise decode cleanly and silently skew every report.
	s.setIngestDeadline(w)
	hdrBody, err := obs.ReadBody(w, r, s.cfg.MaxBodyBytes)
	if err != nil {
		obs.WriteError(w, http.StatusBadRequest, "reading session header: %v", err)
		return
	}
	if cerr := checkCRC(r, "", hdrBody); cerr != nil {
		s.integrityRejects.Add(1)
		obs.WriteError(w, http.StatusUnprocessableEntity, "session header %v", cerr)
		return
	}
	h, err := traceio.ReadHeader(bytes.NewReader(hdrBody))
	if err != nil {
		writeDecodeError(w, err)
		return
	}
	d := h.Dims()
	if d.Threads == 0 {
		obs.WriteError(w, http.StatusBadRequest, "header declares no threads")
		return
	}
	if d.Threads > s.cfg.MaxThreads {
		obs.WriteError(w, http.StatusBadRequest,
			"header declares %d threads, limit is %d (detector state is O(threads²))", d.Threads, s.cfg.MaxThreads)
		return
	}
	if max(d.Locks, d.Vars, d.Locs) > s.cfg.MaxSymbols {
		obs.WriteError(w, http.StatusBadRequest,
			"header declares %d locks / %d vars / %d locations, per-table limit is %d",
			d.Locks, d.Vars, d.Locs, s.cfg.MaxSymbols)
		return
	}

	atCapacity := func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return len(s.sessions) >= s.cfg.MaxSessions
	}
	if atCapacity() {
		s.shed429(w, 5, "session limit (%d) reached", s.cfg.MaxSessions)
		return
	}
	// Detector allocation (the expensive part) happens outside the sessions
	// mutex; the limit is re-checked at insertion, so it stays strict.
	id := r.Header.Get(obs.HeaderSessionID)
	if id != "" {
		if !obs.ValidID(id) {
			obs.WriteError(w, http.StatusBadRequest,
				"bad %s %q: 1-64 characters of [a-zA-Z0-9_-]", obs.HeaderSessionID, id)
			return
		}
	} else {
		id = obs.NewID()
	}
	engines := make([]engine.Session, len(makers))
	for i, se := range makers {
		engines[i] = se.NewSession(d.Threads, d.Locks, d.Vars)
	}
	sess := newSession(id, h, names, engines, time.Now())
	sess.traceID = traceID
	s.attach(sess)
	s.mu.Lock()
	if _, exists := s.sessions[id]; exists {
		s.mu.Unlock()
		obs.WriteError(w, http.StatusConflict, "session %s already open", id)
		return
	}
	if len(s.sessions) >= s.cfg.MaxSessions {
		s.mu.Unlock()
		s.shed429(w, 5, "session limit (%d) reached", s.cfg.MaxSessions)
		return
	}
	s.sessions[id] = sess
	s.mu.Unlock()
	s.sessionsCreated.Add(1)
	s.noteSessionState(sess)
	s.obs.span(obs.Span{
		Trace: traceID, Session: id, Name: "create",
		Start: tStart, Duration: time.Since(tStart).Seconds(),
	})
	s.cfg.Logger.Info("session opened", "session", id, "trace", traceID,
		"engines", names, "threads", d.Threads, "locks", d.Locks, "vars", d.Vars)

	resp := sessionCreated{ID: id, Engines: names}
	resp.Dims.Threads, resp.Dims.Locks, resp.Dims.Vars, resp.Dims.Locs = d.Threads, d.Locks, d.Vars, d.Locs
	obs.WriteJSON(w, http.StatusCreated, resp)
}

// handleChunk ingests one chunk of the session's event body. The request
// holds a scheduler slot while the chunk is decoded and analyzed, so a
// saturated service pushes back here with 429.
//
// Every chunk declares the absolute index of its first event
// (obs.HeaderOffset); a chunk without a valid one is a 400 before its body
// is read, and the session is untouched. The whole body is buffered before
// any detector sees it: a connection dropped mid-chunk costs nothing — the
// session stays at its last acknowledged event and the client's resend
// replays the prefix idempotently. An obs.HeaderCRC mismatch rejects the
// chunk with 422 before ingestion, so a body corrupted in transit can never
// poison detector state; the client just resends.
func (s *Server) handleChunk(w http.ResponseWriter, r *http.Request) {
	if s.refuseDraining(w) {
		return
	}
	if s.refuseFenced(w, r) {
		return
	}
	id := r.PathValue("id")
	sess := s.getSession(id)
	if sess == nil {
		obs.WriteError(w, http.StatusNotFound, "unknown session %q", id)
		return
	}

	v := r.Header.Get(obs.HeaderOffset)
	offset, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		obs.WriteError(w, http.StatusBadRequest,
			"missing or bad %s header %q: a chunk must declare the index of its first event", obs.HeaderOffset, v)
		return
	}

	s.setIngestDeadline(w)
	body, err := obs.ReadBody(w, r, s.cfg.MaxBodyBytes)
	if err != nil {
		obs.WriteError(w, http.StatusBadRequest, "reading chunk body: %v", err)
		return
	}
	if cerr := checkCRC(r, strconv.FormatUint(offset, 10)+":", body); cerr != nil {
		s.integrityRejects.Add(1)
		obs.WriteError(w, http.StatusUnprocessableEntity, "chunk %v", cerr)
		return
	}

	traceID := obs.TraceIDFrom(r)
	var added, replayed uint64
	var ingestErr error
	tSub := time.Now()
	var wait time.Duration
	if err := s.sched.Do(r.Context(), id, func() {
		wait = time.Since(tSub)
		added, replayed, ingestErr = sess.ingest(bytes.NewReader(body), offset, traceID, time.Now())
		s.noteSessionState(sess)
	}); err != nil {
		s.shedOrFail(w, err)
		return
	}
	s.obs.span(obs.Span{
		Trace: sess.trace(traceID), Session: id, Name: "queue_wait",
		Start: tSub, Duration: wait.Seconds(),
	})
	s.eventsIngested.Add(added)
	if replayed > 0 {
		s.chunksReplayed.Add(1)
		s.eventsReplayed.Add(replayed)
	}
	if ingestErr != nil {
		var gap *gapError
		switch {
		case errors.Is(ingestErr, errSessionClosed):
			obs.WriteError(w, http.StatusConflict, "session %s is closed", id)
		case errors.As(ingestErr, &gap):
			// The client is ahead of the ack (a lost chunk, or a resume
			// against older server state): hand back the acknowledged offset
			// so it can rewind precisely instead of guessing.
			s.gapRejects.Add(1)
			obs.WriteJSON(w, http.StatusConflict, map[string]any{
				"error":  gap.Error(),
				"events": gap.acked,
				"gap":    true,
			})
		default:
			writeDecodeError(w, ingestErr)
		}
		return
	}
	s.chunksIngested.Add(1)
	st := sess.status()
	obs.WriteJSON(w, http.StatusOK, map[string]any{
		"id": id, "events": st.Events, "chunks": st.Chunks, "replayed": replayed,
	})
}

type sessionFinished struct {
	ID      string         `json:"id"`
	Events  uint64         `json:"events"`
	Results []engineResult `json:"results"`
}

// handleFinish seals a session: every engine's detector is finalized, the
// race reports are folded into the dedup store, and the per-engine results
// are returned. The finish task runs under the session's scheduler key, so
// it executes after every already-accepted chunk.
//
// Finish is idempotent: the response is built inside the scheduler task and
// cached, so a client that lost the reply (dropped connection after the
// server sealed the session) replays the request and receives the identical
// report instead of a 404/409.
func (s *Server) handleFinish(w http.ResponseWriter, r *http.Request) {
	if s.refuseDraining(w) {
		return
	}
	if s.refuseFenced(w, r) {
		return
	}
	id := r.PathValue("id")
	// An optional offset header makes finish a commit barrier: when the
	// client's acknowledged count disagrees with the session's — a failover
	// or restart restored an older checkpoint after the client's last chunk
	// landed — the finish is refused with the same gap shape as a chunk
	// rejection, so the client replays the lost tail instead of silently
	// sealing a truncated session.
	wantOffset := int64(-1)
	if v := r.Header.Get(obs.HeaderOffset); v != "" {
		n, perr := strconv.ParseUint(v, 10, 63)
		if perr != nil {
			obs.WriteError(w, http.StatusBadRequest, "bad %s %q", obs.HeaderOffset, v)
			return
		}
		wantOffset = int64(n)
	}
	traceID := obs.TraceIDFrom(r)
	sess := s.getSession(id)
	if sess == nil {
		if resp, ok := s.recallFinished(id); ok {
			obs.WriteJSON(w, http.StatusOK, resp)
			return
		}
		obs.WriteError(w, http.StatusNotFound, "unknown session %q", id)
		return
	}
	tStart := time.Now()
	var resp sessionFinished
	var done, gapped bool
	var gapEvents uint64
	err := s.sched.Do(r.Context(), id, func() {
		if cached, ok := s.recallFinished(id); ok {
			resp, done = cached, true
			return
		}
		if have := sess.status().Events; wantOffset >= 0 && have != uint64(wantOffset) {
			gapped, gapEvents = true, have
			return
		}
		s.dropSession(sess)
		results := sess.finalize(s.store, time.Now())
		s.noteSessionState(sess)
		if results == nil {
			return // aborted or evicted while queued, or unrestorable once parked
		}
		// Store checkpoint before the session checkpoint disappears: a
		// crash between the two re-counts this session's races, never
		// loses them.
		s.checkpointStore()
		s.dropSessionCheckpoint(id)
		st := sess.status()
		resp = sessionFinished{ID: id, Events: st.Events, Results: make([]engineResult, len(results))}
		for i, res := range results {
			resp.Results[i] = renderResult(res, int(st.Events), sess.header)
		}
		s.rememberFinished(id, resp)
		s.sessionsFinished.Add(1)
		s.obs.span(obs.Span{
			Trace: sess.trace(traceID), Session: id, Name: "finish",
			Start: tStart, Duration: time.Since(tStart).Seconds(), Events: st.Events,
		})
		s.cfg.Logger.Info("session finished", "session", id, "trace", sess.trace(traceID),
			"events", st.Events, "engines", len(results))
		done = true
	})
	switch {
	case err != nil:
		s.shedOrFail(w, err)
	case gapped:
		s.gapRejects.Add(1)
		obs.WriteJSON(w, http.StatusConflict, map[string]any{
			"error":  fmt.Sprintf("session %s has %d acknowledged events, finish expected %d", id, gapEvents, wantOffset),
			"events": gapEvents,
			"gap":    true,
		})
	case done:
		obs.WriteJSON(w, http.StatusOK, resp)
	default:
		obs.WriteError(w, http.StatusConflict, "session %s is already closed", id)
	}
}

// handleAbort discards a session without reporting. A parked session is
// discarded as it is, without waking it.
func (s *Server) handleAbort(w http.ResponseWriter, r *http.Request) {
	if s.refuseFenced(w, r) {
		return
	}
	id := r.PathValue("id")
	if !s.AbortSession(id) {
		obs.WriteError(w, http.StatusNotFound, "unknown session %q", id)
		return
	}
	obs.WriteJSON(w, http.StatusOK, map[string]any{"id": id, "aborted": true})
}

// handleSessionStatus serves a session's acknowledged event count, the
// offset a client resyncs from after a fault; a parked session answers
// without waking.
func (s *Server) handleSessionStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	sess := s.getSession(id)
	if sess == nil {
		obs.WriteError(w, http.StatusNotFound, "unknown session %q", id)
		return
	}
	obs.WriteJSON(w, http.StatusOK, sess.status())
}

func (s *Server) handleListSessions(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	list := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		list = append(list, sess)
	}
	s.mu.Unlock()
	out := make([]sessionStatus, len(list))
	for i, sess := range list {
		out[i] = sess.status()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Created.Before(out[j].Created) })
	obs.WriteJSON(w, http.StatusOK, map[string]any{"sessions": out})
}

// --- reports, health, metrics ---

func (s *Server) handleReports(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	f := report.Filter{
		Engine: q.Get("engine"),
		Loc:    q.Get("loc"),
		Var:    q.Get("var"),
	}
	if v := q.Get("min_count"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			obs.WriteError(w, http.StatusBadRequest, "bad min_count %q", v)
			return
		}
		f.MinCount = n
	}
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			obs.WriteError(w, http.StatusBadRequest, "bad limit %q", v)
			return
		}
		f.Limit = n
	}
	entries := s.store.List(f)
	if entries == nil {
		entries = []report.Entry{}
	}
	obs.WriteJSON(w, http.StatusOK, map[string]any{
		"total":   s.store.Len(),
		"matched": len(entries),
		"reports": entries,
	})
}

// handleHealthz reports the same load picture the fleet registry sees:
// parked sessions count (they are paused, not gone), detector state bytes
// and scheduler saturation are all part of "how loaded is this worker", so
// humans and machines read identical numbers. sessions_open counts the
// resident sessions.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	code := http.StatusOK
	if s.draining.Load() {
		status = "draining"
		code = http.StatusServiceUnavailable
	}
	resident, parked := s.sessionCounts()
	obs.WriteJSON(w, code, map[string]any{
		"status":          status,
		"sessions":        resident + parked, // what Stats reports to the fleet
		"sessions_open":   resident,
		"sessions_parked": parked,
		"state_bytes":     s.stateTotal.Load(),
		"queue_depth":     s.sched.QueueDepth(),
		"queue_cap":       s.sched.QueueCap(),
		"tasks_running":   s.sched.Running(),
		"workers":         s.sched.Workers(),
		"draining":        s.draining.Load(),
		"uptime_seconds":  time.Since(s.start).Seconds(),
	})
}

// handleMetrics serves the registry in Prometheus text exposition format.
// ExtraMetrics (fault-injection counters) is appended after the registry
// families; its family names are disjoint, so the combined output is a
// valid exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.obs.reg.WritePrometheus(w)
	if s.cfg.ExtraMetrics != nil {
		s.cfg.ExtraMetrics(w)
	}
}
