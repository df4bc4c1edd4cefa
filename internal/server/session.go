package server

import (
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/event"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/traceio"
)

// session is one client's streaming analysis: a trace header fixed at
// creation plus one resumable engine.Session per requested engine, fed
// chunk by chunk. Chunk bodies are decoded with traceio.NewEventStream
// straight into the session's reusable SoA block and from there into every
// engine's detector — per-chunk work allocates nothing beyond what the
// detectors grow.
//
// The scheduler serializes all tasks of one session (key = session id), so
// ingest, finish and evict never run concurrently; mu additionally guards
// the fields the HTTP status handlers read outside scheduler tasks.
//
// A parked session (see pressure.go) has swapped its engines for their
// snapshot frames and stays registered with the server: status, snapshot
// and abort serve it as it is, and the first task that needs the detectors
// — a chunk carrying events past the ack, or finalize — wakes it in place.
type session struct {
	id      string
	header  traceio.Header
	names   []string // engine names, in request order
	created time.Time

	// Observability, attached by Server.instrument on every path that makes
	// the session live (create, restore). obs may be nil for sessions
	// materialized outside a server (tests); ingest then skips
	// instrumentation.
	obs    *serverObs
	engObs []engineObs // per-engine histogram + pprof label ctx
	engNS  []int64     // scratch: sampled per-engine nanoseconds this chunk

	// wake restores a parked session's engines in place (Server.wake,
	// attached with the session); its caller holds mu.
	wake func(*session) error
	// parked is written under mu but read without it, so counting parked
	// sessions never waits for a chunk in progress.
	parked atomic.Bool

	mu         sync.Mutex
	engines    []engine.Session // nil while parked
	check      *trace.Checker   // §2.1 state of the ingested events, kept while parked
	block      *trace.Block     // decode scratch, allocated by the first chunk
	skipBuf    []event.Event    // scratch for replay-skip decoding, grown on demand
	events     uint64
	chunks     int
	blocks     uint64 // decoded data blocks, drives stage-timing sampling
	traceID    string // adopted from the first request that carries one
	lastActive time.Time
	closed     bool
	failed     error // latched fatal ingest error; chunks are rejected after
	state      int64 // last measured detector StateBytes sum (see measureState)
	// While parked, frames holds the engines' snapshot frames, or, when the
	// session was parked to disk, ckpt names the checkpoint file that does.
	frames []byte
	ckpt   string
}

func newSession(id string, h traceio.Header, names []string, engines []engine.Session, now time.Time) *session {
	return &session{
		id:         id,
		header:     h,
		names:      names,
		engines:    engines,
		check:      trace.NewChecker(h.Syms),
		created:    now,
		lastActive: now,
	}
}

// gapError rejects a chunk whose declared offset is ahead of the events the
// session has acknowledged: accepting it would silently skip trace events.
// The acknowledged offset rides along so the client can rewind to it.
type gapError struct {
	offset uint64 // chunk's declared first-event index
	acked  uint64 // events the session has actually analyzed
}

func (e *gapError) Error() string {
	return fmt.Sprintf("chunk offset %d is ahead of the session's %d acknowledged events", e.offset, e.acked)
}

// trace resolves the effective trace id for a request: the id the request
// itself carried wins, else the one the session adopted earlier.
func (s *session) trace(reqID string) string {
	if reqID != "" {
		return reqID
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.traceID
}

// ingest decodes one chunk body into every engine session. It returns the
// number of events the chunk added. Each decoded block passes the
// session's §2.1 checker before any detector sees it. A decode error or a
// violation (*trace.ValidationError) is latched — the session's analysis
// is no longer trustworthy past it — and further chunks are rejected; the
// block that holds it reaches no detector.
//
// When the chunk declares its absolute offset (hasOffset), ingestion is
// idempotent: events the session has already acknowledged are decoded and
// discarded instead of re-analyzed, so a client that retries a chunk after
// a lost response — or resends a chunk the server half-ingested before a
// dropped connection — converges on exactly-once analysis. replayed counts
// the skipped events. An offset beyond the acknowledged count is a gap
// (*gapError): the client must rewind, never the server guess.
func (s *session) ingest(body io.Reader, offset uint64, hasOffset bool, traceID string, now time.Time) (added, replayed uint64, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lastActive = now
	// Stamp activity again at completion: a chunk that takes longer than
	// the idle timeout to analyze must not make the session look idle, or
	// the janitor's eviction re-check would still fire between chunks.
	defer func() { s.lastActive = time.Now() }()
	if s.closed {
		return 0, 0, errSessionClosed
	}
	if s.failed != nil {
		return 0, 0, s.failed
	}
	// Adopt the request's trace id: a session restored after a failover has
	// no id of its own until the client's next chunk re-introduces it.
	if traceID != "" && s.traceID == "" {
		s.traceID = traceID
	}
	// Stage timing is sampled (every Nth data block) so the hot loop
	// stays free of clock reads between samples; spans are recorded once
	// per chunk, amortized over thousands of events.
	o := s.obs
	var chunkBlocks, sampledBlocks uint64
	var decNS int64
	if o != nil {
		for i := range s.engNS {
			s.engNS[i] = 0
		}
		defer func() {
			tr := traceID
			if tr == "" {
				tr = s.traceID
			}
			dur := time.Since(now).Seconds()
			o.chunkIngest.Observe(dur)
			sp := obs.Span{Trace: tr, Session: s.id, Name: "chunk",
				Start: now, Duration: dur, Events: added}
			if err != nil {
				sp.Err = err.Error()
			}
			o.span(sp)
			if sampledBlocks > 0 {
				detail := fmt.Sprintf("sampled %d/%d blocks", sampledBlocks, chunkBlocks)
				o.span(obs.Span{Trace: tr, Session: s.id, Name: "decode",
					Start: now, Duration: float64(decNS) / 1e9, Detail: detail})
				for i := range s.engObs {
					o.span(obs.Span{Trace: tr, Session: s.id, Name: "process",
						Engine: s.names[i], Start: now,
						Duration: float64(s.engNS[i]) / 1e9, Detail: detail})
				}
			}
		}()
	}
	if !hasOffset {
		offset = s.events // legacy append-mode chunk: starts at the ack
	}
	if offset > s.events {
		return 0, 0, &gapError{offset: offset, acked: s.events}
	}
	st := traceio.NewEventStream(body, s.header, offset)
	// Replay skip: decode the already-analyzed prefix, which the checker
	// accepted the first time, without feeding the checker or the
	// detectors.
	for skip := s.events - offset; skip > 0; {
		if s.skipBuf == nil {
			s.skipBuf = make([]event.Event, 512)
		}
		buf := s.skipBuf
		if uint64(len(buf)) > skip {
			buf = buf[:skip]
		}
		n, err := st.NextBlock(buf)
		skip -= uint64(n)
		replayed += uint64(n)
		if err == io.EOF {
			s.chunks++
			return 0, replayed, nil // chunk lies entirely behind the ack
		}
		if err != nil {
			s.failed = err
			return 0, replayed, err
		}
	}
	if s.engObs != nil {
		// CPU profiles attribute engine work to session and engine via
		// goroutine labels; drop them when this worker goroutine moves on.
		defer pprof.SetGoroutineLabels(unlabeledCtx)
	}
	if s.block == nil {
		s.block = trace.NewBlock(traceio.DefaultBlockSize)
	}
	for {
		// Only data blocks count toward the sampling period: a chunk is
		// typically one data call plus an end-of-body call, and counting
		// both would, at an even period, sample nothing but end-of-body
		// peeks. A sampled call that finds the body's end is dropped.
		sampled := o != nil && o.sampleNs != 0 && (s.blocks+1)%o.sampleNs == 0
		var t0 time.Time
		if sampled {
			t0 = time.Now()
		}
		n, derr := st.NextBlockSoA(s.block)
		sampled = sampled && n > 0
		if sampled {
			d := time.Since(t0)
			o.decode.Observe(d.Seconds())
			decNS += d.Nanoseconds()
			sampledBlocks++
		}
		if n > 0 {
			if err := s.check.CheckBlock(s.block, int(s.events)); err != nil {
				s.failed = err
				return added, replayed, err
			}
			if s.parked.Load() {
				// The chunk carries events past the ack: wake the detectors.
				if err := s.wake(s); err != nil {
					s.failed = err
					return added, replayed, err
				}
			}
			s.blocks++
			chunkBlocks++
			for i, es := range s.engines {
				if s.engObs != nil {
					pprof.SetGoroutineLabels(s.engObs[i].ctx)
				}
				if sampled {
					te := time.Now()
					es.ProcessBlock(s.block)
					de := time.Since(te)
					s.engObs[i].hist.Observe(de.Seconds())
					s.engNS[i] += de.Nanoseconds()
				} else {
					es.ProcessBlock(s.block)
				}
			}
			s.events += uint64(n)
			added += uint64(n)
		}
		if derr == io.EOF {
			s.chunks++
			return added, replayed, nil
		}
		if derr != nil {
			s.failed = derr
			return added, replayed, derr
		}
	}
}

// finalize seals every engine session, folds the per-engine race reports
// into the store (source-tagged with the session id), and returns the
// results. It is idempotent; only the first call does the work. A parked
// session is woken first; if its frames cannot be restored it is sealed
// with nothing to report, and finalize returns nil.
func (s *session) finalize(store *report.Store, now time.Time) []*engine.Result {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.parked.Load() && s.wake(s) != nil {
		return nil
	}
	results := make([]*engine.Result, len(s.engines))
	for i, es := range s.engines {
		results[i] = es.Finish()
		store.AddReport(results[i].Engine, "session:"+s.id, results[i].Report, s.header.Syms, now)
	}
	return results
}

// abort seals the session without reporting anything.
func (s *session) abort() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
}

// status is the JSON shape of GET /sessions/{id}.
type sessionStatus struct {
	ID         string    `json:"id"`
	Engines    []string  `json:"engines"`
	Events     uint64    `json:"events"`
	Chunks     int       `json:"chunks"`
	Created    time.Time `json:"created"`
	LastActive time.Time `json:"last_active"`
	Trace      string    `json:"trace,omitempty"`
	Failed     string    `json:"failed,omitempty"`
	Parked     bool      `json:"parked,omitempty"`
}

func (s *session) status() sessionStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := sessionStatus{
		ID:         s.id,
		Engines:    s.names,
		Events:     s.events,
		Chunks:     s.chunks,
		Created:    s.created,
		LastActive: s.lastActive,
		Trace:      s.traceID,
		Parked:     s.parked.Load(),
	}
	if s.failed != nil {
		st.Failed = s.failed.Error()
	}
	return st
}

func (s *session) idleSince() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastActive
}

// remeasureState re-sums the engines' StateBytes estimates, caches the
// total, and returns the change against the previous measurement — the
// delta the server folds into its global memory accounting. Computing the
// delta under the session mutex makes concurrent remeasures add up exactly.
// A closed session measures zero, so sealing a session returns its state to
// the budget. Engines without a StateBytes estimate contribute nothing.
func (s *session) remeasureState() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var total int64
	if !s.closed {
		for _, es := range s.engines {
			if cs, ok := es.(engine.CompactableSession); ok {
				total += int64(cs.StateBytes())
			}
		}
	}
	delta := total - s.state
	s.state = total
	return delta
}

func (s *session) cachedState() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}

// park swaps the engines (and the decode scratch) for their snapshot
// frames: kept in frames, or, when frames is nil, in the checkpoint file
// ckpt. Must run under the session's scheduler key.
func (s *session) park(frames []byte, ckpt string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.engines, s.block, s.skipBuf = nil, nil, nil
	s.frames, s.ckpt = frames, ckpt
	s.parked.Store(true)
}

// parkedFrames returns the frames a parked session's engines were swapped
// for. Caller holds mu.
func (s *session) parkedFrames() ([]byte, error) {
	if s.frames != nil {
		return s.frames, nil
	}
	return os.ReadFile(s.ckpt)
}

// compactNow forces immediate state compaction on every engine that
// supports it — the first escalation step of the server's global memory
// budget. Must run under the session's scheduler key.
func (s *session) compactNow() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	for _, es := range s.engines {
		if cs, ok := es.(engine.CompactableSession); ok {
			cs.Compact()
		}
	}
}

var errSessionClosed = fmt.Errorf("session is closed")
