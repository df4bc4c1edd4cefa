// Package client is the resilient Go client for a raced daemon. It speaks
// the session protocol (open with a binary trace header, stream the event
// body in chunks, finish for the race reports) with the fault tolerance the
// bare HTTP API leaves to the caller:
//
//   - Chunks are sequence-numbered (X-Raced-Offset) and integrity-checked
//     (X-Raced-Crc32), so a retried chunk is deduplicated by the server and
//     a chunk corrupted in transit is rejected before it can poison the
//     analysis — the client just resends it.
//   - Any transport error resynchronizes against the server's acknowledged
//     event count and resumes from there, including across server restarts
//     that recovered an older checkpoint (the stream rewinds) and parked
//     sessions (the server restores transparently).
//   - Retries back off exponentially with jitter, honor the server's
//     Retry-After pushback, and are bounded by a per-operation budget; the
//     budget's end is a typed *TerminalError.
//   - Pointed at a fleet coordinator (see internal/fleet), the same
//     machinery survives whole-worker failures: the coordinator restores
//     the session elsewhere, the resynced ack rewinds to the checkpoint,
//     and the stream replays the tail. With FollowPlacement the chunk hot
//     path goes straight to the owning worker and falls back to the
//     coordinator whenever the placement moves.
//
// The zero-config happy path:
//
//	s, err := client.Open(ctx, client.Config{BaseURL: url, Engines: []string{"wcp"}}, tr.Symbols)
//	err = s.Stream(ctx, tr.Events, 0)
//	res, err := s.Finish(ctx)
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand/v2"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/event"
	"repro/internal/obs"
	"repro/internal/traceio"
)

// Config parameterizes a session client. Only BaseURL is required.
type Config struct {
	// BaseURL is the daemon root, e.g. "http://localhost:7477" — or a
	// comma-separated list of coordinator roots ("http://primary,http://
	// standby") when the fleet runs a warm standby. The client talks to one
	// address at a time and rotates to the next on transport failures, 5xx
	// (a standby answers the session API 503 until it takes over), and 412
	// (the address turned out to be a fenced zombie), so a coordinator
	// failover costs a few redirected retries, not an error.
	BaseURL string
	// Engines are the engines the session runs; empty uses the server
	// default.
	Engines []string
	// HTTPClient issues the requests; defaults to http.DefaultClient.
	HTTPClient *http.Client
	// ChunkEvents is how many events Stream packs per chunk request.
	// Defaults to 4096.
	ChunkEvents int
	// RequestTimeout bounds each individual HTTP attempt. Defaults to 30s;
	// <0 disables.
	RequestTimeout time.Duration
	// RetryBudget caps consecutive failed attempts of one operation before
	// it fails with *TerminalError. Defaults to 8; <0 means a single
	// attempt.
	RetryBudget int
	// BaseBackoff and MaxBackoff bound the jittered exponential backoff
	// between attempts. Default 50ms and 5s. A server Retry-After hint
	// overrides the computed backoff when larger.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// FollowPlacement, when BaseURL is a fleet coordinator, pins the chunk
	// hot path directly to the worker the coordinator names in its
	// X-Raced-Worker response header, skipping the proxy hop. Any failure
	// on the direct path falls back to the coordinator — which re-resolves
	// the (possibly failed-over) placement and re-pins — so the worst a
	// stale pin costs is one extra round trip. Open, finish, abort and
	// status always go through the coordinator: those are the operations
	// that move or seal placements.
	FollowPlacement bool
	// Logf receives retry/resync diagnostics; nil discards them.
	Logf func(format string, args ...any)
}

func (c *Config) fill() {
	if c.HTTPClient == nil {
		c.HTTPClient = http.DefaultClient
	}
	if c.ChunkEvents <= 0 {
		c.ChunkEvents = 4096
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.RetryBudget == 0 {
		c.RetryBudget = 8
	}
	if c.RetryBudget < 0 {
		c.RetryBudget = 1
	}
	if c.BaseBackoff <= 0 {
		c.BaseBackoff = 50 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 5 * time.Second
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
}

// TerminalError means an operation exhausted its retry budget or hit a
// non-retryable response; the wrapped Err is the last failure. TraceID is
// the request-trace id the session stamped on every attempt — quote it when
// filing the failure, GET /debug/trace/{id} on the server (or coordinator)
// returns the request's server-side timeline.
type TerminalError struct {
	Op       string // "open", "chunk", "finish", ...
	Status   int    // last HTTP status; 0 for transport-level failures
	Attempts int
	TraceID  string
	Err      error
}

func (e *TerminalError) Error() string {
	if e.TraceID != "" {
		return fmt.Sprintf("raced client: %s failed after %d attempt(s) [trace %s]: %v",
			e.Op, e.Attempts, e.TraceID, e.Err)
	}
	return fmt.Sprintf("raced client: %s failed after %d attempt(s): %v", e.Op, e.Attempts, e.Err)
}

func (e *TerminalError) Unwrap() error { return e.Err }

// Session is one open analysis session. Not safe for concurrent use; one
// goroutine owns the stream (matching the server's per-session ordering).
type Session struct {
	cfg     Config
	bases   []string // parsed BaseURL list; bases[baseIdx] is current
	baseIdx int
	id      string
	trace   string // request-trace id, stamped on every attempt (X-Raced-Trace)
	acked   uint64 // events the server has confirmed analyzed
	// workerURL is the owning worker's base URL, learned from the
	// coordinator's X-Raced-Worker header when FollowPlacement is on;
	// "" routes everything through BaseURL.
	workerURL string
}

// EngineResult is one engine's slice of a finish response.
type EngineResult struct {
	Engine     string  `json:"engine"`
	Events     int     `json:"events"`
	RacyEvents int     `json:"racy_events"`
	FirstRace  int     `json:"first_race"`
	Distinct   int     `json:"distinct"`
	Summary    string  `json:"summary"`
	Report     string  `json:"report,omitempty"`
	DurationMS float64 `json:"duration_ms"`
	Error      string  `json:"error,omitempty"`
}

// FinishResult is the finish response: the sealed session's reports.
type FinishResult struct {
	ID      string         `json:"id"`
	Events  uint64         `json:"events"`
	Results []EngineResult `json:"results"`
}

// Status mirrors GET /sessions/{id}.
type Status struct {
	ID      string   `json:"id"`
	Events  uint64   `json:"events"`
	Chunks  int      `json:"chunks"`
	Engines []string `json:"engines"`
	Trace   string   `json:"trace,omitempty"`
	Failed  string   `json:"failed,omitempty"`
}

// apiError is the server's JSON error envelope; gap marks an offset-ahead
// chunk rejection carrying the acknowledged event count to rewind to.
type apiError struct {
	Msg    string `json:"error"`
	Events uint64 `json:"events"`
	Gap    bool   `json:"gap"`
}

func (e *apiError) Error() string { return e.Msg }

// splitBases parses the comma-separated BaseURL list.
func splitBases(s string) []string {
	var out []string
	for _, b := range strings.Split(s, ",") {
		if b = strings.TrimSpace(b); b != "" {
			out = append(out, strings.TrimRight(b, "/"))
		}
	}
	if len(out) == 0 {
		out = []string{""}
	}
	return out
}

// base is the coordinator address this session currently targets.
func (s *Session) base() string { return s.bases[s.baseIdx] }

// rotateBase moves to the next configured coordinator. Called on failure
// shapes that smell like "this coordinator is down, standby, or fenced" —
// with a single address it is a no-op and the normal backoff applies.
func (s *Session) rotateBase(opName string) {
	if len(s.bases) < 2 {
		return
	}
	s.baseIdx = (s.baseIdx + 1) % len(s.bases)
	s.cfg.Logf("raced client: %s rotating to coordinator %s", opName, s.base())
}

// Open creates a session: the header (built from syms) sizes the server's
// detectors. Creation is retried within the budget — creating a session is
// idempotent from the caller's view since a lost response just leaks an
// empty session to the server's idle janitor.
func Open(ctx context.Context, cfg Config, syms *event.Symbols) (*Session, error) {
	cfg.fill()
	hdr := traceio.AppendHeader(nil, syms, 0)
	s := &Session{cfg: cfg, bases: splitBases(cfg.BaseURL), trace: obs.NewID()}
	// The checksum lets the server reject a header corrupted in transit
	// before it sizes detectors from garbage symbol tables.
	crcHdr := map[string]string{
		obs.HeaderCRC: strconv.FormatUint(uint64(crc32.ChecksumIEEE(hdr)), 10),
	}
	var created struct {
		ID string `json:"id"`
	}
	if err := s.retry(ctx, "open", func(attempt int) (int, error) {
		url := s.base() + "/sessions"
		if len(cfg.Engines) > 0 {
			url += "?engines=" + strings.Join(cfg.Engines, ",")
		}
		return s.roundTrip(ctx, "POST", url, hdr, crcHdr, &created)
	}); err != nil {
		return nil, err
	}
	s.id = created.ID
	return s, nil
}

// Resume attaches to an existing session (for example after this process
// restarted) and synchronizes on the server's acknowledged event count.
func Resume(ctx context.Context, cfg Config, id string) (*Session, error) {
	cfg.fill()
	s := &Session{cfg: cfg, bases: splitBases(cfg.BaseURL), id: id, trace: obs.NewID()}
	st, err := s.Status(ctx)
	if err != nil {
		return nil, err
	}
	if st.Failed != "" {
		return nil, &TerminalError{Op: "resume", Attempts: 1, TraceID: s.trace,
			Err: fmt.Errorf("session %s failed server-side: %s", id, st.Failed)}
	}
	if st.Trace != "" {
		// Keep the trace the session already lives under: the resumed
		// stream joins the existing timeline instead of starting a new one.
		s.trace = st.Trace
	}
	s.acked = st.Events
	return s, nil
}

// ID returns the server-assigned session id (for Resume after a restart).
func (s *Session) ID() string { return s.id }

// Trace returns the session's request-trace id. GET /debug/trace/{id} on
// the daemon (or the fleet coordinator for the merged cross-worker view)
// returns every span recorded under it.
func (s *Session) Trace() string { return s.trace }

// Worker returns the owning worker's base URL when FollowPlacement has
// learned one, "" otherwise.
func (s *Session) Worker() string { return s.workerURL }

// Acked returns the number of events the server has confirmed analyzed.
func (s *Session) Acked() uint64 { return s.acked }

// Status fetches the session's server-side state and refreshes the local
// ack. The request itself is retried within the budget.
func (s *Session) Status(ctx context.Context) (Status, error) {
	var st Status
	err := s.retry(ctx, "status", func(attempt int) (int, error) {
		return s.roundTrip(ctx, "GET", s.base()+"/sessions/"+s.id, nil, nil, &st)
	})
	if err == nil && st.Events > s.acked {
		s.acked = st.Events
	}
	return st, err
}

// Stream sends events — whose first element has absolute index base in the
// session's trace — until the server has acknowledged all of them. Events
// the server already acknowledged are skipped, so calling Stream again
// after any failure (or after Resume) is always safe: the stream converges
// on exactly-once analysis no matter how many chunks were retried, dropped
// mid-body, or rolled back by a server restart, as long as the rollback
// stays at or above base. Pass the full trace with base 0 for a client that
// survives every recoverable fault.
func (s *Session) Stream(ctx context.Context, events []event.Event, base uint64) error {
	end := base + uint64(len(events))
	for s.acked < end {
		if s.acked < base {
			return &TerminalError{Op: "stream", Attempts: 1, TraceID: s.trace, Err: fmt.Errorf(
				"server acknowledges %d events but this stream starts at %d: rewind beyond the provided events",
				s.acked, base)}
		}
		start := s.acked
		stop := min(start+uint64(s.cfg.ChunkEvents), end)
		if err := s.sendChunk(ctx, start, events[start-base:stop-base]); err != nil {
			return err
		}
	}
	return nil
}

// sendChunk submits one chunk whose first event has absolute index offset.
// On return without error the local ack has advanced (or the chunk was
// found to be already acknowledged); the caller re-derives the next chunk
// from the ack, which makes every fault path converge.
func (s *Session) sendChunk(ctx context.Context, offset uint64, events []event.Event) error {
	body := traceio.AppendEvents(nil, events)
	// The checksum covers "<offset>:<body>", binding the sequence number to
	// the bytes: neither a corrupted body nor a corrupted offset header can
	// slip past the server's 422 and misalign the analysis.
	off := strconv.FormatUint(offset, 10)
	sum := crc32.NewIEEE()
	io.WriteString(sum, off)
	io.WriteString(sum, ":")
	sum.Write(body)
	hdr := map[string]string{
		obs.HeaderOffset: off,
		obs.HeaderCRC:    strconv.FormatUint(uint64(sum.Sum32()), 10),
	}
	var ack struct {
		Events   uint64 `json:"events"`
		Replayed uint64 `json:"replayed"`
	}
	return s.retry(ctx, "chunk", func(attempt int) (int, error) {
		base, direct := s.base(), false
		if s.cfg.FollowPlacement && s.workerURL != "" {
			base, direct = s.workerURL, true
		}
		status, err := s.roundTrip(ctx, "POST", base+"/sessions/"+s.id+"/chunks", body, hdr, &ack)
		switch {
		case err == nil:
			s.acked = ack.Events
			return status, nil
		case status == http.StatusConflict:
			var ae *apiError
			if errors.As(err, &ae) && ae.Gap {
				// The server is behind this chunk (a rollback to an older
				// checkpoint, or an earlier chunk was lost): adopt its ack
				// and let Stream rebuild the chunk from there.
				s.cfg.Logf("raced client: session %s rewound to %d acknowledged events", s.id, ae.Events)
				s.acked = ae.Events
				return status, nil
			}
			if direct {
				// A pinned worker's "closed" is not authoritative for the
				// fleet: this copy may be a stale leftover of a failover. Ask
				// the coordinator before declaring the stream dead — status 0
				// keeps the attempt retryable.
				s.cfg.Logf("raced client: session %s conflict on pinned worker %s, falling back to coordinator", s.id, base)
				s.workerURL = ""
				s.resyncAck(ctx)
				return 0, err
			}
			return status, err // closed/aborted: not retryable
		default:
			if direct {
				// Any direct-path failure unpins: the next attempt goes via
				// the coordinator, which re-resolves the placement.
				s.workerURL = ""
			}
			// Everything else — transport failure, 5xx, pressure 429, 422
			// (request corrupted in transit), even a 404 that may be a
			// corrupted URL — might have landed or might be transit damage.
			// Resync the ack so the retry (rebuilt by Stream) starts at the
			// server's truth; the offset header makes overlap a no-op.
			s.resyncAck(ctx)
			if s.acked >= offset+uint64(len(events)) {
				return status, nil // the "failed" chunk actually landed
			}
			return status, err
		}
	})
}

// resyncAck best-effort refreshes the local ack with one status request.
// Failures are ignored — the ack just stays where it was.
func (s *Session) resyncAck(ctx context.Context) {
	var st Status
	if _, err := s.roundTrip(ctx, "GET", s.base()+"/sessions/"+s.id, nil, nil, &st); err == nil {
		if st.Events != s.acked {
			s.cfg.Logf("raced client: session %s resynced ack %d -> %d", s.id, s.acked, st.Events)
		}
		s.acked = st.Events
	}
}

// ErrRewound reports that a finish found the server holding fewer
// acknowledged events than this client streamed: a failover or restart
// rolled the session back to a checkpoint after the last chunk landed. The
// local ack has been rewound to the server's count; replay the tail with
// Stream and finish again — or use FinishReplay, which does both.
var ErrRewound = errors.New("session rewound to an older checkpoint")

// Finish seals the session and returns the race reports. Finish is
// idempotent end to end: the server caches the response, so a retry after a
// lost reply returns the identical report. The request carries the client's
// acknowledged offset as a commit barrier — a server that disagrees (it was
// restored from an older checkpoint since the last chunk) refuses to seal
// and the call fails with ErrRewound instead of silently truncating the
// session.
func (s *Session) Finish(ctx context.Context) (*FinishResult, error) {
	var res FinishResult
	err := s.retry(ctx, "finish", func(attempt int) (int, error) {
		hdr := map[string]string{obs.HeaderOffset: strconv.FormatUint(s.acked, 10)}
		status, rerr := s.roundTrip(ctx, "POST", s.base()+"/sessions/"+s.id+"/finish", nil, hdr, &res)
		if status == http.StatusConflict {
			var ae *apiError
			if errors.As(rerr, &ae) && ae.Gap {
				s.cfg.Logf("raced client: session %s finish rewound ack %d -> %d", s.id, s.acked, ae.Events)
				s.acked = ae.Events
				return status, fmt.Errorf("%d events lost to a rollback: %w", ae.Events, ErrRewound)
			}
		}
		return status, rerr
	})
	if err != nil {
		return nil, err
	}
	return &res, nil
}

// FinishReplay seals the session like Finish but closes its last loss
// window: if the finish reports a rollback (ErrRewound), the lost tail is
// replayed from events — whose first element has absolute index base — and
// the finish is retried. For a caller that still holds the streamed events
// this extends the zero-error contract across failovers landing between the
// final chunk and the finish.
func (s *Session) FinishReplay(ctx context.Context, events []event.Event, base uint64) (*FinishResult, error) {
	for attempt := 0; ; attempt++ {
		fin, err := s.Finish(ctx)
		if err == nil || attempt >= 4 || !errors.Is(err, ErrRewound) {
			return fin, err
		}
		if serr := s.Stream(ctx, events, base); serr != nil {
			return nil, serr
		}
	}
}

// Abort discards the session server-side without reporting.
func (s *Session) Abort(ctx context.Context) error {
	return s.retry(ctx, "abort", func(attempt int) (int, error) {
		return s.roundTrip(ctx, "DELETE", s.base()+"/sessions/"+s.id, nil, nil, nil)
	})
}

// Reports queries the daemon's deduplicating report store; rawQuery is the
// /reports query string ("limit=10&engine=wcp"), out the JSON target.
func Reports(ctx context.Context, cfg Config, rawQuery string, out any) error {
	cfg.fill()
	s := &Session{cfg: cfg, bases: splitBases(cfg.BaseURL)}
	return s.retry(ctx, "reports", func(attempt int) (int, error) {
		url := s.base() + "/reports"
		if rawQuery != "" {
			url += "?" + rawQuery
		}
		return s.roundTrip(ctx, "GET", url, nil, nil, out)
	})
}

// retry drives op through the backoff/budget policy. op returns the HTTP
// status it saw (0 for transport errors) and nil when the operation is
// settled — settled includes "resolved by resync", not only 2xx.
//
// Only authoritative protocol-state conflicts (409, 410, 413) are terminal
// immediately: on an integrity-hostile transport any other 4xx — a 404, a
// 400, a 422 — can be the visible shape of a request corrupted in flight,
// so those retry (on a fresh attempt, usually a fresh connection) until the
// budget ends, honoring Retry-After when the server sent one. A genuinely
// wrong request therefore costs the budget before failing, which is the
// price of converging through corruption.
func (s *Session) retry(ctx context.Context, opName string, op func(attempt int) (int, error)) error {
	var lastErr error
	lastStatus := 0
	for attempt := 1; attempt <= s.cfg.RetryBudget; attempt++ {
		status, err := op(attempt)
		if err == nil {
			return nil
		}
		lastErr, lastStatus = err, status
		switch status {
		case http.StatusConflict, http.StatusGone, http.StatusRequestEntityTooLarge:
			return &TerminalError{Op: opName, Status: status, Attempts: attempt, TraceID: s.trace, Err: err}
		}
		if attempt == s.cfg.RetryBudget {
			break
		}
		// Failure shapes that point at the coordinator itself — unreachable
		// (0), erroring or standby (5xx), fenced zombie (412) — try the next
		// configured coordinator on the following attempt.
		if status == 0 || status >= 500 || status == http.StatusPreconditionFailed {
			s.rotateBase(opName)
		}
		delay := s.backoff(attempt)
		var ra *retryAfterError
		if errors.As(err, &ra) && ra.delay > delay {
			delay = ra.delay
		}
		s.cfg.Logf("raced client: %s attempt %d failed (trace=%s err=%v), retrying in %v", opName, attempt, s.trace, err, delay)
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			return &TerminalError{Op: opName, Status: lastStatus, Attempts: attempt, TraceID: s.trace, Err: ctx.Err()}
		}
	}
	return &TerminalError{Op: opName, Status: lastStatus, Attempts: s.cfg.RetryBudget, TraceID: s.trace, Err: lastErr}
}

// backoff is exponential with full jitter on the upper half: base<<attempt
// capped at MaxBackoff, of which [1/2, 1) is used — spreading a thundering
// herd of retrying clients without ever returning near-zero.
func (s *Session) backoff(attempt int) time.Duration {
	d := s.cfg.BaseBackoff << uint(attempt-1)
	if d > s.cfg.MaxBackoff || d <= 0 {
		d = s.cfg.MaxBackoff
	}
	return d/2 + rand.N(d/2)
}

// retryAfterError carries a server Retry-After hint through the error chain.
type retryAfterError struct {
	inner error
	delay time.Duration
}

func (e *retryAfterError) Error() string { return e.inner.Error() }
func (e *retryAfterError) Unwrap() error { return e.inner }

// roundTrip issues one HTTP attempt: body is sent as-is (it must be
// replayable, hence []byte), non-2xx decodes the server's error envelope
// (returned as *apiError inside the chain, with Retry-After attached), 2xx
// decodes into out when non-nil. Returns the HTTP status, 0 on transport
// failure.
func (s *Session) roundTrip(ctx context.Context, method, url string, body []byte, hdr map[string]string, out any) (int, error) {
	if s.cfg.RequestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.RequestTimeout)
		defer cancel()
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, err
	}
	if s.trace != "" {
		req.Header.Set(obs.HeaderTrace, s.trace)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := s.cfg.HTTPClient.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if s.cfg.FollowPlacement {
		// The coordinator names the owning worker on every proxied response;
		// adopt it so the chunk hot path can skip the proxy hop. Workers
		// themselves never send the header, so a direct response leaves the
		// pin alone.
		if v := resp.Header.Get(obs.HeaderWorker); v != "" && v != s.workerURL {
			s.cfg.Logf("raced client: session %s pinned to worker %s", s.id, v)
			s.workerURL = v
		}
	}
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return 0, fmt.Errorf("reading %s %s response: %w", method, url, err)
	}
	if resp.StatusCode >= 300 {
		ae := &apiError{}
		if jerr := json.Unmarshal(raw, ae); jerr != nil || ae.Msg == "" {
			ae.Msg = fmt.Sprintf("%s %s: %s: %s", method, url, resp.Status, bytes.TrimSpace(raw))
		}
		var rerr error = ae
		if v := resp.Header.Get("Retry-After"); v != "" {
			if secs, perr := strconv.Atoi(v); perr == nil && secs >= 0 {
				rerr = &retryAfterError{inner: ae, delay: time.Duration(secs) * time.Second}
			}
		}
		return resp.StatusCode, rerr
	}
	if out == nil {
		return resp.StatusCode, nil
	}
	if err := json.Unmarshal(raw, out); err != nil {
		// A truncated/garbled success body: the operation may have applied.
		// Report as retryable-with-resync rather than success.
		return 0, fmt.Errorf("decoding %s %s response: %w", method, url, err)
	}
	return resp.StatusCode, nil
}
