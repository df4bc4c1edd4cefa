package main

import (
	"context"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Spans come only from this package: around client calls, from timing
// RoundTrippers on the client and the coordinator, and from Handler
// wrappers on the coordinator and the workers. A handler span is linked to
// its parent round trip by the X-Raced-Trace and X-Raced-Offset headers the
// client sends and the coordinator forwards, plus time containment.

type spanKind uint8

const (
	kindOp       spanKind = iota // a client call: Open, one-chunk Stream, Finish
	kindClientRT                 // one client HTTP attempt
	kindCoordH                   // the coordinator's handler
	kindFwdRT                    // one coordinator-to-worker attempt
	kindWorkerH                  // a worker's handler
)

const (
	routeCreate   = "create"
	routeChunk    = "chunk"
	routeFinish   = "finish"
	routeStatus   = "status"
	routeSnapshot = "snapshot"
	routeOther    = "other"
)

type span struct {
	kind       spanKind
	route      string
	key        string // trace|route|offset; session id instead of trace for snapshots
	op         int    // kindOp: its own id; kindClientRT: the op it serves (-1 none)
	start, end time.Time
	status     int
	bytes      int64  // response body bytes read (round trips)
	worker     string // X-Raced-Worker on a client round trip
	events     int    // kindOp chunk: events in the chunk
}

func (s *span) dur() time.Duration { return s.end.Sub(s.start) }

func spanKey(trace, route, offset string) string { return trace + "|" + route + "|" + offset }

// recorder keeps spans in memory while on; they are analysed when the
// traced phase ends.
type recorder struct {
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
	ops   atomic.Int64
}

func newRecorder() *recorder { return &recorder{spans: make([]span, 0, 1<<16)} }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

type opKey struct{}

// beginOp starts a client-call span; its id rides the context into the
// client's requests so the transport can attach each attempt to it. The
// returned function ends the span. A nil recorder, or one switched off,
// records nothing.
func (r *recorder) beginOp(ctx context.Context, route string) (context.Context, func(trace, offset string, events int)) {
	if r == nil || !r.on.Load() {
		return ctx, func(string, string, int) {}
	}
	id := int(r.ops.Add(1))
	t0 := time.Now()
	return context.WithValue(ctx, opKey{}, id), func(trace, offset string, events int) {
		r.add(span{kind: kindOp, route: route, key: spanKey(trace, route, offset), op: id,
			start: t0, end: time.Now(), events: events})
	}
}

// classify names a session-API request's route and span key.
func classify(req *http.Request) (route, key string) {
	p := req.URL.Path
	trace := req.Header.Get(obs.HeaderTrace)
	off := req.Header.Get("X-Raced-Offset")
	switch {
	case req.Method == http.MethodPost && p == "/sessions":
		route = routeCreate
	case req.Method == http.MethodPost && strings.HasSuffix(p, "/chunks"):
		route = routeChunk
	case req.Method == http.MethodPost && strings.HasSuffix(p, "/finish"):
		route = routeFinish
	case req.Method == http.MethodGet && strings.HasSuffix(p, "/snapshot"):
		// Checkpoint pulls carry no trace: key them by session id.
		return routeSnapshot, spanKey(strings.TrimSuffix(strings.TrimPrefix(p, "/sessions/"), "/snapshot"), routeSnapshot, "")
	case req.Method == http.MethodGet && strings.HasPrefix(p, "/sessions/"):
		route = routeStatus
	default:
		return routeOther, ""
	}
	return route, spanKey(trace, route, off)
}

// handler wraps a server's or coordinator's handler with a span per
// session-API request.
func (r *recorder) handler(kind spanKind, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if !r.on.Load() {
			h.ServeHTTP(w, req)
			return
		}
		route, key := classify(req)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		t0 := time.Now()
		h.ServeHTTP(sw, req)
		r.add(span{kind: kind, route: route, key: key, op: -1, start: t0, end: time.Now(), status: sw.status})
	})
}

// statusWriter remembers the response status. Unwrap keeps the server's
// read deadlines (http.ResponseController) working through the wrapper.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// transport times each HTTP attempt from RoundTrip to the response body's
// Close, so the span covers reading the reply.
type transport struct {
	r    *recorder
	kind spanKind
	base http.RoundTripper
}

func (t *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !t.r.on.Load() {
		return t.base.RoundTrip(req)
	}
	route, key := classify(req)
	op := -1
	if id, ok := req.Context().Value(opKey{}).(int); ok {
		op = id
	}
	sp := span{kind: t.kind, route: route, key: key, op: op, start: time.Now()}
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		sp.end = time.Now()
		t.r.add(sp)
		return nil, err
	}
	sp.status = resp.StatusCode
	sp.worker = resp.Header.Get("X-Raced-Worker")
	resp.Body = &timedBody{ReadCloser: resp.Body, r: t.r, sp: sp}
	return resp, nil
}

type timedBody struct {
	io.ReadCloser
	r    *recorder
	sp   span
	once sync.Once
}

func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.sp.bytes += int64(n)
	return n, err
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() {
		b.sp.end = time.Now()
		b.r.add(b.sp)
	})
	return err
}
