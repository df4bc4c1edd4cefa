package client_test

// Retry classification against scripted httptest daemons: which failures
// rotate to the next coordinator, which end the operation, which resync the
// ack and retry in place, and how Retry-After and gap rewinds steer the
// stream. Coordinator restarts and standby takeovers are survived through
// exactly these rules.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/event"
)

const chunkEvents = 10

// daemon is a scripted stand-in for a raced server holding one session,
// "s1", whose acknowledged count advances chunk by chunk. Chunk attempts
// are answered from reply while it lasts (200 applies the chunk), then
// normally; a chunk ahead of the ack gets the server's gap 409.
type daemon struct {
	mu         sync.Mutex
	acked      uint64
	reply      []int
	retryAfter string   // sent with every scripted non-200 chunk reply
	offsets    []uint64 // X-Raced-Offset of every chunk attempt
	resyncs    int      // GET /sessions/s1
	requests   int
}

func (d *daemon) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.requests++
	switch r.Method + " " + r.URL.Path {
	case "POST /sessions":
		w.WriteHeader(http.StatusCreated)
		fmt.Fprint(w, `{"id":"s1"}`)
	case "GET /sessions/s1":
		d.resyncs++
		fmt.Fprintf(w, `{"id":"s1","events":%d}`, d.acked)
	case "POST /sessions/s1/chunks":
		off, _ := strconv.ParseUint(r.Header.Get("X-Raced-Offset"), 10, 64)
		d.offsets = append(d.offsets, off)
		status := http.StatusOK
		if len(d.reply) > 0 {
			status, d.reply = d.reply[0], d.reply[1:]
		}
		switch {
		case status != http.StatusOK:
			if d.retryAfter != "" {
				w.Header().Set("Retry-After", d.retryAfter)
			}
			w.WriteHeader(status)
			fmt.Fprintf(w, `{"error":"scripted %d"}`, status)
		case off > d.acked:
			w.WriteHeader(http.StatusConflict)
			fmt.Fprintf(w, `{"error":"gap","events":%d,"gap":true}`, d.acked)
		default:
			d.acked = max(d.acked, off+chunkEvents)
			fmt.Fprintf(w, `{"events":%d}`, d.acked)
		}
	default:
		http.NotFound(w, r)
	}
}

// failing answers every request with one status.
type failing struct {
	status   int
	mu       sync.Mutex
	requests int
}

func (f *failing) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f.mu.Lock()
	f.requests++
	f.mu.Unlock()
	w.WriteHeader(f.status)
	fmt.Fprintf(w, `{"error":"always %d"}`, f.status)
}

func serve(t *testing.T, h http.Handler) string {
	t.Helper()
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return srv.URL
}

func config(base string) client.Config {
	return client.Config{
		BaseURL:     base,
		ChunkEvents: chunkEvents,
		RetryBudget: 4,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  time.Millisecond,
	}
}

var events = make([]event.Event, 5*chunkEvents)

func open(t *testing.T, cfg client.Config) *client.Session {
	t.Helper()
	s, err := client.Open(context.Background(), cfg, &event.Symbols{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	return s
}

// TestRotatesPastFailedCoordinator: an unreachable coordinator (status 0),
// a 5xx (down, or a standby) and a 412 (a fenced zombie) all send the next
// attempt to the next address in BaseURL.
func TestRotatesPastFailedCoordinator(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	for _, tc := range []struct {
		name  string
		first string
		bad   *failing
	}{
		{"unreachable", dead.URL, nil},
		{"500", "", &failing{status: http.StatusInternalServerError}},
		{"503", "", &failing{status: http.StatusServiceUnavailable}},
		{"412", "", &failing{status: http.StatusPreconditionFailed}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			first := tc.first
			if tc.bad != nil {
				first = serve(t, tc.bad)
			}
			good := &daemon{}
			s := open(t, config(first+","+serve(t, good)))
			if err := s.Stream(context.Background(), events, 0); err != nil {
				t.Fatalf("stream: %v", err)
			}
			if tc.bad != nil && tc.bad.requests != 1 {
				t.Errorf("failed coordinator saw %d requests, want 1 (then rotation)", tc.bad.requests)
			}
			if s.Acked() != uint64(len(events)) {
				t.Errorf("acked %d, want %d", s.Acked(), len(events))
			}
		})
	}
}

// TestTerminalStatuses: 409 (closed, not a gap), 410 and 413 are
// authoritative protocol answers; the operation ends on the first one.
func TestTerminalStatuses(t *testing.T) {
	for _, status := range []int{http.StatusConflict, http.StatusGone, http.StatusRequestEntityTooLarge} {
		t.Run(strconv.Itoa(status), func(t *testing.T) {
			d := &daemon{reply: []int{status}}
			s := open(t, config(serve(t, d)))
			err := s.Stream(context.Background(), events, 0)
			var te *client.TerminalError
			if !errors.As(err, &te) || te.Status != status || te.Attempts != 1 {
				t.Fatalf("stream error %v, want a *TerminalError with status %d after 1 attempt", err, status)
			}
			if len(d.offsets) != 1 {
				t.Errorf("%d chunk attempts, want 1", len(d.offsets))
			}
		})
	}
}

// TestRetriedAfterResync: 404, 400 and 422 may be transit damage; the
// client resyncs its ack with a status request and retries on the same
// coordinator, without rotating.
func TestRetriedAfterResync(t *testing.T) {
	for _, status := range []int{http.StatusNotFound, http.StatusBadRequest, http.StatusUnprocessableEntity} {
		t.Run(strconv.Itoa(status), func(t *testing.T) {
			d := &daemon{reply: []int{status}}
			other := &failing{status: http.StatusInternalServerError}
			s := open(t, config(serve(t, d)+","+serve(t, other)))
			if err := s.Stream(context.Background(), events, 0); err != nil {
				t.Fatalf("stream: %v", err)
			}
			if d.resyncs == 0 {
				t.Error("no ack resync after the failed chunk")
			}
			if d.offsets[0] != 0 || d.offsets[1] != 0 {
				t.Errorf("chunk offsets %v, want the first chunk sent twice", d.offsets)
			}
			if other.requests != 0 {
				t.Errorf("rotated to the next coordinator on %d", status)
			}
		})
	}
}

// TestRetryAfterOverridesBackoff: a server Retry-After longer than the
// computed backoff sets the pause before the next attempt.
func TestRetryAfterOverridesBackoff(t *testing.T) {
	d := &daemon{reply: []int{http.StatusServiceUnavailable}, retryAfter: "1"}
	s := open(t, config(serve(t, d)))
	t0 := time.Now()
	if err := s.Stream(context.Background(), events[:chunkEvents], 0); err != nil {
		t.Fatalf("stream: %v", err)
	}
	if took := time.Since(t0); took < time.Second {
		t.Errorf("retried after %v, want the server's 1 s Retry-After over a 1 ms backoff", took)
	}
}

// TestGapRewindsAck: a chunk the server is not ready for (it rolled back
// to an older checkpoint) is answered with a gap 409 carrying the server's
// ack; the client adopts it and resends from there instead of failing.
func TestGapRewindsAck(t *testing.T) {
	d := &daemon{}
	s := open(t, config(serve(t, d)))
	ctx := context.Background()
	if err := s.Stream(ctx, events[:3*chunkEvents], 0); err != nil {
		t.Fatalf("stream: %v", err)
	}
	d.mu.Lock()
	d.acked, d.offsets = chunkEvents, nil // the server restored an older checkpoint
	d.mu.Unlock()
	if err := s.Stream(ctx, events, 0); err != nil {
		t.Fatalf("stream after rollback: %v", err)
	}
	want := []uint64{30, 10, 20, 30, 40}
	if fmt.Sprint(d.offsets) != fmt.Sprint(want) {
		t.Errorf("chunk offsets after rollback %v, want %v", d.offsets, want)
	}
	if s.Acked() != uint64(len(events)) {
		t.Errorf("acked %d, want %d", s.Acked(), len(events))
	}
}
