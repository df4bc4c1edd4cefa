package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/trace"
	"repro/internal/traceio"
)

// testClient drives the raced HTTP API the way examples/client does.
type testClient struct {
	t    *testing.T
	base string
	c    *http.Client
}

func (tc *testClient) do(method, path string, body io.Reader) (*http.Response, []byte) {
	tc.t.Helper()
	return tc.doWith(method, path, nil, body)
}

// doWith issues a request carrying the given headers.
func (tc *testClient) doWith(method, path string, hdr map[string]string, body io.Reader) (*http.Response, []byte) {
	tc.t.Helper()
	req, err := http.NewRequest(method, tc.base+path, body)
	if err != nil {
		tc.t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := tc.c.Do(req)
	if err != nil {
		tc.t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		tc.t.Fatal(err)
	}
	return resp, raw
}

func (tc *testClient) createSession(tr *trace.Trace, engines string) string {
	tc.t.Helper()
	var hdr bytes.Buffer
	if err := traceio.WriteHeader(&hdr, tr.Symbols, 0); err != nil {
		tc.t.Fatal(err)
	}
	resp, raw := tc.do("POST", "/sessions?engines="+engines, &hdr)
	if resp.StatusCode != http.StatusCreated {
		tc.t.Fatalf("create session: %d %s", resp.StatusCode, raw)
	}
	var out struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(raw, &out); err != nil {
		tc.t.Fatal(err)
	}
	return out.ID
}

// stream sends tr's events to session id in nchunks roughly-equal chunks.
func (tc *testClient) stream(id string, tr *trace.Trace, nchunks int) {
	tc.t.Helper()
	n := len(tr.Events)
	per := (n + nchunks - 1) / nchunks
	for i := 0; i < n; i += per {
		end := i + per
		if end > n {
			end = n
		}
		var body bytes.Buffer
		if err := traceio.EncodeEvents(&body, tr.Events[i:end]); err != nil {
			tc.t.Fatal(err)
		}
		resp, raw := tc.sendChunkAt(id, uint64(i), body.Bytes())
		if resp.StatusCode != http.StatusOK {
			tc.t.Fatalf("chunk [%d:%d]: %d %s", i, end, resp.StatusCode, raw)
		}
	}
}

func (tc *testClient) finish(id string) sessionFinished {
	tc.t.Helper()
	resp, raw := tc.do("POST", "/sessions/"+id+"/finish", nil)
	if resp.StatusCode != http.StatusOK {
		tc.t.Fatalf("finish: %d %s", resp.StatusCode, raw)
	}
	var out sessionFinished
	if err := json.Unmarshal(raw, &out); err != nil {
		tc.t.Fatal(err)
	}
	return out
}

func newTestServer(t *testing.T, cfg Config) (*Server, *testClient) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Close(ctx); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return s, &testClient{t: t, base: ts.URL, c: ts.Client()}
}

// TestEndToEndConcurrentClients is the acceptance scenario: 8 concurrent
// clients stream distinct traces (chunked, pipelined sessions) plus one
// shared trace each; every per-session report must be byte-identical to
// the batch engine.Analyze on the same trace, and the shared trace's races
// must collapse to single dedup entries counted across all 8 sessions.
func TestEndToEndConcurrentClients(t *testing.T) {
	const clients = 8
	s, tc := newTestServer(t, Config{Workers: 4, QueueCap: 256})
	shared := gen.Random(gen.RandomConfig{Seed: 42, Events: 20000, Threads: 4, Locks: 3, Vars: 5})
	wantEngines := []string{"wcp", "hb"}

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			own := gen.Random(gen.RandomConfig{
				Seed: int64(100 + c), Events: 10000 + 1000*c, Threads: 3 + c%3, Locks: 2, Vars: 4,
			})
			for _, tr := range []*trace.Trace{own, shared} {
				id := tc.createSession(tr, strings.Join(wantEngines, ","))
				tc.stream(id, tr, 4+c)
				got := tc.finish(id)
				if got.Events != uint64(len(tr.Events)) {
					t.Errorf("client %d: session saw %d events, want %d", c, got.Events, len(tr.Events))
					return
				}
				for i, name := range wantEngines {
					want := engine.MustNew(name, engine.Config{}).Analyze(tr)
					res := got.Results[i]
					if res.Engine != name {
						t.Errorf("client %d: result %d is %q, want %q", c, i, res.Engine, name)
					}
					if res.RacyEvents != want.RacyEvents || res.Distinct != want.Distinct() || res.FirstRace != want.FirstRace {
						t.Errorf("client %d %s: racy=%d distinct=%d first=%d, want racy=%d distinct=%d first=%d",
							c, name, res.RacyEvents, res.Distinct, res.FirstRace,
							want.RacyEvents, want.Distinct(), want.FirstRace)
					}
					if wantReport := want.Report.Format(tr.Symbols); res.Report != wantReport {
						t.Errorf("client %d %s: session report differs from batch:\n%s\n--- want ---\n%s",
							c, name, res.Report, wantReport)
					}
				}
			}
		}(c)
	}
	wg.Wait()

	// Dedup: the shared trace was ingested by all 8 clients; its race
	// classes must appear once each, with Traces >= 8.
	wantShared := engine.MustNew("wcp", engine.Config{}).Analyze(shared)
	if wantShared.Distinct() == 0 {
		t.Fatal("shared trace should contain races (pick another seed)")
	}
	resp, raw := tc.do("GET", "/reports?engine=wcp", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reports: %d %s", resp.StatusCode, raw)
	}
	var rep struct {
		Reports []struct {
			LocA   string `json:"loc_a"`
			LocB   string `json:"loc_b"`
			Traces int64  `json:"traces"`
		} `json:"reports"`
	}
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	sharedClasses := 0
	for _, e := range rep.Reports {
		if e.Traces >= clients {
			sharedClasses++
		}
	}
	if sharedClasses < wantShared.Distinct() {
		t.Errorf("dedup store has %d classes with >= %d traces, want >= %d (the shared trace's races, collapsed)",
			sharedClasses, clients, wantShared.Distinct())
	}
	if s.store.Len() == 0 {
		t.Error("report store is empty after e2e run")
	}
}

// TestSaturationSheds: with the lone worker pinned and the queue at
// capacity, chunk submissions are rejected with 429 + Retry-After instead
// of queueing, and the queue depth never exceeds its cap.
func TestSaturationSheds(t *testing.T) {
	s, tc := newTestServer(t, Config{Workers: 1, QueueCap: 2})
	tr := gen.Random(gen.RandomConfig{Seed: 7, Events: 1000, Threads: 3, Locks: 2, Vars: 4})
	id := tc.createSession(tr, "wcp")

	// Pin the worker with a gate task under another key, then fill the
	// queue to capacity.
	gate := make(chan struct{})
	var pinned sync.WaitGroup
	pinned.Add(1)
	if err := s.sched.Submit("pin", func() { defer pinned.Done(); <-gate }); err != nil {
		t.Fatal(err)
	}
	for i := 0; s.sched.Running() != 1; i++ {
		if i > 1000 {
			t.Fatal("pin task never started")
		}
		time.Sleep(time.Millisecond)
	}
	fills := make(chan struct{})
	for i := 0; i < 2; i++ {
		if err := s.sched.Submit(fmt.Sprintf("fill-%d", i), func() { <-fills }); err != nil {
			t.Fatal(err)
		}
	}

	var body bytes.Buffer
	if err := traceio.EncodeEvents(&body, tr.Events); err != nil {
		t.Fatal(err)
	}
	resp, raw := tc.sendChunkAt(id, 0, body.Bytes())
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("chunk under saturation: %d %s, want 429", resp.StatusCode, raw)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 response missing Retry-After")
	}
	if depth := s.sched.QueueDepth(); depth > 2 {
		t.Errorf("queue depth grew to %d under saturation, cap is 2", depth)
	}

	// Release: the same chunk is accepted and the session completes.
	close(fills)
	close(gate)
	pinned.Wait()
	tc.sendChunkBytes(id, 0, body.Bytes())
	got := tc.finish(id)
	if got.Events != uint64(len(tr.Events)) {
		t.Errorf("after recovery session saw %d events, want %d", got.Events, len(tr.Events))
	}
}

func (tc *testClient) sendChunkBytes(id string, offset uint64, raw []byte) {
	tc.t.Helper()
	resp, body := tc.sendChunkAt(id, offset, raw)
	if resp.StatusCode != http.StatusOK {
		tc.t.Fatalf("chunk: %d %s", resp.StatusCode, body)
	}
}

// TestChunkDecodeError: a chunk cut mid-event is a 400 whose JSON carries
// the offset and absolute event index, and the session refuses further
// chunks (its analysis is poisoned).
func TestChunkDecodeError(t *testing.T) {
	_, tc := newTestServer(t, Config{})
	tr := gen.Random(gen.RandomConfig{Seed: 9, Events: 500, Threads: 3, Locks: 2, Vars: 4})
	id := tc.createSession(tr, "wcp")

	var ok bytes.Buffer
	if err := traceio.EncodeEvents(&ok, tr.Events[:100]); err != nil {
		t.Fatal(err)
	}
	tc.sendChunkBytes(id, 0, ok.Bytes())

	var bad bytes.Buffer
	if err := traceio.EncodeEvents(&bad, tr.Events[100:200]); err != nil {
		t.Fatal(err)
	}
	resp, raw := tc.sendChunkAt(id, 100, bad.Bytes()[:bad.Len()-1])
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("truncated chunk: %d %s, want 400", resp.StatusCode, raw)
	}
	var e apiError
	if err := json.Unmarshal(raw, &e); err != nil {
		t.Fatal(err)
	}
	if e.Offset <= 0 {
		t.Errorf("decode error carries offset %d, want > 0", e.Offset)
	}
	if e.Event < 100 || e.Event >= 200 {
		t.Errorf("decode error names event %d, want an absolute index in [100, 200)", e.Event)
	}
	// The session is poisoned: further chunks are rejected.
	resp, raw = tc.sendChunkAt(id, 100, encodeEvents(t, tr.Events[100:200]))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("chunk after poison: %d %s, want 400", resp.StatusCode, raw)
	}
}

// TestRetiredEpochEngines: the epoch engines are gone, so a session naming
// one is refused up front with the unknown-engine error, not opened with a
// substitute.
func TestRetiredEpochEngines(t *testing.T) {
	_, tc := newTestServer(t, Config{})
	tr := gen.Random(gen.RandomConfig{Seed: 9, Events: 50, Threads: 2, Locks: 1, Vars: 2})
	for _, name := range []string{"wcp-epoch", "hb-epoch"} {
		var hdr bytes.Buffer
		if err := traceio.WriteHeader(&hdr, tr.Symbols, 0); err != nil {
			t.Fatal(err)
		}
		resp, raw := tc.do("POST", "/sessions?engines=wcp,"+name, &hdr)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(raw), "unknown engine") {
			t.Fatalf("%s: %d %s, want 400 unknown engine", name, resp.StatusCode, raw)
		}
	}
}

// TestAnalyzeDuplicateSymbolNames: a session whose header names thread
// "t0" twice and whose event runs on thread 1 is analyzed, not a
// scheduler-worker panic that takes the daemon down. Binary symbol tables
// are positional, so the detector is sized for both threads.
func TestAnalyzeDuplicateSymbolNames(t *testing.T) {
	_, tc := newTestServer(t, Config{})
	header := "WCPT\x01" + // magic, version
		"\x02\x00\x01\x00" + // 2 threads, 0 locks, 1 var, 0 locations
		"\x02t0\x02t0\x01x" + // thread names t0, t0; variable x
		"\x00" // event count, unused by sessions
	body := "\x03\x00\x00\x00" + // t0 (index 0): w(x)
		"\x03\x01\x00\x00" // t0 (index 1): w(x)
	resp, raw := tc.do("POST", "/sessions?engines=wcp,hb", strings.NewReader(header))
	var created struct {
		ID string `json:"id"`
	}
	if resp.StatusCode != http.StatusCreated || json.Unmarshal(raw, &created) != nil {
		t.Fatalf("create: %d %s", resp.StatusCode, raw)
	}
	if resp, raw := tc.sendChunkAt(created.ID, 0, []byte(body)); resp.StatusCode != http.StatusOK {
		t.Fatalf("chunk: %d %s", resp.StatusCode, raw)
	}
	out := tc.finish(created.ID)
	if out.Events != 2 {
		t.Errorf("analyzed %d events, want 2", out.Events)
	}
	for _, r := range out.Results {
		if r.RacyEvents != 1 {
			t.Errorf("%s: %d racy events, want 1 (the two threads write x unordered)", r.Engine, r.RacyEvents)
		}
	}
}

// TestIdleSessionEviction: sessions with no activity are evicted by the
// janitor; their partial results still reach the report store.
func TestIdleSessionEviction(t *testing.T) {
	s, tc := newTestServer(t, Config{
		IdleTimeout:   50 * time.Millisecond,
		JanitorPeriod: 10 * time.Millisecond,
	})
	tr := gen.Random(gen.RandomConfig{Seed: 42, Events: 20000, Threads: 4, Locks: 3, Vars: 5})
	id := tc.createSession(tr, "wcp")
	tc.stream(id, tr, 2)

	deadline := time.Now().Add(5 * time.Second)
	for tc.sessionExists(id) {
		if time.Now().After(deadline) {
			t.Fatal("idle session was never evicted")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := s.sessionsEvicted.Value(); got != 1 {
		t.Errorf("sessionsEvicted = %d, want 1", got)
	}
	// The races the session had already found reached the store.
	if s.store.Len() == 0 {
		t.Error("evicted session's races did not reach the report store")
	}
	// Finishing the evicted session is a conflict, not a hang.
	resp, _ := tc.do("POST", "/sessions/"+id+"/finish", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("finish after eviction: %d, want 404", resp.StatusCode)
	}
}

func (tc *testClient) sessionExists(id string) bool {
	tc.t.Helper()
	resp, _ := tc.do("GET", "/sessions/"+id, nil)
	return resp.StatusCode == http.StatusOK
}

// TestGracefulShutdown: Close drains queued chunks, finalizes open
// sessions into the store, and subsequent requests see 503.
func TestGracefulShutdown(t *testing.T) {
	s := New(Config{Workers: 2, QueueCap: 64})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	tc := &testClient{t: t, base: ts.URL, c: ts.Client()}

	tr := gen.Random(gen.RandomConfig{Seed: 42, Events: 20000, Threads: 4, Locks: 3, Vars: 5})
	id := tc.createSession(tr, "wcp")
	tc.stream(id, tr, 3)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// The open session was finalized into the store at shutdown.
	if s.store.Len() == 0 {
		t.Error("open session's races were not finalized into the store at shutdown")
	}
	resp, _ := tc.do("GET", "/healthz", nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz after close: %d, want 503", resp.StatusCode)
	}
	resp, _ = tc.do("POST", "/sessions", nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("create after close: %d, want 503", resp.StatusCode)
	}
}

// TestMetricsAndHealth: counters move and render.
func TestMetricsAndHealth(t *testing.T) {
	_, tc := newTestServer(t, Config{})
	tr := gen.Random(gen.RandomConfig{Seed: 3, Events: 2000, Threads: 3, Locks: 2, Vars: 4})
	id := tc.createSession(tr, "wcp")
	tc.stream(id, tr, 2)
	tc.finish(id)

	resp, raw := tc.do("GET", "/metrics", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", resp.StatusCode)
	}
	text := string(raw)
	for _, line := range []string{
		fmt.Sprintf("raced_events_ingested_total %d", len(tr.Events)),
		"raced_sessions_created_total 1",
		"raced_sessions_finished_total 1",
		"raced_chunks_total 2",
	} {
		if !strings.Contains(text, line) {
			t.Errorf("metrics missing %q in:\n%s", line, text)
		}
	}
	resp, raw = tc.do("GET", "/healthz", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d %s", resp.StatusCode, raw)
	}
}
