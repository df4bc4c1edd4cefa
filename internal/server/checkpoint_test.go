package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/snap"
	"repro/internal/trace"
	"repro/internal/traceio"
)

// durableConfig is a server config with checkpointing on and every timer
// disabled — tests drive checkpoints explicitly via POST /checkpoint.
func durableConfig(dir string) Config {
	return Config{
		Workers:         2,
		QueueCap:        64,
		IdleTimeout:     -1, // no janitor: "crashed" servers leak no goroutine
		CheckpointDir:   dir,
		CheckpointEvery: -1, // no periodic loop either
	}
}

// crashableServer is a server whose process death is simulated by closing
// the HTTP listener WITHOUT calling Server.Close — no drain, no shutdown
// checkpoint, exactly what SIGKILL leaves behind.
func crashableServer(t *testing.T, cfg Config) (*Server, *testClient, func()) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	return s, &testClient{t: t, base: ts.URL, c: ts.Client()}, ts.Close
}

func (tc *testClient) sessionEvents(id string) uint64 {
	tc.t.Helper()
	resp, raw := tc.do("GET", "/sessions/"+id, nil)
	if resp.StatusCode != http.StatusOK {
		tc.t.Fatalf("status: %d %s", resp.StatusCode, raw)
	}
	var st sessionStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		tc.t.Fatal(err)
	}
	return st.Events
}

// streamRange sends tr.Events[from:to] as one chunk.
func (tc *testClient) streamRange(id string, tr *trace.Trace, from, to int) {
	tc.t.Helper()
	var body bytes.Buffer
	if err := traceio.EncodeEvents(&body, tr.Events[from:to]); err != nil {
		tc.t.Fatal(err)
	}
	resp, raw := tc.do("POST", "/sessions/"+id+"/chunks", &body)
	if resp.StatusCode != http.StatusOK {
		tc.t.Fatalf("chunk [%d:%d]: %d %s", from, to, resp.StatusCode, raw)
	}
}

// TestCrashRecoveryResumesSession is the crash-recovery acceptance test: a
// session is checkpointed mid-stream, the server dies without any shutdown
// path, a new process on the same checkpoint directory re-opens the
// session, the client resumes from the acknowledged offset, and the final
// per-engine results — formatted race reports included — match an
// uninterrupted run of the same trace.
func TestCrashRecoveryResumesSession(t *testing.T) {
	tr := gen.Random(gen.RandomConfig{Seed: 42, Events: 20000, Threads: 4, Locks: 3, Vars: 5})
	dir := t.TempDir()

	// The uninterrupted baseline, on a server with no checkpointing at all.
	_, base := newTestServer(t, Config{Workers: 2, QueueCap: 64})
	baseID := base.createSession(tr, "wcp,hb")
	base.stream(baseID, tr, 5)
	want := base.finish(baseID)

	// First incarnation: stream 60%, checkpoint, stream 20% more (these
	// events are acknowledged but post-checkpoint — the crash loses them),
	// then die.
	_, tc, kill := crashableServer(t, durableConfig(dir))
	id := tc.createSession(tr, "wcp,hb")
	cut := len(tr.Events) * 6 / 10
	tc.streamRange(id, tr, 0, cut)
	resp, raw := tc.do("POST", "/checkpoint", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("checkpoint: %d %s", resp.StatusCode, raw)
	}
	tc.streamRange(id, tr, cut, len(tr.Events)*8/10)
	kill()

	// Second incarnation on the same directory.
	s2, tc2, kill2 := crashableServer(t, durableConfig(dir))
	defer kill2()
	defer s2.Close(context.Background())
	got := tc2.sessionEvents(id)
	if got != uint64(cut) {
		t.Fatalf("restored session resumed at %d events, want checkpoint offset %d", got, cut)
	}
	// The client resumes from the server-acknowledged offset.
	tc2.streamRange(id, tr, int(got), len(tr.Events))
	res := tc2.finish(id)

	if res.Events != want.Events {
		t.Fatalf("recovered run saw %d events, uninterrupted saw %d", res.Events, want.Events)
	}
	if len(res.Results) != len(want.Results) {
		t.Fatalf("engine count diverged: %d vs %d", len(res.Results), len(want.Results))
	}
	for i := range res.Results {
		g, w := res.Results[i], want.Results[i]
		if g.Engine != w.Engine || g.RacyEvents != w.RacyEvents || g.FirstRace != w.FirstRace ||
			g.Distinct != w.Distinct || g.QueueMaxTotal != w.QueueMaxTotal || g.Report != w.Report {
			t.Fatalf("engine %s diverged after recovery:\n got %+v\nwant %+v", g.Engine, g, w)
		}
	}
}

// TestReportsSurviveRestart pins that finished sessions' deduplicated race
// classes are durable: finish on one incarnation, crash, and the next
// incarnation still serves them over /reports.
func TestReportsSurviveRestart(t *testing.T) {
	tr := gen.Random(gen.RandomConfig{Seed: 7, Events: 15000, Threads: 4, Locks: 2, Vars: 4})
	dir := t.TempDir()

	s1, tc, kill := crashableServer(t, durableConfig(dir))
	id := tc.createSession(tr, "wcp")
	tc.stream(id, tr, 3)
	fin := tc.finish(id)
	if fin.Results[0].Distinct == 0 {
		t.Fatalf("trace produced no races; the test needs a racy trace")
	}
	wantClasses := s1.store.Len()
	wantObs := s1.store.Observations()
	kill()

	s2, tc2, kill2 := crashableServer(t, durableConfig(dir))
	defer kill2()
	defer s2.Close(context.Background())
	if got := s2.store.Len(); got != wantClasses {
		t.Fatalf("restarted server has %d race classes, want %d", got, wantClasses)
	}
	if got := s2.store.Observations(); got != wantObs {
		t.Fatalf("restarted server has %d observations, want %d", got, wantObs)
	}
	resp, raw := tc2.do("GET", "/reports", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/reports: %d %s", resp.StatusCode, raw)
	}
	var rep struct {
		Total int `json:"total"`
	}
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Total != wantClasses {
		t.Fatalf("/reports total %d after restart, want %d", rep.Total, wantClasses)
	}
}

// TestGracefulRestartViaClose pins the tentpole claim that graceful
// restarts ride the crash-recovery path: Close on a checkpointing server
// persists open sessions instead of finalizing them.
func TestGracefulRestartViaClose(t *testing.T) {
	tr := gen.Random(gen.RandomConfig{Seed: 13, Events: 12000, Threads: 4, Locks: 3, Vars: 5})
	dir := t.TempDir()

	s1, tc, kill := crashableServer(t, durableConfig(dir))
	id := tc.createSession(tr, "wcp,hb")
	cut := len(tr.Events) / 2
	tc.streamRange(id, tr, 0, cut)
	if err := s1.Close(context.Background()); err != nil {
		t.Fatalf("close: %v", err)
	}
	kill()

	s2, tc2, kill2 := crashableServer(t, durableConfig(dir))
	defer kill2()
	defer s2.Close(context.Background())
	if got := tc2.sessionEvents(id); got != uint64(cut) {
		t.Fatalf("session resumed at %d events, want %d", got, cut)
	}
	tc2.streamRange(id, tr, cut, len(tr.Events))
	res := tc2.finish(id)
	if res.Events != uint64(len(tr.Events)) {
		t.Fatalf("resumed session saw %d events, want %d", res.Events, len(tr.Events))
	}
}

// TestSnapshotMigration moves a live session between two processes through
// the snapshot API: GET /sessions/{id}/snapshot on the source, POST
// /sessions/restore on the target, and the stream continues there.
func TestSnapshotMigration(t *testing.T) {
	tr := gen.Random(gen.RandomConfig{Seed: 99, Events: 16000, Threads: 5, Locks: 3, Vars: 6})

	_, base := newTestServer(t, Config{Workers: 2, QueueCap: 64})
	baseID := base.createSession(tr, "wcp,hb")
	base.stream(baseID, tr, 4)
	want := base.finish(baseID)

	_, src := newTestServer(t, Config{Workers: 2, QueueCap: 64})
	_, dst := newTestServer(t, Config{Workers: 2, QueueCap: 64})
	id := src.createSession(tr, "wcp,hb")
	cut := len(tr.Events) / 3
	src.streamRange(id, tr, 0, cut)

	resp, snapBytes := src.do("GET", "/sessions/"+id+"/snapshot", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot: %d %s", resp.StatusCode, snapBytes)
	}
	resp, raw := dst.do("POST", "/sessions/restore", bytes.NewReader(snapBytes))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("restore: %d %s", resp.StatusCode, raw)
	}
	if got := dst.sessionEvents(id); got != uint64(cut) {
		t.Fatalf("migrated session at %d events, want %d", got, cut)
	}
	// Restoring the same snapshot twice collides on the session id.
	resp, _ = dst.do("POST", "/sessions/restore", bytes.NewReader(snapBytes))
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate restore: status %d, want %d", resp.StatusCode, http.StatusConflict)
	}

	dst.streamRange(id, tr, cut, len(tr.Events))
	res := dst.finish(id)
	for i := range res.Results {
		g, w := res.Results[i], want.Results[i]
		if g.Engine != w.Engine || g.RacyEvents != w.RacyEvents || g.Distinct != w.Distinct || g.Report != w.Report {
			t.Fatalf("engine %s diverged after migration:\n got %+v\nwant %+v", g.Engine, g, w)
		}
	}
}

// TestCorruptCheckpointsAreSkipped ensures a torn or garbage checkpoint,
// or one written in the previous snapshot format version, cannot keep the
// server from starting: the bad file is ignored (and healthy ones around
// it still restore).
func TestCorruptCheckpointsAreSkipped(t *testing.T) {
	tr := gen.Random(gen.RandomConfig{Seed: 3, Events: 8000, Threads: 3, Locks: 2, Vars: 4})
	dir := t.TempDir()

	_, tc, kill := crashableServer(t, durableConfig(dir))
	id := tc.createSession(tr, "wcp")
	tc.stream(id, tr, 2)
	if resp, raw := tc.do("POST", "/checkpoint", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("checkpoint: %d %s", resp.StatusCode, raw)
	}
	kill()

	// Corrupt a copy of the session checkpoint under another id, and drop in
	// pure garbage too.
	good, err := os.ReadFile(filepath.Join(dir, id+".ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	torn := good[:len(good)/2]
	if err := os.WriteFile(filepath.Join(dir, "torn0000.ckpt"), torn, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "junk0000.ckpt"), []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	stale := bytes.Clone(good)
	stale[4] = snap.Version - 1 // the first frame's version byte
	if err := os.WriteFile(filepath.Join(dir, "stale000.ckpt"), stale, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, tc2, kill2 := crashableServer(t, durableConfig(dir))
	defer kill2()
	defer s2.Close(context.Background())
	s2.mu.Lock()
	n := len(s2.sessions)
	s2.mu.Unlock()
	if n != 1 {
		t.Fatalf("restored %d sessions, want only the healthy one", n)
	}
	if got := tc2.sessionEvents(id); got != uint64(len(tr.Events)) {
		t.Fatalf("healthy session restored at %d events, want %d", got, len(tr.Events))
	}
}

// TestEvictionSealsEngines is the stale-session leak regression at the
// server layer: an idle-evicted session must be sealed, so it returns its
// detector state to the memory budget, not just dropped from the table.
func TestEvictionSealsEngines(t *testing.T) {
	cfg := Config{
		Workers:       2,
		QueueCap:      64,
		IdleTimeout:   50 * time.Millisecond,
		JanitorPeriod: 10 * time.Millisecond,
	}
	s, tc := newTestServer(t, cfg)
	tr := gen.Random(gen.RandomConfig{Seed: 21, Events: 6000, Threads: 4, Locks: 2, Vars: 4})
	id := tc.createSession(tr, "hb")
	tc.stream(id, tr, 2)
	sess := s.getSession(id)
	if sess == nil {
		t.Fatalf("session not found before eviction")
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.getSession(id) != nil {
		if time.Now().After(deadline) {
			t.Fatalf("session was never evicted")
		}
		time.Sleep(10 * time.Millisecond)
	}
	sess.mu.Lock()
	closed := sess.closed
	sess.mu.Unlock()
	if !closed {
		t.Fatalf("evicted session was not finalized; its engines still pin detector state")
	}
	// DELETE on a live session must seal engines too (abort path).
	id2 := tc.createSession(tr, "hb")
	sess2 := s.getSession(id2)
	tc.stream(id2, tr, 1)
	if resp, raw := tc.do("DELETE", "/sessions/"+id2, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("abort: %d %s", resp.StatusCode, raw)
	}
	sess2.mu.Lock()
	closed = sess2.closed
	sess2.mu.Unlock()
	if !closed {
		t.Fatalf("aborted session was not sealed")
	}
}
