package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/traceio"
)

// Parking tests: a parked session stays an open session of the server. It
// is listed and counted everywhere, status and snapshot requests read it
// without waking it, and idle eviction finalizes it wherever it was parked.

// parkedIDs lists the sessions GET /sessions reports as parked.
func (tc *testClient) parkedIDs() []string {
	tc.t.Helper()
	resp, raw := tc.do("GET", "/sessions", nil)
	if resp.StatusCode != http.StatusOK {
		tc.t.Fatalf("list sessions: %d %s", resp.StatusCode, raw)
	}
	var out struct {
		Sessions []struct {
			ID     string `json:"id"`
			Parked bool   `json:"parked"`
		} `json:"sessions"`
	}
	if err := json.Unmarshal(raw, &out); err != nil {
		tc.t.Fatal(err)
	}
	var ids []string
	for _, st := range out.Sessions {
		if st.Parked {
			ids = append(ids, st.ID)
		}
	}
	return ids
}

func (tc *testClient) snapshot(id string) []byte {
	tc.t.Helper()
	resp, raw := tc.do("GET", "/sessions/"+id+"/snapshot", nil)
	if resp.StatusCode != http.StatusOK {
		tc.t.Fatalf("snapshot %s: %d %s", id, resp.StatusCode, raw)
	}
	return raw
}

func (tc *testClient) healthz() map[string]any {
	tc.t.Helper()
	resp, raw := tc.do("GET", "/healthz", nil)
	if resp.StatusCode != http.StatusOK {
		tc.t.Fatalf("healthz: %d %s", resp.StatusCode, raw)
	}
	var out map[string]any
	if err := json.Unmarshal(raw, &out); err != nil {
		tc.t.Fatal(err)
	}
	return out
}

// metric returns the value of one unlabeled series in /metrics.
func (tc *testClient) metric(name string) string {
	tc.t.Helper()
	_, raw := tc.do("GET", "/metrics", nil)
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			return v
		}
	}
	tc.t.Fatalf("metric %s not exported", name)
	return ""
}

// waitFor polls cond until it holds, failing the test after 10 seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestDiskParkedSessionStaysOpen: a session the pressure loop parks to its
// checkpoint file is still an open session. SessionIDs (the fleet
// re-registration list), Stats, /healthz and the parked gauge all count
// it, and a create naming its id conflicts.
func TestDiskParkedSessionStaysOpen(t *testing.T) {
	cfg := durableConfig(t.TempDir())
	cfg.StateBudgetBytes = 1 // everything is over budget
	s, tc := newTestServer(t, cfg)
	trA := gen.Random(gen.RandomConfig{Seed: 31, Events: 3000, Threads: 4, Locks: 3, Vars: 5})
	trB := gen.Random(gen.RandomConfig{Seed: 32, Events: 3000, Threads: 4, Locks: 3, Vars: 5})
	idA := tc.createSession(trA, "wcp")
	tc.streamRange(idA, trA, 0, 1500)
	idB := tc.createSession(trB, "wcp")
	tc.streamRange(idB, trB, 0, 1500)

	// B is the most recently active session, so only A can be parked.
	waitFor(t, "a parked session", func() bool { return s.sessionsParked.Value() > 0 })
	if _, err := os.Stat(s.ckptPath(idA)); err != nil {
		t.Fatalf("session %s was not parked to its checkpoint file: %v", idA, err)
	}

	ids := s.SessionIDs()
	slices.Sort(ids)
	want := []string{idA, idB}
	slices.Sort(want)
	if !slices.Equal(ids, want) {
		t.Errorf("SessionIDs() = %v, want %v", ids, want)
	}
	if got := s.Stats().Sessions; got != 2 {
		t.Errorf("Stats().Sessions = %d, want 2", got)
	}
	h := tc.healthz()
	if h["sessions"] != 2.0 || h["sessions_parked"] != 1.0 {
		t.Errorf("/healthz sessions=%v sessions_parked=%v, want 2 and 1", h["sessions"], h["sessions_parked"])
	}
	if got := tc.metric("raced_sessions_parked"); got != "1" {
		t.Errorf("raced_sessions_parked = %s, want 1", got)
	}

	var hdr bytes.Buffer
	if err := traceio.WriteHeader(&hdr, trA.Symbols, 0); err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest("POST", tc.base+"/sessions?engines=wcp", &hdr)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(HeaderSessionID, idA)
	resp, err := tc.c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("create naming the parked session's id: %d, want 409", resp.StatusCode)
	}
}

// TestParkedSessionReadsDoNotWake: in both parking modes a status and a
// snapshot request read a parked session as it is. Neither restores its
// detector state, and the snapshot is byte-identical to one taken just
// before the park. A replayed chunk does not wake it either; the next chunk
// past the ack does, and so does a finish, whose report matches batch.
func TestParkedSessionReadsDoNotWake(t *testing.T) {
	for _, mode := range []string{"memory", "disk"} {
		t.Run(mode, func(t *testing.T) {
			cfg := Config{Workers: 2, QueueCap: 64, IdleTimeout: -1}
			if mode == "disk" {
				cfg = durableConfig(t.TempDir())
			}
			s, tc := newTestServer(t, cfg)
			tr := gen.Random(gen.RandomConfig{Seed: 33, Events: 3000, Threads: 4, Locks: 3, Vars: 5})
			id := tc.createSession(tr, "wcp,hb")
			const cut = 1700
			tc.streamRange(id, tr, 0, cut)

			before := tc.snapshot(id)
			if !s.parkSession(s.getSession(id)) {
				t.Fatal("session was not parked")
			}
			if got := tc.sessionEvents(id); got != cut {
				t.Errorf("status of the parked session: %d events, want %d", got, cut)
			}
			if got := tc.snapshot(id); !bytes.Equal(got, before) {
				t.Errorf("snapshot of the parked session differs from the one taken before the park (%d vs %d bytes)",
					len(got), len(before))
			}
			// A resent chunk lying wholly behind the ack is a replay, not a
			// reason to wake.
			if resp, raw := tc.sendChunkAt(id, 0, encodeEvents(t, tr.Events[:cut])); resp.StatusCode != http.StatusOK {
				t.Fatalf("replayed chunk: %d %s", resp.StatusCode, raw)
			}
			if n := s.sessionsUnparked.Value(); n != 0 {
				t.Errorf("status, snapshot and replay requests woke the parked session (%d wakes)", n)
			}

			tc.streamRange(id, tr, cut, len(tr.Events))
			if n := s.sessionsUnparked.Value(); n != 1 {
				t.Errorf("a chunk past the ack made %d wakes, want 1", n)
			}
			if !s.parkSession(s.getSession(id)) {
				t.Fatal("session was not parked again")
			}
			got := tc.finish(id)
			if n := s.sessionsUnparked.Value(); n != 2 {
				t.Errorf("finishing the parked session made %d wakes in all, want 2", n)
			}
			for i, name := range []string{"wcp", "hb"} {
				want := engine.MustNew(name, engine.Config{}).Analyze(tr)
				if got.Results[i].Report != want.Report.Format(tr.Symbols) {
					t.Errorf("%s report after park and wake differs from batch analysis", name)
				}
			}
		})
	}
}

// TestIdleDiskParkedSessionIsEvicted: a session parked to disk is evicted
// like any idle session. Its races reach /reports, and its checkpoint file
// is removed.
func TestIdleDiskParkedSessionIsEvicted(t *testing.T) {
	tr := gen.Random(gen.RandomConfig{Seed: 34, Events: 3000, Threads: 4, Locks: 3, Vars: 5})

	// The races the session holds, as a finished session reports them.
	_, base := newTestServer(t, Config{Workers: 2, QueueCap: 64})
	baseID := base.createSession(tr, "wcp")
	base.stream(baseID, tr, 2)
	base.finish(baseID)
	wantTotal := reportsTotal(t, base)
	if wantTotal == 0 {
		t.Fatal("trace has no races; pick a racier seed")
	}

	cfg := durableConfig(t.TempDir())
	cfg.IdleTimeout = 300 * time.Millisecond
	cfg.JanitorPeriod = 10 * time.Millisecond
	s, tc := newTestServer(t, cfg)
	id := tc.createSession(tr, "wcp")
	tc.stream(id, tr, 2)
	if !s.parkSession(s.getSession(id)) {
		t.Fatal("session was not parked")
	}
	if _, err := os.Stat(s.ckptPath(id)); err != nil {
		t.Fatalf("session was not parked to its checkpoint file: %v", err)
	}

	waitFor(t, "idle eviction", func() bool { return s.sessionsEvicted.Value() > 0 })
	if got := reportsTotal(t, tc); got != wantTotal {
		t.Errorf("/reports total after evicting the parked session = %d, want %d", got, wantTotal)
	}
	if _, err := os.Stat(s.ckptPath(id)); !os.IsNotExist(err) {
		t.Errorf("evicted session's checkpoint file still exists (stat err %v)", err)
	}
}

func reportsTotal(t *testing.T, tc *testClient) int {
	t.Helper()
	resp, raw := tc.do("GET", "/reports", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reports: %d %s", resp.StatusCode, raw)
	}
	var out struct {
		Total int `json:"total"`
	}
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	return out.Total
}
