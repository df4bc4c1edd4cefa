package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/event"
	"repro/internal/trace"
	"repro/internal/trace/tracetest"
	"repro/internal/traceio"
)

// TestIllFormedRejected streams every tracetest shape into a raced session
// — its well-formed prefix in one chunk, the rest in the next. The chunk
// holding the violation and every later chunk answer 400 with the
// offending event's index, and GET /sessions/{id} shows the failure with
// no event past the prefix analyzed.
func TestIllFormedRejected(t *testing.T) {
	_, tc := newTestServer(t, Config{})
	requireIndex := func(what string, want int, resp *http.Response, raw []byte) {
		t.Helper()
		var e apiError
		if resp.StatusCode != http.StatusBadRequest || json.Unmarshal(raw, &e) != nil || e.Event != int64(want) {
			t.Errorf("%s: %d %s, want 400 naming event %d", what, resp.StatusCode, raw, want)
		}
	}
	for _, s := range tracetest.IllFormedTraces() {
		tr := s.Trace
		id := tc.createSession(tr, "wcp,hb")
		if s.Index > 0 {
			tc.sendChunkBytes(id, 0, encodeEvents(t, tr.Events[:s.Index]))
		}
		rest := encodeEvents(t, tr.Events[s.Index:])
		resp, raw := tc.sendChunkAt(id, uint64(s.Index), rest)
		requireIndex(s.Name+", offending chunk", s.Index, resp, raw)
		resp, raw = tc.sendChunkAt(id, uint64(s.Index), rest)
		requireIndex(s.Name+", later chunk", s.Index, resp, raw)

		resp, raw = tc.do("GET", "/sessions/"+id, nil)
		var st sessionStatus
		if err := json.Unmarshal(raw, &st); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d %s", s.Name, resp.StatusCode, raw)
		}
		if st.Failed == "" || st.Events != uint64(s.Index) {
			t.Errorf("%s: status shows failure %q at %d events, want the violation after %d", s.Name, st.Failed, st.Events, s.Index)
		}
	}
}

// TestRestoredSessionKeepsTheContract: a session restored from its
// snapshot rejects a second holder of a lock acquired before the snapshot
// — the violation's index is absolute — and accepts the release that
// closes that section.
func TestRestoredSessionKeepsTheContract(t *testing.T) {
	b := trace.NewBuilder()
	b.Acquire("t1", "l")
	b.Write("t1", "x")
	b.Write("t2", "y")
	b.Release("t1", "l")
	b.Acquire("t2", "l")
	tr := b.Build()
	const before = 3
	engines := make([]engine.Session, 2)
	for i, name := range []string{"wcp", "hb"} {
		engines[i] = engine.MustNew(name, engine.Config{}).(engine.SessionEngine).NewSession(tr.NumThreads(), tr.NumLocks(), tr.NumVars())
	}
	sess := newSession("contract", traceio.Header{Syms: tr.Symbols}, []string{"wcp", "hb"}, engines, time.Now())
	if _, _, err := sess.ingest(bytes.NewReader(encodeEvents(t, tr.Events[:before])), 0, "", time.Now()); err != nil {
		t.Fatal(err)
	}
	var snapshot bytes.Buffer
	if err := sess.snapshotTo(&snapshot); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name      string
		next      []event.Event
		violation int // -1: accepted
	}{
		{"second holder", tr.Events[before+1:], before},
		{"closing release", tr.Events[before:], -1},
	} {
		r, err := restoreSession(bytes.NewReader(snapshot.Bytes()), time.Now())
		if err != nil {
			t.Fatal(err)
		}
		_, _, err = r.ingest(bytes.NewReader(encodeEvents(t, tc.next)), before, "", time.Now())
		var ve *trace.ValidationError
		switch {
		case tc.violation < 0 && err != nil:
			t.Errorf("%s: rejected: %v", tc.name, err)
		case tc.violation >= 0 && (!errors.As(err, &ve) || ve.Index != tc.violation):
			t.Errorf("%s: %v, want the violation at event %d", tc.name, err, tc.violation)
		}
	}
}
