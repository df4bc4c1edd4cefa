package server

// Observability tests: the /metrics exposition must be well-formed and
// duplicate-free (the coordinator re-parses it with internal/obs to merge
// fleets), the /debug/trace and /debug/sessions endpoints must return the
// spans a traced request left behind, and the instrumented ingest path must
// stay allocation-free per event at the default sampling rate.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/traceio"
)

// goldenFamilies are the raced_* metric families scraped by smoke scripts
// and dashboards. Renaming or dropping one is a breaking change to every
// consumer of /metrics — this list is the contract.
var goldenFamilies = []string{
	"raced_events_ingested_total",
	"raced_chunks_total",
	"raced_sessions_created_total",
	"raced_sessions_finished_total",
	"raced_sessions_evicted_total",
	"raced_shed_total",
	"raced_chunks_replayed_total",
	"raced_events_replayed_total",
	"raced_chunk_integrity_rejects_total",
	"raced_chunk_gap_rejects_total",
	"raced_chunk_ingest_seconds",
	"raced_queue_wait_seconds",
	"raced_decode_seconds",
	"raced_engine_process_seconds",
	"raced_checkpoint_seconds",
	"raced_sessions_active",
	"raced_sessions_parked",
	"raced_queue_depth",
	"raced_queue_cap",
	"raced_tasks_running",
	"raced_sched_workers",
	"raced_state_bytes",
	"raced_uptime_seconds",
	"raced_report_classes",
	"raced_report_observations_total",
	"raced_coordinator_epoch",
	"raced_epoch_rejects_total",
}

// TestMetricsExposition re-parses /metrics with the same parser the fleet
// coordinator scrapes workers with: every family typed and documented, no
// series rendered twice, and the golden family names all present.
func TestMetricsExposition(t *testing.T) {
	_, tc := newTestServer(t, Config{Workers: 2})
	tr := gen.Random(gen.RandomConfig{Seed: 7, Events: 4000, Threads: 3, Locks: 2, Vars: 4})
	id := tc.createSession(tr, "wcp,hb")
	tc.stream(id, tr, 3)
	tc.finish(id)

	resp, raw := tc.do("GET", "/metrics", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", resp.StatusCode)
	}
	fams, err := obs.ParseExposition(raw)
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, raw)
	}
	byName := make(map[string]*obs.ParsedFamily)
	series := make(map[string]bool)
	for _, f := range fams {
		if byName[f.Name] != nil {
			t.Errorf("family %s appears twice (split HELP/TYPE blocks)", f.Name)
		}
		byName[f.Name] = f
		if f.Type == "" || f.Type == "untyped" {
			t.Errorf("family %s has no TYPE", f.Name)
		}
		if f.Help == "" {
			t.Errorf("family %s has no HELP", f.Name)
		}
		for _, l := range f.Lines {
			if series[l.Series()] {
				t.Errorf("series %s rendered twice", l.Series())
			}
			series[l.Series()] = true
		}
	}
	for _, name := range goldenFamilies {
		f := byName[name]
		if f == nil {
			t.Errorf("golden family %s missing from /metrics", name)
			continue
		}
		if len(f.Lines) == 0 {
			t.Errorf("golden family %s has no samples", name)
		}
	}
	// The per-engine histogram must carry one labeled series per engine the
	// session ran.
	for _, eng := range []string{"wcp", "hb"} {
		want := fmt.Sprintf(`engine=%q`, eng)
		found := false
		for _, l := range byName["raced_engine_process_seconds"].Lines {
			if strings.Contains(l.Labels, want) {
				found = true
			}
		}
		if !found {
			t.Errorf("raced_engine_process_seconds has no series labeled %s", want)
		}
	}
}

// TestDebugTraceEndpoints: a traced session leaves create/chunk/finish
// spans retrievable both by trace id and by session id.
func TestDebugTraceEndpoints(t *testing.T) {
	_, tc := newTestServer(t, Config{Workers: 2, Name: "w-test"})
	tr := gen.Random(gen.RandomConfig{Seed: 9, Events: 3000, Threads: 3, Locks: 2, Vars: 4})
	traceID := obs.NewID()

	var hdr bytes.Buffer
	if err := traceio.WriteHeader(&hdr, tr.Symbols, 0); err != nil {
		t.Fatal(err)
	}
	traced := map[string]string{obs.HeaderTrace: traceID}
	resp, raw := tc.doWith("POST", "/sessions?engines=wcp", traced, &hdr)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d %s", resp.StatusCode, raw)
	}
	var created struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(raw, &created); err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	if err := traceio.EncodeEvents(&body, tr.Events); err != nil {
		t.Fatal(err)
	}
	chunkHdr := map[string]string{obs.HeaderTrace: traceID, obs.HeaderOffset: "0"}
	if resp, raw := tc.doWith("POST", "/sessions/"+created.ID+"/chunks", chunkHdr, &body); resp.StatusCode != http.StatusOK {
		t.Fatalf("chunk: %d %s", resp.StatusCode, raw)
	}
	if resp, raw := tc.doWith("POST", "/sessions/"+created.ID+"/finish", traced, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("finish: %d %s", resp.StatusCode, raw)
	}

	for _, q := range []struct{ path, id string }{
		{"/debug/trace/" + traceID, traceID},
		{"/debug/sessions/" + created.ID, created.ID},
	} {
		resp, raw := tc.do("GET", q.path, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d %s", q.path, resp.StatusCode, raw)
		}
		var out struct {
			Spans []obs.Span `json:"spans"`
		}
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatalf("%s: %v", q.path, err)
		}
		names := make(map[string]bool)
		for _, sp := range out.Spans {
			names[sp.Name] = true
			if sp.Trace != traceID {
				t.Errorf("%s: span %q carries trace %q, want %q", q.path, sp.Name, sp.Trace, traceID)
			}
			if sp.Session != created.ID {
				t.Errorf("%s: span %q carries session %q, want %q", q.path, sp.Name, sp.Session, created.ID)
			}
			if sp.Worker != "w-test" {
				t.Errorf("%s: span %q carries worker %q, want w-test", q.path, sp.Name, sp.Worker)
			}
		}
		for _, want := range []string{"create", "chunk", "finish"} {
			if !names[want] {
				t.Errorf("%s: no %q span in %v", q.path, want, out.Spans)
			}
		}
	}

	// Malformed ids are rejected, unknown-but-valid ids return empty spans.
	if resp, _ := tc.do("GET", "/debug/trace/nope!", nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad trace id: %d, want 400", resp.StatusCode)
	}
	resp, raw = tc.do("GET", "/debug/trace/"+obs.NewID(), nil)
	var unknown struct {
		Spans []obs.Span `json:"spans"`
	}
	if err := json.Unmarshal(raw, &unknown); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || unknown.Spans == nil || len(unknown.Spans) != 0 {
		t.Errorf("unknown trace: %d %s, want 200 with empty (not null) span list", resp.StatusCode, raw)
	}
}

// TestIngestAllocs pins the observability overhead of the hot path: with
// stage timing at its default sampling rate, ingest must stay amortized
// allocation-free per event — spans and sampled timings are per chunk or
// per Nth block, never per event.
func TestIngestAllocs(t *testing.T) {
	s, tc := newTestServer(t, Config{Workers: 1})
	// ForkJoin off so re-appending the same event body to one session stays
	// a valid trace (forking an already-forked thread is not).
	tr := gen.Random(gen.RandomConfig{Seed: 11, Events: 20000, Threads: 4, Locks: 3, Vars: 5})
	id := tc.createSession(tr, "wcp")
	sess := s.getSession(id)
	if sess == nil {
		t.Fatalf("session %s not found", id)
	}
	if sess.obs == nil || sess.obs.sampleNs != 32 {
		t.Fatalf("session not instrumented at the default sampling rate: %+v", sess.obs)
	}
	var body bytes.Buffer
	if err := traceio.EncodeEvents(&body, tr.Events); err != nil {
		t.Fatal(err)
	}
	raw := body.Bytes()
	ingest := func() {
		if _, _, err := sess.ingest(bytes.NewReader(raw), sess.status().Events, "", time.Now()); err != nil {
			t.Fatal(err)
		}
	}
	ingest() // warm up: detector growth, scratch buffers
	avg := testing.AllocsPerRun(10, ingest)
	perEvent := avg / float64(len(tr.Events))
	if perEvent > 0.01 {
		t.Errorf("instrumented ingest allocates %.4f/event (%.0f per %d-event chunk), want amortized 0",
			perEvent, avg, len(tr.Events))
	}
}

// TestSampledStageTimingSamplesDataBlocks: a chunk that fits one block is
// one data call plus one end-of-body call. Stage timing samples every Nth
// data block, so 64 such chunks at the default period of 32 time two data
// blocks per engine, and never an end-of-body peek.
func TestSampledStageTimingSamplesDataBlocks(t *testing.T) {
	s, tc := newTestServer(t, Config{Workers: 1})
	const chunks, chunkEvents = 64, 100
	tr := gen.Random(gen.RandomConfig{Seed: 5, Events: chunks * chunkEvents, Threads: 4, Locks: 3, Vars: 5})
	id := tc.createSession(tr, "wcp,hb")
	sess := s.getSession(id)
	if sess == nil {
		t.Fatalf("session %s not found", id)
	}
	if sess.obs == nil || sess.obs.sampleNs != 32 {
		t.Fatalf("session not instrumented at the default sampling rate: %+v", sess.obs)
	}
	for off := 0; off < len(tr.Events); off += chunkEvents {
		body := traceio.AppendEvents(nil, tr.Events[off:off+chunkEvents])
		if _, _, err := sess.ingest(bytes.NewReader(body), uint64(off), "", time.Now()); err != nil {
			t.Fatal(err)
		}
	}
	const want = chunks / 32
	if got := s.obs.decode.Count(); got != want {
		t.Errorf("raced_decode_seconds has %d samples, want %d", got, want)
	}
	for _, engine := range []string{"wcp", "hb"} {
		if got := s.obs.engineHist(engine).Count(); got != want {
			t.Errorf("raced_engine_process_seconds{engine=%q} has %d samples, want %d", engine, got, want)
		}
	}
}

// benchIngestSession opens one session against s without a network listener.
func benchIngestSession(b *testing.B, s *Server, tr *trace.Trace) *session {
	b.Helper()
	var hdr bytes.Buffer
	if err := traceio.WriteHeader(&hdr, tr.Symbols, 0); err != nil {
		b.Fatal(err)
	}
	req := httptest.NewRequest("POST", "/sessions?engines=wcp", &hdr)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusCreated {
		b.Fatalf("create: %d %s", w.Code, w.Body)
	}
	var out struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
		b.Fatal(err)
	}
	sess := s.getSession(out.ID)
	if sess == nil {
		b.Fatalf("session %s not found", out.ID)
	}
	return sess
}

// BenchmarkIngestObs is the A/B overhead check for ingest-path
// observability: the same chunk ingested with stage timing disabled versus
// the default every-32nd-block sampling. scripts/perf_obs_ab.sh compares
// the two and warns above 3%.
func BenchmarkIngestObs(b *testing.B) {
	tr := gen.Random(gen.RandomConfig{Seed: 13, Events: 50000, Threads: 4, Locks: 3, Vars: 5})
	var body bytes.Buffer
	if err := traceio.EncodeEvents(&body, tr.Events); err != nil {
		b.Fatal(err)
	}
	raw := body.Bytes()
	for _, bc := range []struct {
		name   string
		sample int
	}{
		{"off", -1},
		{"sampled_32", 0}, // Config default
	} {
		b.Run(bc.name, func(b *testing.B) {
			s := New(Config{Workers: 1, QueueCap: 64, IdleTimeout: -1, ObsSampleEvery: bc.sample})
			defer func() {
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				if err := s.Close(ctx); err != nil {
					b.Error(err)
				}
			}()
			sess := benchIngestSession(b, s, tr)
			b.SetBytes(int64(len(raw)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := sess.ingest(bytes.NewReader(raw), sess.status().Events, "", time.Now()); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(tr.Events))*float64(b.N)/b.Elapsed().Seconds(), "events/s")
		})
	}
}
