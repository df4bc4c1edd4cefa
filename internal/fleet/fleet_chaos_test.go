package fleet

// Fleet chaos differentials, extending the single-node suite in
// internal/server with fleet failure modes: worker kill, heartbeat
// partition (with split-brain reconciliation after healing), and failover
// racing in-flight chunks. Every test holds the same bar: the merged fleet
// reports must match a single uninterrupted single-node run entry for
// entry, and no goroutines may leak across a full fleet teardown.
//
// The TestChaos prefix is what CI's chaos job matches (-run 'TestChaos').

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/report"
	"repro/internal/server"
	"repro/internal/trace"
)

// waitNoGoroutineLeak gives teardown stragglers (timers, settling TCP
// goroutines) a grace window, then requires the goroutine count back near
// the baseline — the same bound the server chaos suite uses.
func waitNoGoroutineLeak(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
		time.Sleep(50 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before+2 {
		t.Errorf("goroutine leak across fleet teardown: %d before, %d after", before, n)
	}
}

func labelf(format string, args ...any) string { return fmt.Sprintf(format, args...) }

func fetchReports(t *testing.T, base string) workerReports {
	t.Helper()
	var wr workerReports
	cfg := client.Config{
		BaseURL:    base,
		HTTPClient: &http.Client{Transport: &http.Transport{DisableKeepAlives: true}},
	}
	if err := client.Reports(context.Background(), cfg, "", &wr); err != nil {
		t.Fatalf("reports from %s: %v", base, err)
	}
	return wr
}

func reportIndex(entries []report.Entry) map[report.Fingerprint][2]int64 {
	m := make(map[report.Fingerprint][2]int64, len(entries))
	for _, e := range entries {
		m[e.Fingerprint] = [2]int64{e.Count, e.Traces}
	}
	return m
}

// assertFleetMatchesSingleNode replays the same traces as sessions on one
// fresh uninterrupted server and requires the fleet's merged /reports to
// agree class for class on count and trace tallies — the differential that
// catches both loss (a failover dropped observations) and double counting
// (a stale copy finalized after a split brain).
func assertFleetMatchesSingleNode(t *testing.T, fleetURL string, traces []*trace.Trace, engines []string) {
	t.Helper()
	srv := server.New(workerServerConfig())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	defer func() {
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Close(ctx)
	}()
	base := "http://" + ln.Addr().String()
	ctx := context.Background()
	for i, tr := range traces {
		ccfg := client.Config{
			BaseURL: base, Engines: engines, ChunkEvents: 1000,
			HTTPClient: &http.Client{Transport: &http.Transport{DisableKeepAlives: true}},
		}
		s, err := client.Open(ctx, ccfg, tr.Symbols)
		if err != nil {
			t.Fatalf("oracle session %d: open: %v", i, err)
		}
		if err := s.Stream(ctx, tr.Events, 0); err != nil {
			t.Fatalf("oracle session %d: stream: %v", i, err)
		}
		if _, err := s.Finish(ctx); err != nil {
			t.Fatalf("oracle session %d: finish: %v", i, err)
		}
	}

	oracle := fetchReports(t, base)
	merged := fetchReports(t, fleetURL)
	if merged.Total != oracle.Total {
		t.Errorf("fleet reports %d race classes, single-node run has %d", merged.Total, oracle.Total)
	}
	om, mm := reportIndex(oracle.Reports), reportIndex(merged.Reports)
	for fp, want := range om {
		got, ok := mm[fp]
		if !ok {
			t.Errorf("race class %+v missing from merged fleet reports", fp)
			continue
		}
		if got != want {
			t.Errorf("race class %+v: fleet count/traces %v, single-node %v — failover lost or double-counted observations", fp, got, want)
		}
	}
	for fp := range mm {
		if _, ok := om[fp]; !ok {
			t.Errorf("race class %+v in fleet reports but absent from the single-node run", fp)
		}
	}
}

// trickleStream streams the rest of the trace, from the session's ack on,
// in chunk-sized steps with pauses, holding the session in flight long
// enough for a failure to land mid-stream. FinishReplay closes the
// post-last-chunk rollback window.
func trickleStream(t *testing.T, label string, s *client.Session, cfg client.Config, tr *trace.Trace, pause time.Duration) *client.FinishResult {
	t.Helper()
	ctx := context.Background()
	for upto := int(s.Acked()); upto < len(tr.Events); {
		upto = min(upto+cfg.ChunkEvents, len(tr.Events))
		if err := s.Stream(ctx, tr.Events[:upto], 0); err != nil {
			t.Errorf("%s: stream: %v", label, err)
			return nil
		}
		time.Sleep(pause)
	}
	fin, err := s.FinishReplay(ctx, tr.Events, 0)
	if err != nil {
		t.Errorf("%s: finish: %v", label, err)
		return nil
	}
	return fin
}

// TestChaosFleetWorkerKill: concurrent trickling streams across three
// workers while one is killed outright. Streams converge with zero errors,
// per-session reports match batch analysis, and the merged store matches a
// single-node run of the same traces.
func TestChaosFleetWorkerKill(t *testing.T) {
	before := runtime.NumGoroutine()
	engines := []string{"wcp", "hb"}
	const nclients = 3
	traces := make([]*trace.Trace, nclients)
	for c := range traces {
		traces[c] = fleetTrace(c + 30)
	}
	func() {
		f := startTestFleet(t, 3, false, 0)
		defer f.stop()
		ctx := context.Background()

		cfgs := make([]client.Config, nclients)
		sessions := make([]*client.Session, nclients)
		for c := 0; c < nclients; c++ {
			cfgs[c] = fleetClientConfig(f.url, c%2 == 1)
			s, err := client.Open(ctx, cfgs[c], traces[c].Symbols)
			if err != nil {
				t.Fatalf("client %d: open: %v", c, err)
			}
			sessions[c] = s
		}
		victim := f.workerFor(sessions[0].ID())

		var wg sync.WaitGroup
		fins := make([]*client.FinishResult, nclients)
		for c := 0; c < nclients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				fins[c] = trickleStream(t, labelf("client %d", c), sessions[c], cfgs[c], traces[c], 15*time.Millisecond)
			}(c)
		}
		time.Sleep(40 * time.Millisecond) // streams live, checkpoints pulled
		victim.kill()
		wg.Wait()
		for c, fin := range fins {
			if fin == nil {
				t.Fatalf("client %d: no finish result", c)
			}
			verifyFinish(t, labelf("client %d", c), cfgs[c].Engines, traces[c], fin)
		}
		if f.co.sessionsFailed.Value() == 0 {
			t.Error("kill forced no failover; the chaos window missed")
		}
		assertFleetMatchesSingleNode(t, f.url, traces, engines)
	}()
	waitNoGoroutineLeak(t, before)
}

// TestChaosFleetPartition: a worker is severed from the network (listener
// and outbound heartbeats both blocked) long enough to be failed over, then
// healed. The rejoining worker must reconcile — abort its stale session
// copies — so the merged reports stay identical to a single-node run.
func TestChaosFleetPartition(t *testing.T) {
	before := runtime.NumGoroutine()
	engines := []string{"wcp", "hb"}
	const nclients = 3
	traces := make([]*trace.Trace, nclients)
	for c := range traces {
		traces[c] = fleetTrace(c + 40)
	}
	func() {
		f := startTestFleet(t, 3, true, 0)
		defer f.stop()
		ctx := context.Background()

		cfgs := make([]client.Config, nclients)
		sessions := make([]*client.Session, nclients)
		for c := 0; c < nclients; c++ {
			cfgs[c] = fleetClientConfig(f.url, c%2 == 0)
			s, err := client.Open(ctx, cfgs[c], traces[c].Symbols)
			if err != nil {
				t.Fatalf("client %d: open: %v", c, err)
			}
			sessions[c] = s
			if err := s.Stream(ctx, traces[c].Events[:len(traces[c].Events)/2], 0); err != nil {
				t.Fatalf("client %d: stream (pre-partition): %v", c, err)
			}
		}
		time.Sleep(3 * testPullEvery) // let checkpoints be pulled

		victim := f.workerFor(sessions[0].ID())
		victim.gate.Block()
		f.wait(func() bool {
			for _, w := range f.co.Placements() {
				if w == victim.name {
					return false
				}
			}
			return true
		}, "partitioned worker's sessions to fail over")

		victim.gate.Heal()
		// The healed worker re-registers and must abort every stale copy the
		// coordinator names; its server ends up holding nothing.
		f.wait(func() bool { return victim.srv.Stats().Sessions == 0 }, "healed worker to reconcile stale sessions")
		f.wait(func() bool { return f.healthy() == 3 }, "healed worker to rejoin the ring")

		var wg sync.WaitGroup
		fins := make([]*client.FinishResult, nclients)
		for c := 0; c < nclients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				fins[c] = trickleStream(t, labelf("client %d", c), sessions[c], cfgs[c], traces[c], time.Millisecond)
			}(c)
		}
		wg.Wait()
		for c, fin := range fins {
			if fin == nil {
				t.Fatalf("client %d: no finish result", c)
			}
			verifyFinish(t, labelf("client %d", c), cfgs[c].Engines, traces[c], fin)
		}
		// The double-count trap: had the stale copies finalized instead of
		// aborting, these classes would tally extra counts.
		assertFleetMatchesSingleNode(t, f.url, traces, engines)
	}()
	waitNoGoroutineLeak(t, before)
}

// TestChaosFleetFailoverDuringChunk: the owner dies while chunks are in
// flight and before any checkpoint was ever pulled (pulling disabled), so
// failover must re-create sessions from their retained create headers at
// offset zero and the clients must rewind and replay entire streams.
func TestChaosFleetFailoverDuringChunk(t *testing.T) {
	before := runtime.NumGoroutine()
	engines := []string{"wcp", "hb"}
	const nclients = 2
	traces := make([]*trace.Trace, nclients)
	for c := range traces {
		traces[c] = fleetTrace(c + 50)
	}
	func() {
		f := startTestFleet(t, 3, false, -1) // no checkpoint pulls
		defer f.stop()
		ctx := context.Background()

		cfgs := make([]client.Config, nclients)
		sessions := make([]*client.Session, nclients)
		for c := 0; c < nclients; c++ {
			cfgs[c] = fleetClientConfig(f.url, c%2 == 1)
			s, err := client.Open(ctx, cfgs[c], traces[c].Symbols)
			if err != nil {
				t.Fatalf("client %d: open: %v", c, err)
			}
			sessions[c] = s
		}
		victim := f.workerFor(sessions[0].ID())

		var wg sync.WaitGroup
		fins := make([]*client.FinishResult, nclients)
		for c := 0; c < nclients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				fins[c] = trickleStream(t, labelf("client %d", c), sessions[c], cfgs[c], traces[c], 20*time.Millisecond)
			}(c)
		}
		time.Sleep(30 * time.Millisecond) // chunks in flight, nothing checkpointed
		victim.kill()
		wg.Wait()
		for c, fin := range fins {
			if fin == nil {
				t.Fatalf("client %d: no finish result", c)
			}
			verifyFinish(t, labelf("client %d", c), cfgs[c].Engines, traces[c], fin)
		}
		if f.co.sessionsFailed.Value() == 0 {
			t.Error("kill forced no failover; the chaos window missed")
		}
		assertFleetMatchesSingleNode(t, f.url, traces, engines)
	}()
	waitNoGoroutineLeak(t, before)
}
