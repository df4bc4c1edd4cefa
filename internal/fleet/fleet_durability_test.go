package fleet

// Coordinator recovery and fencing chaos differentials. A coordinator keeps
// no durable state: after a restart and after a warm standby's takeover
// alike it rebuilds placements from worker re-registration, and both hold
// the suite's standing bar — zero client-visible errors and final reports
// byte-identical to an uninterrupted single-node run — plus the fencing
// invariant: once a successor's epoch reaches the workers, not one write
// from the superseded coordinator is accepted.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/trace"
)

// chunkAckClock wraps a client transport and stamps the first chunk the
// coordinator at host acknowledges once armed: the recovery-time probe of
// the restart differential. Chunks a placement-following client sends
// straight to a worker do not count.
type chunkAckClock struct {
	next  http.RoundTripper
	host  string
	armed atomic.Bool
	first atomic.Int64 // unix nanoseconds; 0 until the first ack
}

func (a *chunkAckClock) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := a.next.RoundTrip(r)
	if err == nil && resp.StatusCode == http.StatusOK && a.armed.Load() &&
		r.URL.Host == a.host && strings.HasSuffix(r.URL.Path, "/chunks") {
		a.first.CompareAndSwap(0, time.Now().UnixNano())
	}
	return resp, err
}

// TestChaosFleetCoordinatorRestart: the coordinator is killed mid-stream
// and a fresh one started on the same address. A coordinator keeps no
// durable state, so the successor must rebuild every placement from the
// workers' re-register session reports inside the recovery grace window
// and raise its epoch above the fence they report — with zero
// client-visible errors. Two kill points: after checkpoint pulls landed,
// with the address left dead for a while, and straight into a restart.
func TestChaosFleetCoordinatorRestart(t *testing.T) {
	for _, tc := range []struct {
		name      string
		seed      int
		pre       func(n int) int // events streamed before the kill
		settle    time.Duration   // pause before the kill: lets checkpoint pulls land
		down      time.Duration   // how long the address stays dead
		followOdd bool            // odd clients follow placement (else even ones)
	}{
		{"after-pulls", 60, func(n int) int { return n * 4 / 10 }, 3 * testPullEvery, 50 * time.Millisecond, true},
		{"mid-stream", 70, func(n int) int { return n / 2 }, 0, 0, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			engines := []string{"wcp", "hb"}
			const nclients = 3
			traces := make([]*trace.Trace, nclients)
			for c := range traces {
				traces[c] = fleetTrace(c + tc.seed)
			}
			func() {
				f := startTestFleetOpts(t, fleetOpts{workers: 3})
				defer f.stop()
				ctx := context.Background()
				clock := &chunkAckClock{next: &http.Transport{DisableKeepAlives: true}, host: f.coAddr}

				cfgs := make([]client.Config, nclients)
				sessions := make([]*client.Session, nclients)
				for c := 0; c < nclients; c++ {
					cfgs[c] = fleetClientConfig(f.url, (c%2 == 1) == tc.followOdd)
					cfgs[c].HTTPClient = &http.Client{Transport: clock}
					s, err := client.Open(ctx, cfgs[c], traces[c].Symbols)
					if err != nil {
						t.Fatalf("client %d: open: %v", c, err)
					}
					sessions[c] = s
					if err := s.Stream(ctx, traces[c].Events[:tc.pre(len(traces[c].Events))], 0); err != nil {
						t.Fatalf("client %d: stream (pre-kill): %v", c, err)
					}
				}
				time.Sleep(tc.settle)

				var wg sync.WaitGroup
				fins := make([]*client.FinishResult, nclients)
				for c := 0; c < nclients; c++ {
					wg.Add(1)
					go func(c int) {
						defer wg.Done()
						fins[c] = trickleStream(t, labelf("client %d", c), sessions[c], cfgs[c], traces[c], 15*time.Millisecond)
					}(c)
				}
				time.Sleep(30 * time.Millisecond) // chunks in flight
				killed := time.Now()
				f.killCoordinator()
				time.Sleep(tc.down) // let retries hit the dead address
				clock.armed.Store(true)
				f.restartCoordinator()
				wg.Wait()
				for c, fin := range fins {
					if fin == nil {
						t.Fatalf("client %d: no finish result", c)
					}
					verifyFinish(t, labelf("client %d", c), cfgs[c].Engines, traces[c], fin)
				}
				if at := clock.first.Load(); at != 0 {
					t.Logf("recovery: %v from coordinator kill to the first chunk acknowledged through its successor",
						time.Unix(0, at).Sub(killed).Round(100*time.Microsecond))
				}
				if f.co.sessionsAdopted.Value() == 0 {
					t.Error("no sessions adopted from worker reports; reconstruction was not exercised")
				}
				if got := f.co.epoch.Load(); got < 2 {
					t.Errorf("restarted coordinator epoch = %d, want >= 2 (every incarnation fences its predecessor)", got)
				}
				assertFleetMatchesSingleNode(t, f.url, traces, engines)
			}()
			waitNoGoroutineLeak(t, before)
		})
	}
}

// TestChaosFleetCoordinatorRestartParkedSession: one worker under an
// impossible state budget parks the colder of two client sessions to its
// checkpoint file. The coordinator restarts and rebuilds its placements
// from the worker's re-registration, which must report the parked session
// as well as the resident one; both sessions then finish byte-identical to
// batch.
func TestChaosFleetCoordinatorRestartParkedSession(t *testing.T) {
	before := runtime.NumGoroutine()
	traces := []*trace.Trace{fleetTrace(90), fleetTrace(91)}
	func() {
		f := startTestFleetOpts(t, fleetOpts{workers: 1, workerCfg: func(c *server.Config) {
			c.CheckpointDir = t.TempDir()
			c.CheckpointEvery = -1
			c.StateBudgetBytes = 1 // park every session but the most recently active
		}})
		defer f.stop()
		ctx := context.Background()
		cfgs := make([]client.Config, len(traces))
		sessions := make([]*client.Session, len(traces))
		for c, tr := range traces {
			cfgs[c] = fleetClientConfig(f.url, false)
			s, err := client.Open(ctx, cfgs[c], tr.Symbols)
			if err != nil {
				t.Fatalf("client %d: open: %v", c, err)
			}
			sessions[c] = s
			if err := s.Stream(ctx, tr.Events[:len(tr.Events)/2], 0); err != nil {
				t.Fatalf("client %d: stream (pre-restart): %v", c, err)
			}
		}
		w := f.workers[0]
		f.wait(func() bool { return workerCounter(t, w.url, "raced_sessions_pressure_parked_total") > 0 },
			"a parked session on the worker")

		f.killCoordinator()
		f.restartCoordinator()
		var wg sync.WaitGroup
		fins := make([]*client.FinishResult, len(traces))
		for c := range traces {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				fins[c] = trickleStream(t, labelf("client %d", c), sessions[c], cfgs[c], traces[c], 0)
			}(c)
		}
		wg.Wait()
		for c, fin := range fins {
			if fin == nil {
				t.Fatalf("client %d: no finish result", c)
			}
			verifyFinish(t, labelf("client %d", c), cfgs[c].Engines, traces[c], fin)
		}
		if got := f.co.sessionsAdopted.Value(); got != uint64(len(traces)) {
			t.Errorf("restarted coordinator adopted %d sessions, want %d", got, len(traces))
		}
	}()
	waitNoGoroutineLeak(t, before)
}

// workerCounter reads one unlabeled series from a worker's /metrics.
func workerCounter(t *testing.T, base, name string) float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			n, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return n
		}
	}
	t.Fatalf("worker does not export %s", name)
	return 0
}

// TestChaosFleetStandbyTakeover: a warm standby leases the primary and the
// workers heartbeat both coordinators. The primary is killed mid-stream;
// the standby must take over within the lease and adopt the sessions the
// re-registering workers report, and clients configured with the
// coordinator list must converge on it with zero visible errors and
// byte-identical reports.
func TestChaosFleetStandbyTakeover(t *testing.T) {
	before := runtime.NumGoroutine()
	engines := []string{"wcp", "hb"}
	const nclients = 3
	traces := make([]*trace.Trace, nclients)
	for c := range traces {
		traces[c] = fleetTrace(c + 80)
	}
	func() {
		f := startTestFleetOpts(t, fleetOpts{
			workers: 3, standby: true, leaseTimeout: 300 * time.Millisecond,
		})
		defer f.stop()
		ctx := context.Background()

		cfgs := make([]client.Config, nclients)
		sessions := make([]*client.Session, nclients)
		for c := 0; c < nclients; c++ {
			cfgs[c] = fleetClientConfig(f.clientBase(), c%2 == 1)
			s, err := client.Open(ctx, cfgs[c], traces[c].Symbols)
			if err != nil {
				t.Fatalf("client %d: open: %v", c, err)
			}
			sessions[c] = s
			if err := s.Stream(ctx, traces[c].Events[:len(traces[c].Events)*4/10], 0); err != nil {
				t.Fatalf("client %d: stream (pre-kill): %v", c, err)
			}
		}
		time.Sleep(3 * testPullEvery)

		oldEpoch := f.co.epoch.Load()
		var wg sync.WaitGroup
		fins := make([]*client.FinishResult, nclients)
		for c := 0; c < nclients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				fins[c] = trickleStream(t, labelf("client %d", c), sessions[c], cfgs[c], traces[c], 15*time.Millisecond)
			}(c)
		}
		time.Sleep(30 * time.Millisecond)
		f.killCoordinator()
		f.wait(func() bool { return !f.standby.standbyMode.Load() }, "standby takeover")
		wg.Wait()
		for c, fin := range fins {
			if fin == nil {
				t.Fatalf("client %d: no finish result", c)
			}
			verifyFinish(t, labelf("client %d", c), cfgs[c].Engines, traces[c], fin)
		}
		if got := f.standby.takeovers.Value(); got != 1 {
			t.Errorf("standby recorded %d takeovers, want 1", got)
		}
		if got := f.standby.epoch.Load(); got <= oldEpoch {
			t.Errorf("takeover epoch = %d, want > primary's %d", got, oldEpoch)
		}
		if f.standby.sessionsAdopted.Value() == 0 {
			t.Error("promoted standby adopted no sessions from worker re-registrations")
		}
		assertFleetMatchesSingleNode(t, f.standbyURL, traces, engines)
	}()
	waitNoGoroutineLeak(t, before)
}

// TestChaosFleetFencing: the standby is partitioned from the primary (but
// not from the workers), takes over, and raises the fleet's epoch — while
// the old primary stays alive and believes it leads. When the zombie then
// tries to place a session, every worker must answer 412, the write must
// not land anywhere, and the zombie must fence itself (session API 503)
// from that moment on.
func TestChaosFleetFencing(t *testing.T) {
	before := runtime.NumGoroutine()
	engines := []string{"wcp", "hb"}
	const nclients = 2
	traces := make([]*trace.Trace, nclients)
	for c := range traces {
		traces[c] = fleetTrace(c + 90)
	}
	func() {
		f := startTestFleetOpts(t, fleetOpts{
			workers: 2, standby: true, standbyGated: true,
			pullEvery:    -1, // no pulls: the zombie's first post-fence write is our probe
			leaseTimeout: 300 * time.Millisecond,
		})
		defer f.stop()
		ctx := context.Background()

		cfgs := make([]client.Config, nclients)
		sessions := make([]*client.Session, nclients)
		for c := 0; c < nclients; c++ {
			cfgs[c] = fleetClientConfig(f.clientBase(), false)
			s, err := client.Open(ctx, cfgs[c], traces[c].Symbols)
			if err != nil {
				t.Fatalf("client %d: open: %v", c, err)
			}
			sessions[c] = s
			if err := s.Stream(ctx, traces[c].Events[:len(traces[c].Events)/2], 0); err != nil {
				t.Fatalf("client %d: stream: %v", c, err)
			}
		}
		oldEpoch := f.co.epoch.Load()
		sessionsBefore := 0
		for _, w := range f.workers {
			sessionsBefore += w.srv.Stats().Sessions
		}

		// Partition the coordinators from each other only: the standby's
		// lease polls fail, the primary keeps running — the classic
		// split-brain that fencing exists to make harmless.
		f.standbyGate.Block()
		f.wait(func() bool { return !f.standby.standbyMode.Load() }, "partitioned standby takeover")
		f.standbyGate.Heal()
		newEpoch := f.standby.epoch.Load()
		if newEpoch <= oldEpoch {
			t.Fatalf("takeover epoch %d did not pass the primary's %d", newEpoch, oldEpoch)
		}
		// Workers learn the new epoch when they re-register with the
		// promoted standby; the probe is only meaningful once every fence is
		// raised.
		f.wait(func() bool {
			for _, w := range f.workers {
				if w.srv.CoordinatorEpoch() < newEpoch {
					return false
				}
			}
			return true
		}, "workers to raise their epoch fence")

		// The zombie wakes and tries to place a session. Every worker it
		// asks must answer 412 — the create is proxied through unchanged.
		resp, err := http.Post(f.url+"/sessions", "application/octet-stream", strings.NewReader("hdr"))
		if err != nil {
			t.Fatalf("zombie create: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusPreconditionFailed {
			t.Fatalf("zombie create: status %d, want 412 from the worker fence", resp.StatusCode)
		}
		sessionsAfter := 0
		for _, w := range f.workers {
			sessionsAfter += w.srv.Stats().Sessions
		}
		if sessionsAfter != sessionsBefore {
			t.Errorf("zombie write landed: worker sessions %d -> %d", sessionsBefore, sessionsAfter)
		}
		if !f.co.fenced.Load() {
			t.Error("old primary did not fence itself after the 412")
		}
		if f.co.epochRejects.Value() == 0 {
			t.Error("old primary counted no epoch rejects")
		}

		// From here on the zombie refuses the session API outright.
		resp, err = http.Post(f.url+"/sessions", "application/octet-stream", strings.NewReader("hdr"))
		if err != nil {
			t.Fatalf("post-fence create: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("post-fence create: status %d, want 503 (fenced)", resp.StatusCode)
		}
		hz, err := http.Get(f.url + "/healthz")
		if err != nil {
			t.Fatalf("healthz: %v", err)
		}
		var hzBody struct {
			Status string `json:"status"`
		}
		json.NewDecoder(hz.Body).Decode(&hzBody)
		hz.Body.Close()
		if hz.StatusCode != http.StatusServiceUnavailable || hzBody.Status != "fenced" {
			t.Errorf("zombie healthz = %d %q, want 503 \"fenced\"", hz.StatusCode, hzBody.Status)
		}

		// Clients carry on through the live coordinator: the fenced 503
		// rotates them, the streams complete, and the reports are exact.
		for c, s := range sessions {
			fin := trickleStream(t, labelf("client %d", c), s, cfgs[c], traces[c], time.Millisecond)
			if fin == nil {
				t.Fatalf("client %d: no finish result", c)
			}
			verifyFinish(t, labelf("client %d", c), cfgs[c].Engines, traces[c], fin)
		}
		if f.standby.sessionsAdopted.Value() == 0 {
			t.Error("promoted standby adopted no sessions from worker re-registrations")
		}
		assertFleetMatchesSingleNode(t, f.standbyURL, traces, engines)
	}()
	waitNoGoroutineLeak(t, before)
}

// TestStandbyTakeoverOutranksReportedFences: a standby tracks the fences
// its workers report on registers and heartbeats, so its takeover epoch
// outranks a primary that has been restarted (and so raised the fleet's
// epoch) even before any worker re-registers with the promoted standby.
func TestStandbyTakeoverOutranksReportedFences(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close() // the primary: every lease poll fails
	co := NewCoordinator(CoordinatorConfig{
		HeartbeatTimeout: time.Hour,
		PullEvery:        -1,
		StandbyOf:        dead.URL,
		LeaseTimeout:     300 * time.Millisecond,
		Logger:           testLogger(t),
	})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		co.Close(ctx)
	}()
	srv := httptest.NewServer(co.Handler())
	defer srv.Close()
	for _, step := range []struct {
		path  string
		epoch uint64
	}{{"/fleet/register", 3}, {"/fleet/heartbeat", 5}} {
		body, _ := json.Marshal(registerRequest{Name: "w0", URL: "http://127.0.0.1:1", Epoch: step.epoch})
		resp, err := http.Post(srv.URL+step.path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("%s: %v", step.path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", step.path, resp.StatusCode)
		}
	}
	if !co.standbyMode.Load() {
		t.Fatal("standby took over before the worker reports landed")
	}
	deadline := time.Now().Add(10 * time.Second)
	for co.standbyMode.Load() && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := co.epoch.Load(); got != 6 {
		t.Errorf("takeover epoch = %d, want 6: one past the highest fence reported while standby", got)
	}
}

// TestFleetFinishReplayAfterRecovery: a finish replayed after the
// coordinator that proxied it is gone — restarted in place, or replaced by
// its promoted standby — must still get the first reply byte for byte. The
// successor holds neither the placement nor the cached reply: it defers the
// replay with 503 + Retry-After while workers re-register, then finds the
// reply in the cache of the worker that sealed the session.
func TestFleetFinishReplayAfterRecovery(t *testing.T) {
	for _, tc := range []struct {
		name     string
		takeover bool
	}{{"restart", false}, {"takeover", true}} {
		t.Run(tc.name, func(t *testing.T) {
			f := startTestFleetOpts(t, fleetOpts{workers: 2, standby: tc.takeover, leaseTimeout: 300 * time.Millisecond})
			defer f.stop()
			ctx := context.Background()
			tr := fleetTrace(95)
			s, err := client.Open(ctx, fleetClientConfig(f.url, false), tr.Symbols)
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			if err := s.Stream(ctx, tr.Events, 0); err != nil {
				t.Fatalf("stream: %v", err)
			}
			hc := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
			finish := func(base string) (status int, retryAfter string, body []byte) {
				req, err := http.NewRequest("POST", base+"/sessions/"+s.ID()+"/finish", nil)
				if err != nil {
					t.Fatal(err)
				}
				req.Header.Set("X-Raced-Offset", strconv.FormatUint(s.Acked(), 10))
				resp, err := hc.Do(req)
				if err != nil {
					t.Fatalf("finish via %s: %v", base, err)
				}
				defer resp.Body.Close()
				body, err = io.ReadAll(resp.Body)
				if err != nil {
					t.Fatalf("finish via %s: %v", base, err)
				}
				return resp.StatusCode, resp.Header.Get("Retry-After"), body
			}
			status, _, first := finish(f.url)
			if status != http.StatusOK {
				t.Fatalf("finish: status %d: %s", status, first)
			}

			f.killCoordinator()
			successor := f.url
			if tc.takeover {
				f.wait(func() bool { return !f.standby.standbyMode.Load() }, "standby takeover")
				successor = f.standbyURL
			} else {
				f.restartCoordinator()
			}
			if status, retry, body := finish(successor); status != http.StatusServiceUnavailable || retry == "" {
				t.Errorf("finish replayed inside the grace window: status %d Retry-After %q (%s), want 503 with a Retry-After",
					status, retry, body)
			}
			var replay []byte
			f.wait(func() bool {
				status, _, replay = finish(successor)
				return status != http.StatusServiceUnavailable
			}, "the grace window to close")
			if status != http.StatusOK || !bytes.Equal(replay, first) {
				t.Errorf("replayed finish: status %d body\n%s\nwant 200 with the first reply\n%s", status, replay, first)
			}
		})
	}
}

// TestFleetStandbyTakeoverAtDefaults: a client at its default retry budget
// and backoff rides through a standby takeover at the coordinator defaults,
// where the lease (3x the 3 s heartbeat timeout) outlasts the budget if
// every attempt alternates between the dead primary's refusal and a
// standby 503 carrying "Retry-After: 1". The standby's lease-derived
// Retry-After lets one attempt wait out the takeover. Takes ~15 s.
func TestFleetStandbyTakeoverAtDefaults(t *testing.T) {
	f := startTestFleetOpts(t, fleetOpts{workers: 2, standby: true, defaults: true})
	defer f.stop()
	ctx := context.Background()
	tr := gen.Random(gen.RandomConfig{Seed: 97, Events: 40000, Threads: 4, Locks: 2, Vars: 4})
	cfg := client.Config{BaseURL: f.clientBase(), Engines: []string{"wcp", "hb"}}
	s, err := client.Open(ctx, cfg, tr.Symbols)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if err := s.Stream(ctx, tr.Events[:len(tr.Events)/2], 0); err != nil {
		t.Fatalf("stream (pre-kill): %v", err)
	}
	f.killCoordinator()
	killed := time.Now()
	if err := s.Stream(ctx, tr.Events, 0); err != nil {
		t.Fatalf("stream through the takeover: %v", err)
	}
	t.Logf("stream completed %v after the primary's death", time.Since(killed).Round(time.Millisecond))
	fin, err := s.FinishReplay(ctx, tr.Events, 0)
	if err != nil {
		t.Fatalf("finish: %v", err)
	}
	verifyFinish(t, "default client", cfg.Engines, tr, fin)
	if got := f.standby.takeovers.Value(); got != 1 {
		t.Errorf("standby recorded %d takeovers, want 1", got)
	}
}

// TestCoordinatorFinishedCacheBounds pins the finished-reply cache's two
// bounds: entry-count eviction on insert and TTL expiry from the monitor
// loop, both counted on fleet_finished_cache_evictions_total.
func TestCoordinatorFinishedCacheBounds(t *testing.T) {
	co := NewCoordinator(CoordinatorConfig{
		HeartbeatTimeout: time.Hour,
		PullEvery:        -1,
		Logger:           testLogger(t),
	})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		co.Close(ctx)
	}()
	const n = finishedCacheCap + 2
	for i := 0; i < n; i++ {
		co.rememberFinished(fmt.Sprintf("s%d", i), []byte(fmt.Sprintf("reply-%d", i)))
	}
	for _, gone := range []string{"s0", "s1"} {
		if _, ok := co.recallFinished(gone); ok {
			t.Errorf("entry %s survived past the cap of %d", gone, finishedCacheCap)
		}
	}
	for _, kept := range []string{"s2", "s3", fmt.Sprintf("s%d", n-1)} {
		if _, ok := co.recallFinished(kept); !ok {
			t.Errorf("entry %s evicted while within the cap", kept)
		}
	}
	if got := co.finEvictions.Value(); got != 2 {
		t.Errorf("capacity evictions = %d, want 2", got)
	}
	co.expireFinished(time.Now().Add(finishedTTL / 2))
	if got := co.finEvictions.Value(); got != 2 {
		t.Errorf("evictions within the TTL = %d, want 2", got)
	}
	co.expireFinished(time.Now().Add(finishedTTL + time.Second))
	if _, ok := co.recallFinished(fmt.Sprintf("s%d", n-1)); ok {
		t.Error("the newest entry survived past the TTL")
	}
	if got := co.finEvictions.Value(); got != n {
		t.Errorf("total evictions = %d, want %d (2 capacity + %d TTL)", got, n, finishedCacheCap)
	}
}

// dropFirstListener closes the first accepted connection before a byte is
// served — the shape of a single dropped SYN/RST during a worker GC pause.
type dropFirstListener struct {
	net.Listener
	dropped atomic.Bool
}

func (l *dropFirstListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil && !l.dropped.Swap(true) {
		c.Close()
		return l.Accept()
	}
	return c, err
}

// TestCoordinatorForwardRetry pins the forward path's single jittered
// retry: one transient connection failure must not surface to the caller
// (or start the suspect clock), and must be counted.
func TestCoordinatorForwardRetry(t *testing.T) {
	co := NewCoordinator(CoordinatorConfig{
		HeartbeatTimeout: time.Hour,
		PullEvery:        -1,
		Logger:           testLogger(t),
	})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		co.Close(ctx)
	}()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /ping", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("pong"))
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: mux}
	go hs.Serve(&dropFirstListener{Listener: ln})
	defer hs.Close()

	pr, err := co.forward(context.Background(), "GET", "http://"+ln.Addr().String()+"/ping", nil, nil)
	if err != nil {
		t.Fatalf("forward with one dropped connection: %v", err)
	}
	if pr.status != http.StatusOK || string(pr.body) != "pong" {
		t.Fatalf("forward: status %d body %q", pr.status, pr.body)
	}
	if got := co.forwardRetries.Value(); got != 1 {
		t.Errorf("forward retries = %d, want exactly 1", got)
	}
}

// fleetGoldenFamilies is the fleet_* exposition contract, the coordinator
// counterpart of the server's goldenFamilies list: smoke scripts and
// dashboards scrape these names.
var fleetGoldenFamilies = []string{
	"fleet_proxied_requests_total",
	"fleet_sessions_created_total",
	"fleet_sessions_finished_total",
	"fleet_admission_shed_total",
	"fleet_worker_failovers_total",
	"fleet_sessions_failed_over_total",
	"fleet_sessions_migrated_total",
	"fleet_sessions_lost_total",
	"fleet_sessions_adopted_total",
	"fleet_checkpoint_pulls_total",
	"fleet_checkpoint_pull_failures_total",
	"fleet_report_merges_total",
	"fleet_finished_cache_evictions_total",
	"fleet_forward_retries_total",
	"fleet_epoch_rejects_total",
	"fleet_standby_takeovers_total",
	"fleet_proxy_seconds",
	"fleet_workers",
	"fleet_workers_healthy",
	"fleet_workers_state",
	"fleet_sessions_placed",
	"fleet_pending_failovers",
	"fleet_pending_migrations",
	"fleet_uptime_seconds",
	"fleet_coordinator_epoch",
	"fleet_coordinator_standby",
}

// TestFleetMetricsGoldenFamilies re-parses the coordinator's own exposition
// and requires every golden fleet_* family present, with the fencing gauges
// carrying live values (epoch 1 on a fresh coordinator).
func TestFleetMetricsGoldenFamilies(t *testing.T) {
	co := NewCoordinator(CoordinatorConfig{
		HeartbeatTimeout: time.Hour,
		PullEvery:        -1,
		Logger:           testLogger(t),
	})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		co.Close(ctx)
	}()
	var buf bytes.Buffer
	co.reg.WritePrometheus(&buf)
	fams, err := obs.ParseExposition(buf.Bytes())
	if err != nil {
		t.Fatalf("coordinator exposition does not parse: %v\n%s", err, buf.Bytes())
	}
	present := make(map[string]bool, len(fams))
	for _, fam := range fams {
		present[fam.Name] = true
	}
	for _, name := range fleetGoldenFamilies {
		if !present[name] {
			t.Errorf("golden family %s missing from the coordinator exposition", name)
		}
	}
	if !strings.Contains(buf.String(), "fleet_coordinator_epoch 1") {
		t.Errorf("fleet_coordinator_epoch should be 1 on a fresh coordinator:\n%s", buf.String())
	}
}
