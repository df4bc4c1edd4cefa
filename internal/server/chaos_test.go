package server

import (
	"context"
	"net"
	"net/http"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/engine"
	"repro/internal/faultinject"
	"repro/internal/gen"
)

// startChaosServer runs a Server on a real TCP listener, optionally wrapped
// by a fault injector — the same wiring cmd/raced uses for -chaos, so the
// tests exercise the exact production fault surface. Returns the base URL
// and a stop func that tears down HTTP first, then drains the server.
func startChaosServer(t *testing.T, cfg Config, inj *faultinject.Injector) (*Server, string, func()) {
	t.Helper()
	s := New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	wrapped := net.Listener(ln)
	if inj != nil {
		wrapped = inj.WrapListener(ln)
	}
	hs := &http.Server{Handler: s.Handler()}
	go hs.Serve(wrapped)
	var once sync.Once
	stop := func() {
		once.Do(func() {
			hs.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := s.Close(ctx); err != nil {
				t.Errorf("Close: %v", err)
			}
		})
	}
	return s, "http://" + ln.Addr().String(), stop
}

// chaosClientConfig is tuned for hostile transports: small chunks so faults
// land mid-stream, a deep retry budget, fast backoff so tests stay quick,
// and a short per-request deadline so black-holed responses (truncate
// faults) cost little. Keep-alives are off so every request dials a fresh
// connection and draws a fresh fault plan — with pooling, three clients
// would share three long-lived conns and most of the fault schedule would
// never roll.
func chaosClientConfig(base string) client.Config {
	return client.Config{
		BaseURL:        base,
		Engines:        []string{"wcp", "hb"},
		HTTPClient:     &http.Client{Transport: &http.Transport{DisableKeepAlives: true}},
		ChunkEvents:    400,
		RetryBudget:    100,
		BaseBackoff:    time.Millisecond,
		MaxBackoff:     50 * time.Millisecond,
		RequestTimeout: 2 * time.Second,
	}
}

// chaosDifferential drives nclients concurrent resilient clients through a
// fault-injected server and requires every final report to be
// byte-identical to an uninterrupted batch analysis of the same trace —
// the acceptance bar for the whole fault-tolerance stack.
func chaosDifferential(t *testing.T, cfg Config, inj *faultinject.Injector, nclients int) {
	t.Helper()
	_, base, stop := startChaosServer(t, cfg, inj)
	defer stop()

	var wg sync.WaitGroup
	for c := 0; c < nclients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tr := gen.Random(gen.RandomConfig{
				Seed: int64(300 + c), Events: 3000 + 500*c, Threads: 3 + c%3, Locks: 2, Vars: 4,
			})
			ctx := context.Background()
			ccfg := chaosClientConfig(base)
			sess, err := client.Open(ctx, ccfg, tr.Symbols)
			if err != nil {
				t.Errorf("client %d: open: %v", c, err)
				return
			}
			if err := sess.Stream(ctx, tr.Events, 0); err != nil {
				t.Errorf("client %d: stream: %v", c, err)
				return
			}
			fin, err := sess.Finish(ctx)
			if err != nil {
				t.Errorf("client %d: finish: %v", c, err)
				return
			}
			if fin.Events != uint64(len(tr.Events)) {
				t.Errorf("client %d: session saw %d events, want %d", c, fin.Events, len(tr.Events))
				return
			}
			for i, name := range ccfg.Engines {
				want := engine.MustNew(name, engine.Config{}).Analyze(tr)
				got := fin.Results[i]
				if got.Distinct != want.Distinct() || got.RacyEvents != want.RacyEvents {
					t.Errorf("client %d %s: distinct=%d racy=%d, want distinct=%d racy=%d",
						c, name, got.Distinct, got.RacyEvents, want.Distinct(), want.RacyEvents)
				}
				if wantReport := want.Report.Format(tr.Symbols); got.Report != wantReport {
					t.Errorf("client %d %s: report under faults differs from batch analysis:\n%s\n--- want ---\n%s",
						c, name, got.Report, wantReport)
				}
			}
		}(c)
	}
	wg.Wait()
}

func baseChaosConfig() Config {
	return Config{Workers: 4, QueueCap: 256, IdleTimeout: -1}
}

func TestChaosDrops(t *testing.T) {
	inj := faultinject.New(faultinject.Options{DropProb: 0.4, MaxOffset: 4 << 10, Seed: 1})
	chaosDifferential(t, baseChaosConfig(), inj, 3)
	if inj.Counters.Drops.Load() == 0 {
		t.Error("drop fault never fired; the test exercised nothing")
	}
}

func TestChaosBitFlips(t *testing.T) {
	inj := faultinject.New(faultinject.Options{FlipProb: 0.4, MaxOffset: 8 << 10, Seed: 2})
	chaosDifferential(t, baseChaosConfig(), inj, 3)
	if inj.Counters.BitFlips.Load() == 0 {
		t.Error("bit-flip fault never fired; the test exercised nothing")
	}
}

func TestChaosTruncates(t *testing.T) {
	inj := faultinject.New(faultinject.Options{TruncProb: 0.4, MaxOffset: 4 << 10, Seed: 3})
	chaosDifferential(t, baseChaosConfig(), inj, 3)
	if inj.Counters.Truncates.Load() == 0 {
		t.Error("truncate fault never fired; the test exercised nothing")
	}
}

func TestChaosStalls(t *testing.T) {
	inj := faultinject.New(faultinject.Options{
		StallProb: 0.5, StallFor: 5 * time.Millisecond, MaxOffset: 8 << 10, Seed: 4,
	})
	chaosDifferential(t, baseChaosConfig(), inj, 3)
	if inj.Counters.Stalls.Load() == 0 {
		t.Error("stall fault never fired; the test exercised nothing")
	}
}

// TestChaosMixed is the everything-at-once run: drops, truncations,
// stalls, bit flips and per-read latency on every connection, plus a
// goroutine-leak check once the server is fully stopped.
func TestChaosMixed(t *testing.T) {
	before := runtime.NumGoroutine()
	inj := faultinject.New(faultinject.Options{
		DropProb: 0.15, TruncProb: 0.1, StallProb: 0.2, FlipProb: 0.15,
		StallFor: 5 * time.Millisecond, Latency: 100 * time.Microsecond,
		MaxOffset: 16 << 10, Seed: 5,
	})
	srv, base, stop := startChaosServer(t, baseChaosConfig(), inj)
	_ = srv
	func() {
		defer stop()
		var wg sync.WaitGroup
		for c := 0; c < 4; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				tr := gen.Random(gen.RandomConfig{
					Seed: int64(400 + c), Events: 2500, Threads: 4, Locks: 3, Vars: 5,
				})
				ctx := context.Background()
				ccfg := chaosClientConfig(base)
				sess, err := client.Open(ctx, ccfg, tr.Symbols)
				if err != nil {
					t.Errorf("client %d: open: %v", c, err)
					return
				}
				if err := sess.Stream(ctx, tr.Events, 0); err != nil {
					t.Errorf("client %d: stream: %v", c, err)
					return
				}
				fin, err := sess.Finish(ctx)
				if err != nil {
					t.Errorf("client %d: finish: %v", c, err)
					return
				}
				for i, name := range ccfg.Engines {
					want := engine.MustNew(name, engine.Config{}).Analyze(tr)
					if wantReport := want.Report.Format(tr.Symbols); fin.Results[i].Report != wantReport {
						t.Errorf("client %d %s: report under mixed faults differs from batch analysis", c, name)
					}
				}
			}(c)
		}
		wg.Wait()
	}()
	if inj.Counters.Total() == 0 {
		t.Error("no fault ever fired under the mixed plan")
	}
	// Every connection goroutine, scheduler worker and pressure loop must
	// be gone; stalled conns may take a beat to unwind.
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before+2 {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines: %d before, %d after shutdown\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestChaosUnderMemoryPressure layers the mixed fault plan on top of a
// tiny global state budget, so sessions are force-compacted and parked to
// disk mid-stream while their clients are actively retrying — and every
// report must still match the batch run.
func TestChaosUnderMemoryPressure(t *testing.T) {
	inj := faultinject.New(faultinject.Options{
		DropProb: 0.15, StallProb: 0.15, FlipProb: 0.1,
		StallFor: 5 * time.Millisecond, MaxOffset: 16 << 10, Seed: 6,
	})
	cfg := baseChaosConfig()
	cfg.StateBudgetBytes = 1 // park everything the loop can reach
	cfg.CheckpointDir = t.TempDir()
	cfg.CheckpointEvery = -1
	chaosDifferential(t, cfg, inj, 3)
}

// TestChaosServerCrashRestart is the end-to-end kill -9 differential: the
// client streams through a fault-free server that dies without any
// shutdown path, a new process on the same checkpoint directory takes over
// the same address, and the SAME client session object converges via the
// gap-rewind protocol (its local ack is ahead of the restored server's) to
// a report identical to an uninterrupted run.
func TestChaosServerCrashRestart(t *testing.T) {
	dir := t.TempDir()
	tr := gen.Random(gen.RandomConfig{Seed: 55, Events: 10000, Threads: 4, Locks: 3, Vars: 5})

	s1 := New(durableConfig(dir))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	hs1 := &http.Server{Handler: s1.Handler()}
	go hs1.Serve(ln)
	defer func() {
		// s1 was "killed", not closed; drain it at the very end so its
		// goroutines don't trip other tests' leak checks.
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s1.Close(ctx)
	}()

	ctx := context.Background()
	ccfg := chaosClientConfig("http://" + addr)
	sess, err := client.Open(ctx, ccfg, tr.Symbols)
	if err != nil {
		t.Fatal(err)
	}
	// Stream 60%, checkpoint, stream 20% more. The post-checkpoint events
	// are acknowledged to the client but die with the process.
	cut := len(tr.Events) * 6 / 10
	if err := sess.Stream(ctx, tr.Events[:cut], 0); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ccfg.BaseURL+"/checkpoint", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("checkpoint: %d", resp.StatusCode)
	}
	if err := sess.Stream(ctx, tr.Events[:len(tr.Events)*8/10], 0); err != nil {
		t.Fatal(err)
	}

	// kill -9: all conns and the listener die, no drain, no checkpoint.
	hs1.Close()

	// A new process takes over the same address and checkpoint directory.
	var ln2 net.Listener
	for i := 0; ; i++ {
		if ln2, err = net.Listen("tcp", addr); err == nil {
			break
		}
		if i > 100 {
			t.Fatalf("rebind %s: %v", addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	s2 := New(durableConfig(dir))
	hs2 := &http.Server{Handler: s2.Handler()}
	go hs2.Serve(ln2)
	defer func() {
		hs2.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s2.Close(ctx); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()

	// The client never learned about the crash: its ack (80%) is ahead of
	// the restored server's (60%). Its next chunk is refused as a gap with
	// the authoritative ack, it rewinds, and the stream converges.
	if err := sess.Stream(ctx, tr.Events, 0); err != nil {
		t.Fatal(err)
	}
	fin, err := sess.Finish(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if fin.Events != uint64(len(tr.Events)) {
		t.Fatalf("recovered session saw %d events, want %d", fin.Events, len(tr.Events))
	}
	for i, name := range ccfg.Engines {
		want := engine.MustNew(name, engine.Config{}).Analyze(tr)
		if wantReport := want.Report.Format(tr.Symbols); fin.Results[i].Report != wantReport {
			t.Errorf("%s report after crash+restart differs from batch analysis:\n%s\n--- want ---\n%s",
				name, fin.Results[i].Report, wantReport)
		}
	}
}
