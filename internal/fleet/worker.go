package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync/atomic"
	"time"
)

// AgentConfig wires a worker-side Agent to its coordinator(s) and to the
// local server. The hooks are funcs rather than an interface so tests can
// run agents against stub servers.
type AgentConfig struct {
	// Coordinator is the coordinator base URL, or a comma-separated list
	// (primary plus warm standbys). The agent registers and heartbeats
	// with every address — after a takeover the promoted standby answers
	// the next heartbeat 404 and the agent re-registers with its session
	// report, and the fleet's fencing epoch reaches this worker no matter
	// which coordinator currently leads.
	Coordinator string
	// Advertise is the base URL the coordinator should dial for this worker.
	Advertise string
	// Name is the worker's stable identity; defaults to Advertise.
	Name string
	// Every is the heartbeat cadence; the coordinator's register response
	// overrides it. Defaults to 1 second.
	Every time.Duration
	// Load snapshots the local server's load for heartbeats.
	Load func() WorkerLoad
	// Sessions lists the local server's open session ids, sent on register
	// for adoption and stale-copy reconciliation.
	Sessions func() []string
	// Abort drops a local session the coordinator says was failed over
	// elsewhere while this worker was partitioned.
	Abort func(id string) bool
	// Epoch reports the highest coordinator fencing epoch the local
	// server has seen, carried on registers and heartbeats so a starting
	// coordinator can recover the fleet's epoch.
	Epoch func() uint64
	// NoteEpoch hands the local server a coordinator-reported epoch; the
	// server raises its fence to the maximum seen and rejects writes
	// stamped with anything lower.
	NoteEpoch func(epoch uint64)
	// HTTPClient dials the coordinator; defaults to a 5s-timeout client.
	HTTPClient *http.Client
	// Logger receives structured operational logs; nil discards them.
	Logger *slog.Logger
}

// Agent registers a worker with its coordinator(s) and keeps heartbeating
// until stopped. If a coordinator restarts, or declares this worker dead
// during a partition, heartbeats start failing and the agent re-registers,
// reconciling any sessions that were failed over in the meantime. Start
// with StartAgent; stop silently with Stop, or gracefully with Leave (the
// primary migrates this worker's sessions before Leave returns).
type Agent struct {
	cfg        AgentConfig
	coords     []string
	registered []bool
	every      atomic.Int64 // nanoseconds; coordinator can retune it
	stopped    atomic.Bool
	stop       chan struct{}
	done       chan struct{}
}

// splitCoordinators parses a comma-separated coordinator list.
func splitCoordinators(s string) []string {
	var out []string
	for _, c := range strings.Split(s, ",") {
		if c = strings.TrimSpace(c); c != "" {
			out = append(out, strings.TrimRight(c, "/"))
		}
	}
	return out
}

// StartAgent launches the register+heartbeat loop.
func StartAgent(cfg AgentConfig) *Agent {
	if cfg.Name == "" {
		cfg.Name = cfg.Advertise
	}
	if cfg.Every <= 0 {
		cfg.Every = time.Second
	}
	if cfg.HTTPClient == nil {
		cfg.HTTPClient = &http.Client{Timeout: 5 * time.Second}
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.DiscardHandler)
	}
	if cfg.Load == nil {
		cfg.Load = func() WorkerLoad { return WorkerLoad{} }
	}
	if cfg.Sessions == nil {
		cfg.Sessions = func() []string { return nil }
	}
	coords := splitCoordinators(cfg.Coordinator)
	a := &Agent{
		cfg:        cfg,
		coords:     coords,
		registered: make([]bool, len(coords)),
		stop:       make(chan struct{}),
		done:       make(chan struct{}),
	}
	a.every.Store(int64(cfg.Every))
	go a.run()
	return a
}

// Stop halts the loop without telling the coordinator — from the fleet's
// point of view this is a crash, and the heartbeat deadline handles it.
func (a *Agent) Stop() {
	if !a.stopped.Swap(true) {
		close(a.stop)
	}
	<-a.done
}

// Leave performs a graceful exit: the primary coordinator migrates this
// worker's sessions to survivors before the call returns (standbys merely
// forget the worker), then the heartbeat loop is stopped.
func (a *Agent) Leave(ctx context.Context) error {
	var firstErr error
	for _, coord := range a.coords {
		body, _ := json.Marshal(registerRequest{Name: a.cfg.Name, URL: a.cfg.Advertise})
		req, err := http.NewRequestWithContext(ctx, "POST", coord+"/fleet/leave", bytes.NewReader(body))
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		req.Header.Set("Content-Type", "application/json")
		// The drain can outlast the heartbeat client's timeout: use a bare
		// client bounded only by ctx.
		resp, err := (&http.Client{}).Do(req)
		if err == nil {
			io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("leave: coordinator answered %d", resp.StatusCode)
			}
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if len(a.coords) == 0 {
		firstErr = errors.New("leave: no coordinator configured")
	}
	a.Stop()
	return firstErr
}

func (a *Agent) run() {
	defer close(a.done)
	for {
		anyUnregistered := false
		for i := range a.coords {
			if !a.registered[i] {
				a.registered[i] = a.register(i)
			} else if !a.heartbeat(i) {
				a.registered[i] = false
				a.registered[i] = a.register(i) // re-register immediately, not a beat later
			}
			if !a.registered[i] {
				anyUnregistered = true
			}
		}
		wait := time.Duration(a.every.Load())
		if anyUnregistered && wait > time.Second {
			wait = time.Second // don't sit out long beats while unregistered
		}
		select {
		case <-a.stop:
			return
		case <-time.After(wait):
		}
	}
}

// noteEpoch relays a coordinator-reported fencing epoch to the server.
func (a *Agent) noteEpoch(epoch uint64) {
	if epoch > 0 && a.cfg.NoteEpoch != nil {
		a.cfg.NoteEpoch(epoch)
	}
}

func (a *Agent) ownEpoch() uint64 {
	if a.cfg.Epoch != nil {
		return a.cfg.Epoch()
	}
	return 0
}

func (a *Agent) register(i int) bool {
	coord := a.coords[i]
	req := registerRequest{
		Name:     a.cfg.Name,
		URL:      a.cfg.Advertise,
		Load:     a.cfg.Load(),
		Sessions: a.cfg.Sessions(),
		Epoch:    a.ownEpoch(),
	}
	var resp registerResponse
	status, err := a.post(coord, "/fleet/register", req, &resp)
	if err != nil || status != http.StatusOK {
		a.cfg.Logger.Warn("fleet register failed, retrying",
			"coordinator", coord, "status", status, "err", err)
		return false
	}
	if resp.HeartbeatMS > 0 {
		a.every.Store(int64(time.Duration(resp.HeartbeatMS) * time.Millisecond))
	}
	a.noteEpoch(resp.Epoch)
	for _, id := range resp.Stale {
		// This copy lost a split brain: the authoritative session now lives
		// on another worker. Drop it so it can't finalize duplicate reports.
		if a.cfg.Abort != nil && a.cfg.Abort(id) {
			a.cfg.Logger.Info("aborted stale session (failed over during partition)", "session", id)
		}
	}
	a.cfg.Logger.Info("registered with fleet", "coordinator", coord, "worker", a.cfg.Name)
	return true
}

func (a *Agent) heartbeat(i int) bool {
	coord := a.coords[i]
	req := registerRequest{Name: a.cfg.Name, URL: a.cfg.Advertise, Load: a.cfg.Load(), Epoch: a.ownEpoch()}
	var ack struct {
		OK    bool   `json:"ok"`
		Epoch uint64 `json:"epoch"`
	}
	status, err := a.post(coord, "/fleet/heartbeat", req, &ack)
	if err != nil {
		return false
	}
	if status == http.StatusNotFound || status == http.StatusGone {
		a.cfg.Logger.Warn("coordinator no longer knows us, re-registering",
			"coordinator", coord, "status", status)
		return false
	}
	a.noteEpoch(ack.Epoch)
	return status == http.StatusOK
}

func (a *Agent) post(coord, path string, body any, out any) (int, error) {
	raw, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequest("POST", coord+path, bytes.NewReader(raw))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := a.cfg.HTTPClient.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return 0, err
	}
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(data, out); err != nil {
			return resp.StatusCode, err
		}
	}
	return resp.StatusCode, nil
}
