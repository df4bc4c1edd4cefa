package fleet

import (
	"time"
)

// workerState is a registered worker's health in the coordinator's view.
type workerState int

const (
	// workerActive: heartbeats arriving, eligible for placement.
	workerActive workerState = iota
	// workerSuspect: missed its heartbeat deadline (or failed a proxy);
	// its sessions are being failed over. Not eligible for placement.
	workerSuspect
	// workerDraining: asked for a graceful leave; sessions are being
	// handed off. Not eligible for placement.
	workerDraining
	// workerDead: failover complete; only a fresh registration revives it.
	workerDead
)

func (s workerState) String() string {
	switch s {
	case workerActive:
		return "active"
	case workerSuspect:
		return "suspect"
	case workerDraining:
		return "draining"
	case workerDead:
		return "dead"
	}
	return "unknown"
}

// WorkerLoad is the load snapshot a heartbeat carries: what the placement
// and degraded-routing decisions read.
type WorkerLoad struct {
	Sessions   int   `json:"sessions"`
	StateBytes int64 `json:"state_bytes"`
	QueueDepth int   `json:"queue_depth"`
}

// worker is the coordinator's record of one registered analysis worker.
// Guarded by the coordinator's mutex.
type worker struct {
	name     string // stable identity (the advertised URL by default)
	url      string // base URL the coordinator dials
	state    workerState
	lastBeat time.Time
	load     WorkerLoad
}

func (w *worker) alive() bool { return w.state == workerActive }

// workerInfo is the JSON shape of one worker in GET /fleet and /healthz.
type workerInfo struct {
	Name          string     `json:"name"`
	URL           string     `json:"url"`
	State         string     `json:"state"`
	LastBeatMSAgo int64      `json:"last_heartbeat_ms_ago"`
	Load          WorkerLoad `json:"load"`
}

// registerRequest is the body of POST /fleet/register and /fleet/heartbeat.
type registerRequest struct {
	Name string     `json:"name"`
	URL  string     `json:"url"`
	Load WorkerLoad `json:"load"`
	// Sessions is the worker's open-session list, sent on register so the
	// coordinator can adopt placements after its own start or takeover and
	// name the stale copies a rejoining worker must drop.
	Sessions []string `json:"sessions,omitempty"`
	// Epoch is the highest coordinator fencing epoch the worker has seen.
	// A recovering coordinator adopts an epoch above every reported fence,
	// or the fence its predecessor raised would reject all of its writes.
	Epoch uint64 `json:"epoch,omitempty"`
}

// registerResponse tells the registering worker how to behave: the
// heartbeat cadence the coordinator expects and the ids of sessions the
// worker still holds but no longer owns (failed over elsewhere while it was
// partitioned) — the worker aborts those to resolve the split brain.
type registerResponse struct {
	HeartbeatMS int64    `json:"heartbeat_ms"`
	Stale       []string `json:"stale,omitempty"`
	// Epoch is the coordinator's fencing epoch; the worker raises its
	// fence to it (never lowers), rejecting writes from older
	// coordinators from then on.
	Epoch uint64 `json:"epoch,omitempty"`
}
