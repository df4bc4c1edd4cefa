package fleet

import (
	"context"
	"encoding/json"
	"net/http"
	"sync"
	"time"

	"repro/internal/obs"
)

// moveSpec is one session relocation queued for the mover goroutine. Two
// kinds flow through the same machinery: failovers (source is gone; restore
// from the coordinator's last pulled blob, or re-create from the retained
// header) and graceful migrations (source alive; pull a fresh snapshot
// first, then abort the source copy).
type moveSpec struct {
	id       string
	from     string
	fresh    bool // pull a fresh snapshot from the source before restoring
	attempts int
	// maxAttempts bounds graceful moves; 0 means retry until the session
	// lands somewhere (failover never gives up while a blob or header
	// remains).
	maxAttempts int
	done        func(moved bool) // invoked exactly once when the chain ends
}

// moverLoop serializes all session movement through one goroutine: a
// failover burst and a concurrent drain never race on the same placement,
// and ordering is deterministic for tests.
func (c *Coordinator) moverLoop() {
	defer close(c.moverDone)
	for {
		select {
		case <-c.stop:
			return
		case m := <-c.moveQ:
			c.runMove(m)
		}
	}
}

func (c *Coordinator) enqueueMove(m moveSpec) {
	select {
	case c.moveQ <- m:
	case <-c.stop:
		if m.done != nil {
			m.done(false)
		}
	}
}

// retryMoveLater re-queues a move after a short pause, off the mover
// goroutine so the queue keeps draining meanwhile.
func (c *Coordinator) retryMoveLater(m moveSpec) {
	time.AfterFunc(250*time.Millisecond, func() {
		if c.closed.Load() {
			if m.done != nil {
				m.done(false)
			}
			return
		}
		c.enqueueMove(m)
	})
}

// runMove executes one relocation attempt. See moveSpec for the two kinds.
func (c *Coordinator) runMove(m moveSpec) {
	m.attempts++
	ctx := context.Background()

	c.mu.Lock()
	pl := c.placements[m.id]
	if pl == nil || pl.worker != m.from {
		// Finished, aborted, or already moved while queued.
		c.mu.Unlock()
		if m.done != nil {
			m.done(false)
		}
		return
	}
	blob, header, engines, traceID := pl.blob, pl.header, pl.engines, pl.trace
	var fromURL string
	if wk := c.workers[m.from]; wk != nil {
		fromURL = wk.url
	}
	c.mu.Unlock()

	// Graceful move: the source still serves, so capture the freshest
	// possible state before restoring elsewhere.
	if m.fresh && fromURL != "" {
		pr, err := c.forward(ctx, "GET", fromURL+"/sessions/"+m.id+"/snapshot", nil, nil)
		switch {
		case err == nil && pr.status == http.StatusOK:
			blob = pr.body
			c.mu.Lock()
			if cur := c.placements[m.id]; cur != nil {
				cur.blob = blob
			}
			c.mu.Unlock()
		case err == nil && pr.status == http.StatusNotFound:
			// Session no longer exists at the source: nothing to move.
			c.dropPlacement(m.id)
			if m.done != nil {
				m.done(false)
			}
			return
		case err == nil && pr.status == http.StatusConflict:
			// Closed or failed ingest: not snapshottable, and not worth
			// moving — it will finalize where it sits.
			c.giveUpMove(m, "session not snapshottable, leaving in place", "session", m.id, "worker", m.from)
			return
		default:
			// Source unreachable mid-drain: degrade to failover using
			// whatever blob the pull loop last captured.
			if blob == nil && header == nil {
				c.giveUpMove(m, "source unreachable and no checkpoint held", "session", m.id, "worker", m.from)
				return
			}
		}
	}

	target, targetURL := c.pickMoveTarget(m.id, m.from)
	if target == "" {
		if m.maxAttempts > 0 && m.attempts >= m.maxAttempts {
			c.giveUpMove(m, "no live worker to move to", "session", m.id)
			return
		}
		c.retryMoveLater(m)
		return
	}

	restored := false
	if blob != nil {
		t0 := time.Now()
		pr, err := c.forward(ctx, "POST", targetURL+"/sessions/restore", blob, map[string]string{
			obs.HeaderTrace: traceID, // re-attach the create-time trace across the failover
			"Content-Type":  "application/octet-stream",
		})
		switch {
		case err == nil && pr.status >= 200 && pr.status < 300:
			restored = true
			c.span(obs.Span{Trace: traceID, Session: m.id, Name: "failover_restore",
				Worker: target, Start: t0, Duration: time.Since(t0).Seconds()})
		case err == nil && pr.status == http.StatusConflict:
			// Already open there (a previous attempt landed): adopt it.
			restored = true
		case err != nil:
			c.noteProxyFailure(target, err)
			c.retryMoveLater(m)
			return
		default:
			// Blob rejected (corrupt or incompatible): fall through to the
			// header re-create path below.
			c.cfg.Logger.Warn("failover restore rejected, falling back to re-create",
				"session", m.id, "worker", target, "status", pr.status)
			blob = nil
		}
	}
	if !restored && header != nil {
		url := targetURL + "/sessions"
		if engines != "" {
			url += "?engines=" + engines
		}
		t0 := time.Now()
		pr, err := c.forward(ctx, "POST", url, header, map[string]string{
			HeaderSessionID: m.id,
			obs.HeaderTrace: traceID,
			"Content-Type":  "application/octet-stream",
		})
		switch {
		case err == nil && (pr.status == http.StatusCreated || pr.status == http.StatusConflict):
			restored = true // 409: already open there — adopt
			c.span(obs.Span{Trace: traceID, Session: m.id, Name: "failover_recreate",
				Worker: target, Start: t0, Duration: time.Since(t0).Seconds()})
		case err != nil:
			c.noteProxyFailure(target, err)
			c.retryMoveLater(m)
			return
		default:
			c.cfg.Logger.Warn("failover re-create failed",
				"session", m.id, "worker", target, "status", pr.status, "body", string(pr.body))
		}
	}
	if !restored {
		if blob == nil && header == nil {
			// Adopted after a coordinator start or takeover and lost before
			// any pull: nothing to restore from.
			c.sessionsLost.Add(1)
			c.dropPlacement(m.id)
			c.cfg.Logger.Error("session lost — no checkpoint or create header held", "session", m.id)
			if m.done != nil {
				m.done(false)
			}
			return
		}
		if m.maxAttempts > 0 && m.attempts >= m.maxAttempts {
			c.giveUpMove(m, "move failed, giving up", "session", m.id, "attempts", m.attempts)
			return
		}
		c.retryMoveLater(m)
		return
	}

	c.mu.Lock()
	if cur := c.placements[m.id]; cur != nil {
		cur.worker = target
		cur.moving = false
	}
	c.mu.Unlock()
	if m.fresh {
		c.sessionsMigrated.Add(1)
		// Best-effort: drop the source copy so the drained worker exits
		// clean. A failure just leaves a stale copy the register-time
		// reconcile will name.
		if fromURL != "" {
			c.forward(ctx, "DELETE", fromURL+"/sessions/"+m.id, nil, nil)
		}
	} else {
		c.sessionsFailed.Add(1)
	}
	c.cfg.Logger.Info("session moved",
		"session", m.id, "from", m.from, "to", target, "attempt", m.attempts, "trace", traceID)
	if m.done != nil {
		m.done(true)
	}
}

// giveUpMove abandons a move, clearing the moving flag so the session keeps
// being served wherever it is placed (relevant for drains that could not
// hand off). args are slog key-value pairs.
func (c *Coordinator) giveUpMove(m moveSpec, msg string, args ...any) {
	c.mu.Lock()
	if cur := c.placements[m.id]; cur != nil {
		cur.moving = false
	}
	c.mu.Unlock()
	c.cfg.Logger.Warn(msg, args...)
	if m.done != nil {
		m.done(false)
	}
}

func (c *Coordinator) dropPlacement(id string) {
	c.mu.Lock()
	delete(c.placements, id)
	c.mu.Unlock()
}

// pickMoveTarget walks the ring clockwise from the session's hash for the
// first live worker other than the one being vacated — the same worker a
// fresh placement of this id would choose, so placements converge back to
// the ring's view.
func (c *Coordinator) pickMoveTarget(id, exclude string) (name, url string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	name = c.ring.OwnerWhere(id, func(n string) bool {
		if n == exclude {
			return false
		}
		wk := c.workers[n]
		return wk != nil && wk.alive()
	})
	if name == "" {
		return "", ""
	}
	return name, c.workers[name].url
}

// --- failure detection ---

// monitorLoop is the heartbeat deadline watcher.
func (c *Coordinator) monitorLoop() {
	defer close(c.monitorDone)
	tick := c.cfg.HeartbeatTimeout / 4
	if tick < 10*time.Millisecond {
		tick = 10 * time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
			c.sweep()
			c.expireFinished(time.Now())
		}
	}
}

// sweep marks workers past their heartbeat deadline suspect and starts
// failing their sessions over; suspect workers with nothing left placed on
// them are retired to dead.
func (c *Coordinator) sweep() {
	// A standby watches, it doesn't judge: failure detection is the
	// primary's until a takeover. A fenced coordinator must not start
	// failovers either — its restores would be rejected anyway.
	if c.standbyMode.Load() || c.fenced.Load() {
		return
	}
	now := time.Now()
	c.mu.Lock()
	var failed []string
	for name, wk := range c.workers {
		switch wk.state {
		case workerActive:
			if now.Sub(wk.lastBeat) > c.cfg.HeartbeatTimeout {
				failed = append(failed, name)
			}
		case workerSuspect:
			still := 0
			for _, pl := range c.placements {
				if pl.worker == name {
					still++
				}
			}
			if still == 0 {
				wk.state = workerDead
			}
		}
	}
	c.mu.Unlock()
	for _, name := range failed {
		c.failWorker(name, "missed heartbeat deadline")
	}
}

// failWorker transitions a worker to suspect and queues a failover for
// every session placed on it.
func (c *Coordinator) failWorker(name, why string) {
	c.mu.Lock()
	wk := c.workers[name]
	if wk == nil || (wk.state != workerActive && wk.state != workerDraining) {
		c.mu.Unlock()
		return
	}
	wk.state = workerSuspect
	var ids []string
	for id, pl := range c.placements {
		if pl.worker == name && !pl.moving {
			pl.moving = true
			ids = append(ids, id)
		}
	}
	c.mu.Unlock()
	c.workerFailovers.Add(1)
	c.cfg.Logger.Warn("worker failed, failing over sessions",
		"worker", name, "why", why, "sessions", len(ids))
	for _, id := range ids {
		c.pendingFailovers.Add(1)
		c.enqueueMove(moveSpec{id: id, from: name, done: func(bool) { c.pendingFailovers.Add(-1) }})
	}
}

// noteProxyFailure reacts to a transport error against a worker. A single
// failed connection against a heartbeat-fresh worker proves nothing — the
// heartbeat monitor stays the authority — but once the last heartbeat is
// older than the advertised cadence, the proxy error corroborates it and
// failover starts without waiting out the full deadline.
func (c *Coordinator) noteProxyFailure(name string, err error) {
	c.mu.Lock()
	wk := c.workers[name]
	stale := wk != nil && wk.state == workerActive && time.Since(wk.lastBeat) > c.cfg.HeartbeatEvery
	c.mu.Unlock()
	if stale {
		c.failWorker(name, "proxy error with stale heartbeat: "+err.Error())
	}
}

// retryStalledFailovers re-queues failovers that found no live target (they
// self-retry on a timer, but a registration is the event that unblocks
// them, so kick immediately).
func (c *Coordinator) retryStalledFailovers() {
	// The timer-based retry in runMove already covers this; the hook exists
	// so a future scheduler can prioritize. Kick the pull loop so restored
	// sessions get fresh checkpoints soon after the fleet changes shape.
	c.kickPull()
}

// --- graceful leave ---

// handleLeave drains a worker: its sessions are migrated to survivors via
// fresh snapshots (latency, not loss), then it is removed from the ring.
// The call returns when the handoff settles so the worker can exit knowing
// nothing it holds is still authoritative.
func (c *Coordinator) handleLeave(w http.ResponseWriter, r *http.Request) {
	var req registerRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		obs.WriteError(w, http.StatusBadRequest, "leave: %v", err)
		return
	}
	// A standby only forgets the worker; the primary runs the handoff.
	if c.standbyMode.Load() {
		c.mu.Lock()
		delete(c.workers, req.Name)
		c.ring.Remove(req.Name)
		c.mu.Unlock()
		obs.WriteJSON(w, http.StatusOK, map[string]any{"moved": 0})
		return
	}
	c.mu.Lock()
	wk := c.workers[req.Name]
	if wk == nil {
		c.mu.Unlock()
		obs.WriteJSON(w, http.StatusOK, map[string]any{"moved": 0})
		return
	}
	wk.state = workerDraining
	var ids []string
	for id, pl := range c.placements {
		if pl.worker == req.Name && !pl.moving {
			pl.moving = true
			ids = append(ids, id)
		}
	}
	c.mu.Unlock()
	c.cfg.Logger.Info("worker leaving, migrating sessions", "worker", req.Name, "sessions", len(ids))

	var wg sync.WaitGroup
	var movedMu sync.Mutex
	moved := 0
	for _, id := range ids {
		wg.Add(1)
		c.pendingMigrations.Add(1)
		c.enqueueMove(moveSpec{
			id: id, from: req.Name, fresh: true, maxAttempts: 4,
			done: func(ok bool) {
				if ok {
					movedMu.Lock()
					moved++
					movedMu.Unlock()
				}
				c.pendingMigrations.Add(-1)
				wg.Done()
			},
		})
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-r.Context().Done():
		obs.WriteError(w, http.StatusServiceUnavailable, "leave interrupted: %v", r.Context().Err())
		return
	}
	c.mu.Lock()
	delete(c.workers, req.Name)
	c.ring.Remove(req.Name)
	c.mu.Unlock()
	c.cfg.Logger.Info("worker left", "worker", req.Name, "moved", moved, "sessions", len(ids))
	obs.WriteJSON(w, http.StatusOK, map[string]any{"moved": moved})
}

// --- rebalance on join ---

// rebalanceOnto migrates onto a newly joined worker exactly the open
// sessions whose ring owner it now is — the bounded ~1/N movement
// consistent hashing promises, captured via fresh snapshots so the client
// replays at most the tail since the handoff. skip names sessions that must
// not move onto this worker this round: the ids its register was just told
// are stale. The worker aborts those asynchronously, and a rebalance restore
// of the same id racing that abort could be destroyed by it — the session
// stays on its failover target instead (still correct, just off the ring's
// preferred owner until it finishes).
func (c *Coordinator) rebalanceOnto(name string, skip map[string]bool) {
	c.mu.Lock()
	var moves []moveSpec
	for id, pl := range c.placements {
		if pl.moving || pl.worker == name || skip[id] {
			continue
		}
		owner := c.ring.OwnerWhere(id, func(n string) bool {
			wk := c.workers[n]
			return wk != nil && wk.alive()
		})
		if owner != name {
			continue
		}
		// Only steal from live workers: a session on a suspect worker is
		// the failover path's business.
		if src := c.workers[pl.worker]; src == nil || !src.alive() {
			continue
		}
		pl.moving = true
		moves = append(moves, moveSpec{id: id, from: pl.worker, fresh: true, maxAttempts: 3})
	}
	c.mu.Unlock()
	if len(moves) == 0 {
		return
	}
	c.cfg.Logger.Info("rebalancing sessions onto joined worker", "sessions", len(moves), "worker", name)
	for _, m := range moves {
		c.pendingMigrations.Add(1)
		m.done = func(bool) { c.pendingMigrations.Add(-1) }
		c.enqueueMove(m)
	}
}

// --- checkpoint pulling ---

func (c *Coordinator) kickPull() {
	select {
	case c.pullKick <- struct{}{}:
	default:
	}
}

// pullLoop periodically captures a checkpoint of every placed session into
// coordinator memory — the restore source when the owning worker dies
// without warning. The pull window bounds how much tail the client replays
// after a hard kill, not whether the session survives: with no blob at all,
// failover re-creates from the retained create header and the client
// replays the full stream.
func (c *Coordinator) pullLoop() {
	defer close(c.pullDone)
	t := time.NewTicker(c.cfg.PullEvery)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
		case <-c.pullKick:
		}
		c.pullAll()
	}
}

func (c *Coordinator) pullAll() {
	if c.standbyMode.Load() || c.fenced.Load() {
		return
	}
	type job struct{ id, worker, url string }
	c.mu.Lock()
	jobs := make([]job, 0, len(c.placements))
	for id, pl := range c.placements {
		if pl.moving {
			continue
		}
		wk := c.workers[pl.worker]
		if wk == nil || !wk.alive() {
			continue
		}
		jobs = append(jobs, job{id: id, worker: pl.worker, url: wk.url})
	}
	c.mu.Unlock()

	sem := make(chan struct{}, 4)
	var wg sync.WaitGroup
	for _, j := range jobs {
		wg.Add(1)
		sem <- struct{}{}
		go func(j job) {
			defer wg.Done()
			defer func() { <-sem }()
			pr, err := c.forward(context.Background(), "GET", j.url+"/sessions/"+j.id+"/snapshot", nil, nil)
			if err != nil {
				c.pullsFailed.Add(1)
				c.noteProxyFailure(j.worker, err)
				return
			}
			switch pr.status {
			case http.StatusOK:
				c.mu.Lock()
				if pl := c.placements[j.id]; pl != nil && pl.worker == j.worker && !pl.moving {
					pl.blob = pr.body
				}
				c.mu.Unlock()
				c.pullsOK.Add(1)
			case http.StatusNotFound:
				// Gone at the source (evicted or aborted out of band).
				c.dropPlacement(j.id)
			default:
				// 409 closed/failed: keep the previous blob, if any.
				c.pullsFailed.Add(1)
			}
		}(j)
	}
	wg.Wait()
}
