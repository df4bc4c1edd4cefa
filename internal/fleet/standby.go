package fleet

import (
	"context"
	"io"
	"net/http"
	"time"

	"repro/internal/obs"
)

// Warm-standby coordinator: started with StandbyOf pointing at the
// primary, it accepts worker registrations and heartbeats (workers
// heartbeat every coordinator they are given) and leases the primary by
// polling its /healthz. While the primary answers, the standby serves the
// session API 503 (clients with a coordinator list rotate to the primary).
// When the primary misses its lease the standby takes over: it bumps its
// fencing epoch, resets membership, and opens the recovery grace window, so
// workers re-register on their next heartbeat and their session reports
// rebuild the placements — the same recovery path every coordinator start
// runs. Workers enforce the epoch: the old primary's next write is answered
// 412 and it fences itself.

// standbyLoop polls the primary until the lease lapses, then promotes this
// coordinator. Runs only while standbyMode is set.
func (c *Coordinator) standbyLoop() {
	defer close(c.standbyDone)
	// Poll at least once per heartbeat interval: the sooner a miss is
	// seen, the sooner standbyRetryAfter can tell clients to wait.
	tick := max(min(c.cfg.LeaseTimeout/4, c.cfg.HeartbeatEvery), 10*time.Millisecond)
	t := time.NewTicker(tick)
	defer t.Stop()
	lastOK := time.Now()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
		}
		if c.primaryAnswers() {
			lastOK = time.Now()
			c.takeoverAt.Store(0)
			continue
		}
		if time.Since(lastOK) > c.cfg.LeaseTimeout {
			c.takeover()
			return
		}
		// The lease lapses on the first tick past LeaseTimeout.
		c.takeoverAt.Store(lastOK.Add(c.cfg.LeaseTimeout + tick).UnixNano())
	}
}

// primaryAnswers is one lease poll: GET /healthz on the primary. Any HTTP
// answer proves it alive — a fresh primary with no workers yet answers 503
// "no-workers" and must not be taken over. Only a transport error or a
// timeout counts as a miss.
func (c *Coordinator) primaryAnswers() bool {
	ctx, cancel := context.WithTimeout(context.Background(), c.cfg.LeaseTimeout/2)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", c.cfg.StandbyOf+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := c.cfg.HTTPClient.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
	resp.Body.Close()
	return true
}

// standbyRetryAfter is the Retry-After a standby puts on its session-API
// 503s: 1 s while the primary answers, so clients rotate straight back to
// it; once a lease poll has failed, the time to the expected takeover plus
// one heartbeat interval, by which workers have re-registered with the new
// primary. A client honoring it spends one attempt of its retry budget
// waiting out the lease instead of spending the whole budget alternating
// between a dead primary and a standby that cannot serve yet.
func (c *Coordinator) standbyRetryAfter() string {
	at := c.takeoverAt.Load()
	if at == 0 {
		return "1"
	}
	return retryAfter(time.Until(time.Unix(0, at)) + c.cfg.HeartbeatEvery)
}

// takeover promotes this standby to primary: bump the fencing epoch (past
// every fence workers reported while it was standby, see trackFence), reset
// membership so every worker's next heartbeat is answered 404 and it
// re-registers with its session report, open the grace window in which
// those reports rebuild placements (and raise the epoch above any fence a
// worker reports), and start serving. Workers learn the new epoch from
// their registration replies and from then on answer the old primary's
// writes 412 — it can no longer move, place, or drop anything.
func (c *Coordinator) takeover() {
	t0 := time.Now()
	c.mu.Lock()
	epoch := c.epoch.Add(1)
	c.workers = make(map[string]*worker)
	c.ring = NewRing(c.cfg.Vnodes)
	c.recoveringUntil = t0.Add(c.cfg.RecoveryGrace)
	c.standbyMode.Store(false)
	c.mu.Unlock()
	c.takeovers.Add(1)
	c.span(obs.Span{Name: "standby_takeover", Start: t0, Duration: time.Since(t0).Seconds()})
	c.cfg.Logger.Warn("standby takeover: primary lease lapsed, assuming the session API",
		"epoch", epoch, "primary", c.cfg.StandbyOf)
}
