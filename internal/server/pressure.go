package server

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"sort"
	"time"
)

// Memory-pressure management: Config.StateBudgetBytes caps the summed
// detector state across all open sessions. When ingestion pushes the total
// past the budget the server degrades in two escalating steps instead of
// growing without bound:
//
//  1. Forced compaction, fattest sessions first — engine.CompactableSession
//     state shrinks to its live epoch frontier.
//  2. Parking, coldest sessions first — the session swaps its engines for
//     their snapshot frames (the same frames checkpoints use), kept in
//     memory or, with a CheckpointDir, in its checkpoint file. It stays in
//     Server.sessions: status, snapshot, listing, abort and every count
//     serve it as it is. The first task that needs the detectors (a chunk
//     carrying events past the ack, finish, idle eviction, Close without a
//     CheckpointDir) wakes it in place, so a parked session is paused,
//     never lost.
//
// Relief runs on a dedicated goroutine kicked from the ingest path, so a
// chunk that crosses the budget never waits for other sessions' compaction
// behind its own response.

// noteSessionState refreshes one session's contribution to the global
// detector-state total and kicks the pressure loop if the budget is blown.
// Call after anything that grows or seals the session's engines.
func (s *Server) noteSessionState(sess *session) {
	if d := sess.remeasureState(); d != 0 {
		s.stateTotal.Add(d)
	}
	s.maybePressureKick()
}

func (s *Server) maybePressureKick() {
	if s.cfg.StateBudgetBytes <= 0 || s.stateTotal.Load() <= s.cfg.StateBudgetBytes {
		return
	}
	select {
	case s.pressureKick <- struct{}{}:
	default: // a relief round is already pending
	}
}

func (s *Server) pressureLoop() {
	defer close(s.pressureDone)
	for {
		select {
		case <-s.pressureStop:
			return
		case <-s.pressureKick:
			s.relievePressure()
		}
	}
}

// residentSessions lists the sessions that hold their engines, the ones
// the pressure ladder can shrink.
func (s *Server) residentSessions() []*session {
	s.mu.Lock()
	defer s.mu.Unlock()
	list := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		if !sess.parked.Load() {
			list = append(list, sess)
		}
	}
	return list
}

// sessionCounts splits the registered sessions into resident and parked.
func (s *Server) sessionCounts() (resident, parked int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, sess := range s.sessions {
		if sess.parked.Load() {
			parked++
		}
	}
	return len(s.sessions) - parked, parked
}

// relievePressure walks the escalation ladder until the state total is back
// under budget or nothing is left to shed. Each per-session step runs under
// that session's scheduler key, serialized with its chunk ingestion.
func (s *Server) relievePressure() {
	budget := s.cfg.StateBudgetBytes
	if s.stateTotal.Load() <= budget {
		return
	}
	// Step 1: force-compact, fattest first — the cheapest state to win back.
	open := s.residentSessions()
	sort.Slice(open, func(i, j int) bool { return open[i].cachedState() > open[j].cachedState() })
	for _, sess := range open {
		if s.stateTotal.Load() <= budget {
			return
		}
		sess := sess
		err := s.sched.Do(context.Background(), sess.id, func() {
			sess.compactNow()
			if d := sess.remeasureState(); d != 0 {
				s.stateTotal.Add(d)
			}
		})
		if err != nil {
			return // draining or saturated: yield, the next kick retries
		}
	}
	if s.stateTotal.Load() <= budget {
		return
	}
	// Step 2: park the coldest sessions. The most recently active session is
	// never parked — whatever client is pushing hardest keeps making
	// progress even when one session alone exceeds the budget.
	open = s.residentSessions()
	sort.Slice(open, func(i, j int) bool { return open[i].idleSince().Before(open[j].idleSince()) })
	freed := 0
	for i, sess := range open {
		if s.stateTotal.Load() <= budget || i == len(open)-1 {
			break
		}
		if s.parkSession(sess) {
			freed++
		}
	}
	if freed > 0 {
		s.cfg.Logger.Warn("memory pressure parked sessions",
			"parked", freed, "state_bytes", s.stateTotal.Load(), "budget_bytes", budget)
	}
}

// parkSession swaps one session's engines for their snapshot frames. Runs
// under the session's scheduler key so it lands on a chunk boundary.
// Reports whether the session was actually parked.
func (s *Server) parkSession(sess *session) bool {
	parked := false
	err := s.sched.Do(context.Background(), sess.id, func() {
		if sess.parked.Load() {
			return
		}
		var buf bytes.Buffer
		if serr := sess.snapshotTo(&buf); serr != nil {
			// Closed, failed, or unsnapshottable: not parkable. Failed
			// sessions keep their latched error visible until idle eviction.
			return
		}
		frames, ckpt := buf.Bytes(), ""
		if s.cfg.CheckpointDir != "" {
			ckpt = s.ckptPath(sess.id)
			werr := writeFileAtomic(ckpt, func(w io.Writer) error {
				_, err := w.Write(frames)
				return err
			})
			if werr != nil {
				s.cfg.Logger.Error("parking session failed", "session", sess.id, "err", werr)
				return
			}
			frames = nil
		}
		sess.park(frames, ckpt)
		if d := sess.remeasureState(); d != 0 {
			s.stateTotal.Add(d)
		}
		s.sessionsParked.Add(1)
		parked = true
	})
	return err == nil && parked
}

// wake restores a parked session's engines in place from its frames and
// re-installs the compaction policy. It is the session's wake hook: the
// caller runs under the session's scheduler key and holds sess.mu, and
// re-measures the session's state once the task is done.
func (s *Server) wake(sess *session) error {
	frames, err := sess.parkedFrames()
	var woken *session
	if err == nil {
		woken, err = restoreSession(bytes.NewReader(frames), time.Now())
	}
	if err == nil && (woken.id != sess.id || woken.events != sess.events) {
		err = fmt.Errorf("frames hold session %s at %d events", woken.id, woken.events)
	}
	if err != nil {
		s.cfg.Logger.Error("parked session unrestorable", "session", sess.id, "err", err)
		return fmt.Errorf("waking parked session: %w", err)
	}
	sess.engines, sess.frames, sess.ckpt = woken.engines, nil, ""
	sess.parked.Store(false)
	s.applyCompactPolicy(sess)
	s.sessionsUnparked.Add(1)
	s.cfg.Logger.Info("woke parked session", "session", sess.id, "events", sess.events)
	return nil
}
