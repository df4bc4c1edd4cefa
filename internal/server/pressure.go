package server

import (
	"bytes"
	"context"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

// Memory-pressure management: Config.StateBudgetBytes caps the summed
// detector state across all open sessions. When ingestion pushes the total
// past the budget the server degrades in two escalating steps instead of
// growing without bound:
//
//  1. Forced compaction, fattest sessions first — engine.CompactableSession
//     state shrinks to its live epoch frontier.
//  2. Parking, coldest sessions first — the session is serialized (the same
//     frames checkpoints use), evicted from memory, and transparently
//     restored when a request next names it. A parked session is paused,
//     never lost: the client just sees its next chunk take one restore
//     longer.
//
// Relief runs on a dedicated goroutine kicked from the ingest path, so a
// chunk that crosses the budget never waits for other sessions' compaction
// behind its own response.

// parkedSession is a pressure-evicted session serialized in memory — the
// parking spot when no CheckpointDir is configured (with one, the
// checkpoint file on disk is the parking spot and this map stays empty).
type parkedSession struct {
	blob []byte
	at   time.Time
}

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

func (s *Server) openSessions() []*session {
	s.mu.Lock()
	defer s.mu.Unlock()
	list := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		list = append(list, sess)
	}
	return list
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
	open := s.openSessions()
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
	open = s.openSessions()
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

// parkSession serializes one session, evicts it from memory, and records
// the parking spot. Runs under the session's scheduler key so it lands on a
// chunk boundary. Reports whether the session was actually parked.
func (s *Server) parkSession(sess *session) bool {
	parked := false
	err := s.sched.Do(context.Background(), sess.id, func() {
		var buf bytes.Buffer
		if serr := sess.snapshotTo(&buf); serr != nil {
			// Closed, failed, or unsnapshottable: not parkable. Failed
			// sessions keep their latched error visible until idle eviction.
			return
		}
		if s.cfg.CheckpointDir != "" {
			werr := writeFileAtomic(s.ckptPath(sess.id), func(w io.Writer) error {
				_, err := w.Write(buf.Bytes())
				return err
			})
			if werr != nil {
				s.cfg.Logger.Error("parking session failed", "session", sess.id, "err", werr)
				return
			}
		} else {
			s.parkedMu.Lock()
			s.parked[sess.id] = parkedSession{blob: buf.Bytes(), at: time.Now()}
			s.parkedMu.Unlock()
		}
		s.removeSession(sess.id)
		sess.abort()
		if d := sess.remeasureState(); d != 0 {
			s.stateTotal.Add(d)
		}
		s.sessionsParked.Add(1)
		parked = true
	})
	return err == nil && parked
}

// liveSession resolves id to an open session, transparently restoring
// ("unparking") a pressure-parked one. Handlers that act on a session use
// this instead of getSession, so parking is invisible to clients.
func (s *Server) liveSession(id string) *session {
	if sess := s.getSession(id); sess != nil {
		return sess
	}
	return s.unpark(id)
}

func (s *Server) unpark(id string) *session {
	// The id names a checkpoint file in dir mode: refuse path metacharacters
	// before they reach the filesystem. Real ids are hex.
	if id == "" || strings.ContainsAny(id, "/\\.") {
		return nil
	}
	var blob []byte
	s.parkedMu.Lock()
	if rec, ok := s.parked[id]; ok {
		blob = rec.blob
		delete(s.parked, id)
	}
	s.parkedMu.Unlock()

	var sess *session
	switch {
	case blob != nil:
		var err error
		if sess, err = restoreSession(bytes.NewReader(blob), time.Now()); err != nil {
			s.cfg.Logger.Error("parked session unrestorable", "session", id, "err", err)
			return nil
		}
	case s.cfg.CheckpointDir != "":
		f, err := os.Open(s.ckptPath(id))
		if err != nil {
			return nil // not parked, plain unknown session
		}
		sess, err = restoreSession(f, time.Now())
		f.Close()
		if err != nil || sess.id != id {
			s.cfg.Logger.Error("checkpoint for session unrestorable", "session", id, "err", err)
			return nil
		}
	default:
		return nil
	}

	s.instrument(sess)
	s.applyCompactPolicy(sess)
	s.mu.Lock()
	if cur, ok := s.sessions[id]; ok {
		s.mu.Unlock()
		sess.abort() // lost an unpark race; drop the duplicate's state
		return cur
	}
	s.sessions[id] = sess
	s.mu.Unlock()
	s.sessionsUnparked.Add(1)
	s.noteSessionState(sess)
	s.cfg.Logger.Info("unparked session", "session", id, "events", sess.events)
	return sess
}

// dropParked discards a parked session's record (in-memory blob or
// checkpoint file) and reports whether one existed — the abort path for
// sessions that are parked rather than live.
func (s *Server) dropParked(id string) bool {
	s.parkedMu.Lock()
	_, ok := s.parked[id]
	delete(s.parked, id)
	s.parkedMu.Unlock()
	if ok {
		s.dropSessionCheckpoint(id)
		return true
	}
	if s.cfg.CheckpointDir == "" || id == "" || strings.ContainsAny(id, "/\\.") {
		return false
	}
	return os.Remove(s.ckptPath(id)) == nil
}

// pruneParked finalizes in-memory parked sessions that have been idle past
// the cutoff, so their races reach the report store like any idle-evicted
// session's. Dir-mode parking needs no pruning: checkpoint files are
// durable and survive to the next restore.
func (s *Server) pruneParked(cutoff time.Time) {
	s.parkedMu.Lock()
	var stale []parkedSession
	for id, rec := range s.parked {
		if rec.at.Before(cutoff) {
			stale = append(stale, rec)
			delete(s.parked, id)
		}
	}
	s.parkedMu.Unlock()
	for _, rec := range stale {
		sess, err := restoreSession(bytes.NewReader(rec.blob), time.Now())
		if err != nil {
			continue
		}
		sess.finalize(s.store, time.Now())
		s.sessionsEvicted.Add(1)
		s.cfg.Logger.Info("evicted stale parked session", "session", sess.id, "events", sess.events)
	}
	if len(stale) > 0 {
		s.checkpointStore()
	}
}
