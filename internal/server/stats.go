package server

// Fleet-facing introspection: the hooks a fleet.Agent uses to report this
// worker's load, enumerate its open sessions for coordinator adoption, and
// drop sessions the coordinator failed over elsewhere.

// Stats is a point-in-time load snapshot of the server.
type Stats struct {
	// Sessions is the number of open sessions, parked ones included: they
	// are paused, not gone.
	Sessions int
	// StateBytes is the summed detector-state estimate across open sessions.
	StateBytes int64
	// QueueDepth is the scheduler's current backlog.
	QueueDepth int
	// Draining reports whether Close has begun.
	Draining bool
}

// Stats returns the server's current load snapshot.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	open := len(s.sessions)
	s.mu.Unlock()
	return Stats{
		Sessions:   open,
		StateBytes: s.stateTotal.Load(),
		QueueDepth: s.sched.QueueDepth(),
		Draining:   s.draining.Load(),
	}
}

// SessionIDs lists every open session id, parked ones included — the list a
// worker sends on fleet registration so the coordinator can adopt
// placements after a restart.
func (s *Server) SessionIDs() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := make([]string, 0, len(s.sessions))
	for id := range s.sessions {
		ids = append(ids, id)
	}
	return ids
}

// AbortSession discards one session without reporting, the same as
// DELETE /sessions/{id}: the fleet agent calls it to drop a stale copy the
// coordinator failed over elsewhere while this worker was partitioned —
// finalizing it here would double-count its races in the merged view. A
// parked session is discarded without waking it. Returns false when the
// session isn't open.
func (s *Server) AbortSession(id string) bool {
	s.mu.Lock()
	sess := s.sessions[id]
	delete(s.sessions, id)
	s.mu.Unlock()
	if sess == nil {
		return false
	}
	sess.abort()
	s.noteSessionState(sess)
	s.dropSessionCheckpoint(id)
	return true
}
