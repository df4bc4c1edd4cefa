package server

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/snap"
	"repro/internal/trace"
	"repro/internal/traceio"
)

// Checkpointing turns crash recovery and graceful restarts into the same
// code path: the server periodically serializes every open session (and the
// dedup report store) to CheckpointDir, and a restarting server re-opens
// whatever it finds there. A session checkpoint is a meta frame (id, engine
// names, trace header, ingest counters, the §2.1 checker's state) followed
// by one engine.Snapshot frame per engine — all snap frames, so every byte
// is CRC-guarded and a torn write from a crash mid-checkpoint is detected
// and skipped, never silently half-restored.
//
// The same frames serve live migration: GET /sessions/{id}/snapshot hands
// the serialized session to the client, POST /sessions/restore accepts it
// into another process.

const (
	ckptSuffix       = ".ckpt"
	storeCkptName    = "reports" + ckptSuffix
	maxCkptID        = 128
	maxCkptEngines   = 16
	maxCkptHeaderLen = 64 << 20
)

// snapshotTo serializes the session: meta frame then engine frames. A
// parked session writes the frames it was parked with, verbatim. Caller
// must hold the session's scheduler key; s.mu is taken here.
func (s *session) snapshotTo(w io.Writer) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errSessionClosed
	}
	if s.failed != nil {
		return fmt.Errorf("session %s failed ingest: %w", s.id, s.failed)
	}
	if s.parked.Load() {
		frames, err := s.parkedFrames()
		if err == nil {
			_, err = w.Write(frames)
		}
		return err
	}
	var hdr bytes.Buffer
	if err := traceio.WriteHeader(&hdr, s.header.Syms, s.header.Events); err != nil {
		return err
	}
	sw := snap.NewWriter(w)
	sw.String(s.id)
	sw.Uvarint(uint64(len(s.names)))
	for _, n := range s.names {
		sw.String(n)
	}
	sw.Bytes(hdr.Bytes())
	sw.Uvarint(s.events)
	sw.Uvarint(uint64(s.chunks))
	sw.Varint(s.created.UnixNano())
	s.check.EncodeSnapshot(sw)
	if err := sw.Close(); err != nil {
		return err
	}
	for i, es := range s.engines {
		ss, ok := es.(engine.SnapshotSession)
		if !ok {
			return fmt.Errorf("engine %s does not support snapshots", s.names[i])
		}
		if err := ss.Snapshot(w); err != nil {
			return err
		}
	}
	return nil
}

// restoreSession reconstructs a session from a checkpoint stream. The
// restored session resumes exactly at the serialized event count; a client
// recovering from a crash re-sends its trace from that offset (GET
// /sessions/{id} reports it).
func restoreSession(r io.Reader, now time.Time) (*session, error) {
	rd, err := snap.NewReader(r)
	if err != nil {
		return nil, err
	}
	id, err := rd.String(maxCkptID)
	if err != nil {
		return nil, err
	}
	if id == "" || strings.ContainsAny(id, "/\\.") {
		return nil, &snap.DecodeError{Reason: "bad session id"}
	}
	nEngines, err := rd.Count(maxCkptEngines)
	if err != nil {
		return nil, err
	}
	if nEngines == 0 {
		return nil, &snap.DecodeError{Reason: "session has no engines"}
	}
	names := make([]string, nEngines)
	for i := range names {
		if names[i], err = rd.String(maxCkptID); err != nil {
			return nil, err
		}
	}
	hdrBytes, err := rd.Bytes(maxCkptHeaderLen)
	if err != nil {
		return nil, err
	}
	header, err := traceio.ReadHeader(bytes.NewReader(hdrBytes))
	if err != nil {
		return nil, fmt.Errorf("checkpoint header: %w", err)
	}
	events, err := rd.Uvarint()
	if err != nil {
		return nil, err
	}
	chunks, err := rd.Count(1 << 40)
	if err != nil {
		return nil, err
	}
	createdNS, err := rd.Varint()
	if err != nil {
		return nil, err
	}
	check, err := trace.DecodeChecker(rd, header.Syms, events)
	if err != nil {
		return nil, err
	}
	if err := rd.Close(); err != nil {
		return nil, err
	}
	engines := make([]engine.Session, nEngines)
	for i := range engines {
		es, name, err := engine.RestoreSession(r)
		if err != nil {
			return nil, fmt.Errorf("engine %s: %w", names[i], err)
		}
		if name != names[i] {
			return nil, &snap.DecodeError{Reason: fmt.Sprintf(
				"engine frame %d is %q, meta says %q", i, name, names[i])}
		}
		engines[i] = es
	}
	sess := newSession(id, header, names, engines, now)
	sess.check = check
	sess.events = events
	sess.chunks = chunks
	sess.created = time.Unix(0, createdNS)
	return sess, nil
}

// --- server-side checkpoint plumbing ---

func (s *Server) ckptPath(id string) string {
	return filepath.Join(s.cfg.CheckpointDir, id+ckptSuffix)
}

// writeFileAtomic writes via a temp file and rename, so a crash mid-write
// leaves either the old checkpoint or none — never a torn file under the
// final name.
func writeFileAtomic(path string, write func(io.Writer) error) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := write(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// checkpointStore persists the dedup report store. Called whenever entries
// may have been folded in (finish, evict, shutdown) and on the periodic
// checkpoint tick.
func (s *Server) checkpointStore() {
	if s.cfg.CheckpointDir == "" {
		return
	}
	err := writeFileAtomic(filepath.Join(s.cfg.CheckpointDir, storeCkptName), s.store.Snapshot)
	if err != nil {
		s.cfg.Logger.Error("report store checkpoint failed", "err", err)
	}
}

// checkpointSession persists one session. Must run under the session's
// scheduler key so it serializes with chunk ingestion. A parked session is
// skipped: with a CheckpointDir it was parked to its checkpoint file.
func (s *Server) checkpointSession(sess *session) error {
	if sess.parked.Load() {
		return nil
	}
	t0 := time.Now()
	err := writeFileAtomic(s.ckptPath(sess.id), sess.snapshotTo)
	s.obs.checkpoint.ObserveSince(t0)
	sp := obs.Span{Trace: sess.trace(""), Session: sess.id, Name: "checkpoint",
		Start: t0, Duration: time.Since(t0).Seconds()}
	if err != nil {
		sp.Err = err.Error()
	}
	s.obs.span(sp)
	return err
}

// dropSessionCheckpoint removes a finished/evicted/aborted session's file.
// The store checkpoint is written first by callers, so a crash between the
// two at worst re-counts the session's races as one extra trace — it never
// loses them.
func (s *Server) dropSessionCheckpoint(id string) {
	if s.cfg.CheckpointDir == "" {
		return
	}
	if err := os.Remove(s.ckptPath(id)); err != nil && !os.IsNotExist(err) {
		s.cfg.Logger.Warn("removing session checkpoint failed", "session", id, "err", err)
	}
}

// checkpointAll snapshots the report store and every healthy open session.
// Each session snapshot is scheduled under the session's key; saturated
// submissions are skipped (the next tick retries).
func (s *Server) checkpointAll(wait bool) (done int) {
	if s.cfg.CheckpointDir == "" {
		return 0
	}
	s.checkpointStore()
	s.mu.Lock()
	open := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		open = append(open, sess)
	}
	s.mu.Unlock()
	var wg sync.WaitGroup
	var ok atomic.Int64
	for _, sess := range open {
		sess := sess
		wg.Add(1)
		err := s.sched.Submit(sess.id, func() {
			defer wg.Done()
			if err := s.checkpointSession(sess); err != nil {
				s.cfg.Logger.Error("session checkpoint failed", "session", sess.id, "err", err)
				return
			}
			ok.Add(1)
		})
		if err != nil {
			wg.Done()
			s.cfg.Logger.Warn("session checkpoint not scheduled", "session", sess.id, "err", err)
		}
	}
	if wait {
		wg.Wait()
	}
	return int(ok.Load())
}

// checkpointLoop periodically checkpoints everything until stopped.
func (s *Server) checkpointLoop() {
	defer close(s.ckptDone)
	t := time.NewTicker(s.cfg.CheckpointEvery)
	defer t.Stop()
	for {
		select {
		case <-s.ckptStop:
			return
		case <-t.C:
			s.checkpointAll(false)
		}
	}
}

// restoreCheckpoints loads the report store and every session checkpoint in
// CheckpointDir. Corrupt or over-limit checkpoints are skipped with a log
// line — a torn file from a crash must not stop the server from coming up.
func (s *Server) restoreCheckpoints() {
	dir := s.cfg.CheckpointDir
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		s.cfg.Logger.Error("checkpoint dir unusable", "dir", dir, "err", err)
		return
	}
	if f, err := os.Open(filepath.Join(dir, storeCkptName)); err == nil {
		store, rerr := report.RestoreStore(f)
		f.Close()
		if rerr != nil {
			s.cfg.Logger.Warn("report store checkpoint unreadable, starting empty", "err", rerr)
		} else {
			s.store = store
			s.cfg.Logger.Info("restored report store",
				"classes", store.Len(), "observations", store.Observations())
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		s.cfg.Logger.Error("reading checkpoint dir failed", "dir", dir, "err", err)
		return
	}
	now := time.Now()
	for _, de := range entries {
		name := de.Name()
		if name == storeCkptName || !strings.HasSuffix(name, ckptSuffix) || de.IsDir() {
			continue
		}
		path := filepath.Join(dir, name)
		f, err := os.Open(path)
		if err != nil {
			s.cfg.Logger.Warn("opening checkpoint failed", "checkpoint", name, "err", err)
			continue
		}
		sess, rerr := restoreSession(f, now)
		f.Close()
		if rerr != nil {
			s.cfg.Logger.Warn("checkpoint unreadable, skipping", "checkpoint", name, "err", rerr)
			continue
		}
		if sess.id+ckptSuffix != name {
			s.cfg.Logger.Warn("checkpoint names a different session, skipping",
				"checkpoint", name, "session", sess.id)
			continue
		}
		d := sess.header.Dims()
		if d.Threads > s.cfg.MaxThreads || max(d.Locks, d.Vars, d.Locs) > s.cfg.MaxSymbols {
			s.cfg.Logger.Warn("checkpoint exceeds configured limits, skipping", "checkpoint", name)
			continue
		}
		s.attach(sess)
		s.mu.Lock()
		full := len(s.sessions) >= s.cfg.MaxSessions
		if !full {
			s.sessions[sess.id] = sess
		}
		s.mu.Unlock()
		if full {
			s.cfg.Logger.Warn("session limit reached, checkpoint not restored", "checkpoint", name)
			continue
		}
		s.noteSessionState(sess)
		s.cfg.Logger.Info("restored session from checkpoint",
			"session", sess.id, "events", sess.events, "engines", sess.names)
	}
}

// applyCompactPolicy installs the configured compaction policy on every
// engine of the session that supports it.
func (s *Server) applyCompactPolicy(sess *session) {
	if s.cfg.CompactEveryEvents <= 0 {
		return
	}
	p := engine.CompactPolicy{EveryEvents: s.cfg.CompactEveryEvents}
	for _, es := range sess.engines {
		if cs, ok := es.(engine.CompactableSession); ok {
			cs.SetCompactPolicy(p)
		}
	}
}

// --- HTTP handlers ---

// handleCheckpoint (POST /checkpoint) forces a full checkpoint and blocks
// until every session snapshot completed.
func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	if s.refuseDraining(w) {
		return
	}
	if s.cfg.CheckpointDir == "" {
		obs.WriteError(w, http.StatusConflict, "server has no checkpoint directory configured")
		return
	}
	n := s.checkpointAll(true)
	obs.WriteJSON(w, http.StatusOK, map[string]any{"sessions": n})
}

// handleSessionSnapshot (GET /sessions/{id}/snapshot) streams the session's
// serialized state: the migration handoff. The snapshot runs under the
// session's scheduler key, so it captures a chunk boundary; a parked
// session serves its parked frames without waking.
func (s *Server) handleSessionSnapshot(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	sess := s.getSession(id)
	if sess == nil {
		obs.WriteError(w, http.StatusNotFound, "unknown session %q", id)
		return
	}
	var buf bytes.Buffer
	var snapErr error
	if err := s.sched.Do(r.Context(), id, func() {
		snapErr = sess.snapshotTo(&buf)
	}); err != nil {
		s.shedOrFail(w, err)
		return
	}
	if snapErr != nil {
		obs.WriteError(w, http.StatusConflict, "%v", snapErr)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(buf.Bytes())
}

// handleSessionRestore (POST /sessions/restore) accepts a serialized
// session (from a checkpoint file or GET .../snapshot on another process)
// and opens it here under its original id.
func (s *Server) handleSessionRestore(w http.ResponseWriter, r *http.Request) {
	if s.refuseDraining(w) {
		return
	}
	if s.refuseFenced(w, r) {
		return
	}
	tStart := time.Now()
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	sess, err := restoreSession(body, time.Now())
	if err != nil {
		obs.WriteError(w, http.StatusBadRequest, "restore: %v", err)
		return
	}
	d := sess.header.Dims()
	if d.Threads > s.cfg.MaxThreads || max(d.Locks, d.Vars, d.Locs) > s.cfg.MaxSymbols {
		obs.WriteError(w, http.StatusBadRequest, "snapshot exceeds configured limits")
		return
	}
	// A failover restore re-attaches the session's original request trace:
	// the coordinator forwards the id it recorded at create time, so one
	// trace id spans the session's life across worker deaths.
	sess.traceID = obs.TraceIDFrom(r)
	s.attach(sess)
	s.mu.Lock()
	_, exists := s.sessions[sess.id]
	full := len(s.sessions) >= s.cfg.MaxSessions
	if !exists && !full {
		s.sessions[sess.id] = sess
	}
	s.mu.Unlock()
	if exists {
		obs.WriteError(w, http.StatusConflict, "session %s already open", sess.id)
		return
	}
	if full {
		s.shed429(w, 5, "session limit (%d) reached", s.cfg.MaxSessions)
		return
	}
	s.sessionsCreated.Add(1)
	s.noteSessionState(sess)
	s.obs.span(obs.Span{
		Trace: sess.traceID, Session: sess.id, Name: "restore",
		Start: tStart, Duration: time.Since(tStart).Seconds(), Events: sess.events,
	})
	s.cfg.Logger.Info("session restored via API",
		"session", sess.id, "trace", sess.traceID, "events", sess.events)
	st := sess.status()
	obs.WriteJSON(w, http.StatusOK, map[string]any{"id": sess.id, "events": st.Events, "chunks": st.Chunks})
}
