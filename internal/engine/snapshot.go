package engine

import (
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/hb"
	"repro/internal/snap"
)

// This file wires bounded-memory sessions through the engine layer: a
// compaction policy the server can hang on any sessionable engine, and the
// Snapshot/Restore pair that serializes a whole session (engine identity,
// accumulated busy time, detector state) into one checksummed snap frame.

// CompactPolicy sets the cadence of detector state compaction on a
// session. The zero value disables compaction.
type CompactPolicy struct {
	// EveryEvents compacts every that many processed events (rounded up to
	// block boundaries).
	EveryEvents int
}

// compactState is the per-session compaction throttle. Its hot-path cost
// is one integer add and compare per block.
type compactState struct {
	policy CompactPolicy
	since  int
}

// due counts a processed block of events and reports whether the policy's
// cadence has elapsed, restarting the count when it has.
func (c *compactState) due(events int) bool {
	if c.policy.EveryEvents <= 0 {
		return false
	}
	if c.since += events; c.since < c.policy.EveryEvents {
		return false
	}
	c.since = 0
	return true
}

// CompactableSession is a Session whose detector supports state compaction
// (wcp, hb).
type CompactableSession interface {
	Session
	// Compact retires dominated detector state immediately.
	Compact()
	// SetCompactPolicy installs (or replaces) the session's compaction
	// policy; the zero policy disables compaction.
	SetCompactPolicy(CompactPolicy)
	// StateBytes estimates the detector's retained state size.
	StateBytes() int
}

// SnapshotSession is a Session that can serialize its full state as one
// versioned, checksummed frame, restorable with RestoreSession.
type SnapshotSession interface {
	Session
	Snapshot(w io.Writer) error
}

func (s *wcpSession) Compact()                         { s.d.Compact() }
func (s *wcpSession) SetCompactPolicy(p CompactPolicy) { s.compact.policy = p }
func (s *wcpSession) StateBytes() int                  { return s.d.StateBytes() }

func (s *hbSession) Compact()                         { s.d.Compact() }
func (s *hbSession) SetCompactPolicy(p CompactPolicy) { s.compact.policy = p }
func (s *hbSession) StateBytes() int                  { return s.d.StateBytes() }

// maxSnapName bounds the engine-name string in a session frame.
const maxSnapName = 64

// Snapshot writes the session as one snap frame: engine name, accumulated
// busy time, then the detector payload.
func (s *wcpSession) Snapshot(w io.Writer) error { return writeFrame(w, "wcp", s.busy, s.d) }

// Snapshot writes the session as one snap frame (see wcpSession.Snapshot).
func (s *hbSession) Snapshot(w io.Writer) error { return writeFrame(w, "hb", s.busy, s.d) }

func writeFrame(w io.Writer, name string, busy time.Duration, d interface{ EncodeSnapshot(*snap.Writer) error }) error {
	sw := snap.NewWriter(w)
	sw.String(name)
	sw.Uvarint(uint64(busy))
	if err := d.EncodeSnapshot(sw); err != nil {
		return err
	}
	return sw.Close()
}

// RestoreSession reads one session frame from r and reconstructs the
// session, returning it with its engine name. The restored session resumes
// exactly where the snapshot was taken: feeding it the remaining blocks of
// the trace yields a Result byte-identical to an uninterrupted run. Decode
// failures are *snap.DecodeError (or an underlying read error); a clean EOF
// before the frame starts returns io.EOF.
func RestoreSession(r io.Reader) (Session, string, error) {
	rd, err := snap.NewReader(r)
	if err != nil {
		return nil, "", err
	}
	name, err := rd.String(maxSnapName)
	if err != nil {
		return nil, "", err
	}
	busyNS, err := rd.Uvarint()
	if err != nil {
		return nil, "", err
	}
	busy := time.Duration(busyNS)
	var sess Session
	switch name {
	case "wcp":
		d, err := core.DecodeSnapshot(rd)
		if err != nil {
			return nil, "", err
		}
		if d.Options() != wcpOptions {
			return nil, "", &snap.DecodeError{Reason: "detector options do not match engine " + name}
		}
		sess = &wcpSession{d: d, busy: busy}
	case "hb":
		d, err := hb.DecodeSnapshot(rd)
		if err != nil {
			return nil, "", err
		}
		if d.Options() != hbOptions {
			return nil, "", &snap.DecodeError{Reason: "detector options do not match engine " + name}
		}
		sess = &hbSession{d: d, busy: busy}
	default:
		return nil, "", &snap.DecodeError{Reason: "unknown engine " + name}
	}
	if err := rd.Close(); err != nil {
		return nil, "", err
	}
	return sess, name, nil
}
