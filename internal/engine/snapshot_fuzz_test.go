package engine

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"repro/internal/gen"
	"repro/internal/snap"
	"repro/internal/trace"
)

// FuzzSnapshotRoundTrip throws arbitrary bytes at the session decoder. The
// contract under attack: RestoreSession either fails with a typed
// *snap.DecodeError (or a plain read error such as io.EOF) or succeeds —
// and on success the restored session's own snapshot must be byte-identical
// to the input, so no hostile payload can smuggle in state that the encoder
// would not itself produce. It must never panic.
//
// The seed corpus is real snapshots from both sessionable engines at a few
// points in a fork/join-heavy trace, each taken before and right after a
// compaction, plus targeted mutations (a trailing byte, truncation, version
// skew, a bit flip); the fuzzer takes it from there with bit flips,
// splices, and length games.
func FuzzSnapshotRoundTrip(f *testing.F) {
	tr := gen.Random(gen.RandomConfig{Threads: 6, Locks: 3, Vars: 8, Events: 2500, ForkJoin: true, Seed: 5})
	addSeeds := func(name string, s Session) {
		var buf bytes.Buffer
		if err := s.(SnapshotSession).Snapshot(&buf); err != nil {
			f.Fatalf("%s: snapshot: %v", name, err)
		}
		b := buf.Bytes()
		f.Add(b)
		f.Add(append(b[:len(b):len(b)], 0)) // a frame with a trailing byte
		if len(b) > 8 {
			f.Add(b[:len(b)/2]) // truncated frame
			skew := append([]byte(nil), b...)
			skew[4]++ // version byte after the magic
			f.Add(skew)
			flip := append([]byte(nil), b...)
			flip[len(flip)/3] ^= 0x40 // payload bit flip
			f.Add(flip)
		}
	}
	for _, name := range sessionEngineNames {
		e := MustNew(name, Config{}).(SessionEngine)
		s := e.NewSession(tr.NumThreads(), tr.NumLocks(), tr.NumVars())
		for i := 0; i < len(tr.Events); i += 500 {
			end := i + 500
			if end > len(tr.Events) {
				end = len(tr.Events)
			}
			s.ProcessBlock(trace.BlockOf(tr.Events[i:end]))
			addSeeds(name, s)
			s.(CompactableSession).Compact()
			addSeeds(name, s)
		}
	}
	f.Add([]byte{})
	f.Add([]byte("rpsn"))

	f.Fuzz(func(t *testing.T, data []byte) {
		// RestoreSession reads one frame and leaves what follows it, as
		// concatenated session files need; only the frame must re-encode.
		r := bytes.NewReader(data)
		s, _, err := RestoreSession(r)
		if err != nil {
			var de *snap.DecodeError
			if !errors.As(err, &de) && !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("untyped decode failure: %v", err)
			}
			return
		}
		var again bytes.Buffer
		if err := s.(SnapshotSession).Snapshot(&again); err != nil {
			t.Fatalf("resnap of accepted payload failed: %v", err)
		}
		if frame := data[:len(data)-r.Len()]; !bytes.Equal(again.Bytes(), frame) {
			t.Fatalf("accepted non-canonical payload: resnap %d bytes, frame %d bytes",
				again.Len(), len(frame))
		}
	})
}
