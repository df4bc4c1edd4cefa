package server

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/report"
	"repro/internal/snap"
	"repro/internal/trace"
	"repro/internal/traceio"
)

// FuzzRestoreContinue throws bytes at restoreSession and, when it accepts
// them, decodes the bytes after the session's frames as the trace's next
// events: the ones the restored checker accepts go to both engines, then
// the session compacts and finishes. Whatever the input, a panic fails the
// run, and so does an error of no known type — restore must fail with a
// *snap.DecodeError, a header *traceio.DecodeError or a read error, and
// the continuation with a *traceio.DecodeError or a *trace.ValidationError.
//
// The seeds are real session snapshots (meta frame plus wcp and hb
// frames) of a gen.Random fork/join trace at T = 12, each followed by the
// next block of the trace. They are taken at every block boundary before
// and right after a Compact, so references below a lock log's base, open
// critical sections and joined threads are all in the corpus.
func FuzzRestoreContinue(f *testing.F) {
	tr := gen.Random(gen.RandomConfig{Threads: 12, Locks: 2, Vars: 6, Events: 1200, ForkJoin: true, Seed: 11})
	names := []string{"wcp", "hb"}
	engines := make([]engine.Session, len(names))
	for i, name := range names {
		engines[i] = engine.MustNew(name, engine.Config{}).(engine.SessionEngine).NewSession(tr.NumThreads(), tr.NumLocks(), tr.NumVars())
	}
	sess := newSession("fuzz", traceio.Header{Syms: tr.Symbols}, names, engines, time.Now())
	const block = 200
	body := func(at int) []byte { return encodeEvents(f, tr.Events[at:min(at+block, tr.Len())]) }
	addSeed := func(next []byte) {
		var buf bytes.Buffer
		if err := sess.snapshotTo(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(append(buf.Bytes(), next...))
	}
	for at := 0; at < tr.Len(); at += block {
		if _, _, err := sess.ingest(bytes.NewReader(body(at)), uint64(at), "", time.Now()); err != nil {
			f.Fatal(err)
		}
		next := body(min(at+block, tr.Len()))
		addSeed(next)
		sess.compactNow()
		addSeed(next)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		sess, err := restoreSession(r, time.Now())
		if err != nil {
			var de *snap.DecodeError
			var he *traceio.DecodeError
			if !errors.As(err, &de) && !errors.As(err, &he) && !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("untyped restore failure: %v", err)
			}
			return
		}
		st := traceio.NewEventStream(r, sess.header, sess.events)
		b := trace.NewBlock(64)
		for at := int(sess.events); ; {
			n, derr := st.NextBlockSoA(b)
			cerr := sess.check.CheckBlock(b, at)
			var ve *trace.ValidationError
			if errors.As(cerr, &ve) {
				n = ve.Index - at // feed the events before the violation
				b.Kinds, b.Threads, b.Objs, b.Locs = b.Kinds[:n], b.Threads[:n], b.Objs[:n], b.Locs[:n]
			} else if cerr != nil {
				t.Fatalf("untyped check failure: %v", cerr)
			}
			for _, es := range sess.engines {
				es.ProcessBlock(b)
			}
			at += n
			var de *traceio.DecodeError
			if derr != nil && derr != io.EOF && !errors.As(derr, &de) {
				t.Fatalf("untyped decode failure: %v", derr)
			}
			if cerr != nil || derr != nil {
				break
			}
		}
		sess.compactNow()
		sess.finalize(report.NewStore(), time.Now())
	})
}
