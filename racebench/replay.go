package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/engine"
	"repro/internal/event"
	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/traceio"
)

// No span from outside a handler can split it into decode, detector and
// report time, so the traced run replays the same inputs through the same
// public calls in isolation, one layer at a time, and times each call.

// layerAcc accumulates the isolated replay's timings per layer.
type layerAcc struct {
	header, decode, encode time.Duration
	headerEvents           int64 // events the header costs are amortised over
	decodeEvents           int64
	encodeEvents           int64
	bodyBytes              int64 // encoded bytes of the replayed events
	decodeCalls            int64 // NextBlockSoA calls, the end-of-body ones too

	process       map[string]time.Duration
	processEvents map[string]int64
	processBlocks map[string]int64
	stateMax      map[string]int
	queueMax      int
	newSession    []float64 // µs per NewSession call
	addReport     []float64 // µs per session (every engine's report)

	analyze       time.Duration // batch only: AnalyzeStream per engine pass
	analyzeEvents int64
	stageSum      time.Duration // header + decode + process, per engine pass
}

func newLayerAcc() *layerAcc {
	return &layerAcc{
		process:       map[string]time.Duration{},
		processEvents: map[string]int64{},
		processBlocks: map[string]int64{},
		stateMax:      map[string]int{},
	}
}

// replaySession is one replayed trace's fresh engine sessions, in engine
// order.
type replaySession struct {
	names    []string
	sessions []engine.Session
}

func (l *layerAcc) openSessions(names []string, d traceio.Dims) (*replaySession, error) {
	rs := &replaySession{names: names}
	for _, n := range names {
		e, err := engine.New(n, engine.Config{})
		if err != nil {
			return nil, err
		}
		se, ok := e.(engine.SessionEngine)
		if !ok {
			return nil, fmt.Errorf("engine %s has no sessions", n)
		}
		t0 := time.Now()
		s := se.NewSession(d.Threads, d.Locks, d.Vars)
		l.newSession = append(l.newSession, us(time.Since(t0)))
		rs.sessions = append(rs.sessions, s)
	}
	return rs, nil
}

// processBlock runs every engine over b, returning the total time.
func (l *layerAcc) processBlock(rs *replaySession, b *trace.Block) time.Duration {
	var total time.Duration
	for i, s := range rs.sessions {
		name := rs.names[i]
		t0 := time.Now()
		s.ProcessBlock(b)
		d := time.Since(t0)
		total += d
		l.process[name] += d
		l.processEvents[name] += int64(b.Len())
		l.processBlocks[name]++
		if cs, ok := s.(engine.CompactableSession); ok {
			l.stateMax[name] = max(l.stateMax[name], cs.StateBytes())
		}
	}
	return total
}

// finish seals the sessions, times folding their reports into store and
// returns the results in engine order.
func (l *layerAcc) finish(rs *replaySession, store *report.Store, source string, syms *event.Symbols) []*engine.Result {
	results := make([]*engine.Result, len(rs.sessions))
	for i, s := range rs.sessions {
		results[i] = s.Finish()
		if rs.names[i] == "wcp" {
			l.queueMax = max(l.queueMax, results[i].QueueMaxTotal)
		}
	}
	t0 := time.Now()
	for _, r := range results {
		if r.Report != nil {
			store.AddReport(r.Engine, source, r.Report, syms, t0)
		}
	}
	l.addReport = append(l.addReport, us(time.Since(t0)))
	return results
}

// chunkCost is the replayed decode and process time of one served chunk,
// which the server's handler span contains.
type chunkCost struct {
	decode, process time.Duration
	events          int
}

// replayServed replays sessions streamed during the traced phase, in
// order, until budget is spent (the session in progress completes). Each
// session's header goes through WriteHeader and ReadHeader, each chunk
// through EncodeEvents, NewEventStream(...).NextBlockSoA and every engine's
// ProcessBlock, and the sealed results through Store.AddReport. It returns
// the cost of every replayed chunk by span key.
func replayServed(ctx context.Context, l *layerAcc, sessions []servedSession, names []string, chunk int, budget time.Duration) (map[string]chunkCost, error) {
	costs := map[string]chunkCost{}
	store := report.NewStore()
	block := trace.NewBlock(traceio.DefaultBlockSize)
	var hdrBuf, body bytes.Buffer
	start := time.Now()
	for _, ss := range sessions {
		if time.Since(start) > budget {
			break
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		tr := ss.in.tr
		hdrBuf.Reset()
		t0 := time.Now()
		if err := traceio.WriteHeader(&hdrBuf, tr.Symbols, 0); err != nil {
			return nil, err
		}
		hdr, err := traceio.ReadHeader(bytes.NewReader(hdrBuf.Bytes()))
		if err != nil {
			return nil, err
		}
		l.header += time.Since(t0)
		l.headerEvents += int64(len(tr.Events))
		rs, err := l.openSessions(names, hdr.Dims())
		if err != nil {
			return nil, err
		}
		events := 0
		for off := 0; off < len(tr.Events); off += chunk {
			evs := tr.Events[off:min(off+chunk, len(tr.Events))]
			body.Reset()
			t0 := time.Now()
			if err := traceio.EncodeEvents(&body, evs); err != nil {
				return nil, err
			}
			l.encode += time.Since(t0)
			l.encodeEvents += int64(len(evs))
			l.bodyBytes += int64(body.Len())

			var c chunkCost
			st := traceio.NewEventStream(bytes.NewReader(body.Bytes()), hdr, uint64(off))
			for {
				t0 := time.Now()
				n, err := st.NextBlockSoA(block)
				c.decode += time.Since(t0)
				l.decodeCalls++
				if n > 0 {
					c.events += n
					c.process += l.processBlock(rs, block)
				}
				if err == io.EOF {
					break
				}
				if err != nil {
					return nil, fmt.Errorf("replaying %s chunk at %d: %w", ss.in.name, off, err)
				}
			}
			l.decode += c.decode
			l.decodeEvents += int64(c.events)
			events += c.events
			costs[spanKey(ss.trace, routeChunk, fmt.Sprint(off))] = c
		}
		results := l.finish(rs, store, ss.in.name, hdr.Syms)
		if err := checkCounts(ss.in, events, distinctOf(results)); err != nil {
			return nil, fmt.Errorf("replay of %s disagrees with the reference: %w", ss.in.name, err)
		}
	}
	return costs, nil
}
