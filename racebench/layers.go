package main

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
)

// perLayer names every per-layer metric with its unit, in the order
// BENCHMARK.json declares them. A traced run prints all of them; a layer
// that is not on a workload's path reads 0 there.
var perLayer = []struct{ name, unit string }{
	{"traceio.header_ns_per_event", "ns"},
	{"traceio.decode_ns_per_event", "ns"},
	{"traceio.encode_ns_per_event", "ns"},
	{"traceio.wire_bytes_per_event", "bytes"},
	{"core.process_ns_per_event", "ns"},
	{"hb.process_ns_per_event", "ns"},
	{"core.state_mb_peak", "MB"},
	{"hb.state_mb_peak", "MB"},
	{"core.queue_max_total", "count"},
	{"engine.analyze_ns_per_event", "ns"},
	{"engine.pipeline_overlap", "ratio"},
	{"engine.new_session_us", "us"},
	{"server.create_us_p50", "us"},
	{"server.chunk_us_p50", "us"},
	{"server.finish_us_p50", "us"},
	{"server.self_ns_per_event", "ns"},
	{"server.queue_wait_us_mean", "us"},
	{"server.rejects", "count"},
	{"server.decode_vs_histogram", "ratio"},
	{"core.process_vs_histogram", "ratio"},
	{"hb.process_vs_histogram", "ratio"},
	{"server.events_replayed", "count"},
	{"server.shed", "count"},
	{"client.self_us_per_chunk", "us"},
	{"client.wire_us_p50", "us"},
	{"client.attempts_per_request", "ratio"},
	{"fleet.proxy_self_us_p50", "us"},
	{"fleet.forward_wire_us_p50", "us"},
	{"fleet.pull_ms_p50", "ms"},
	{"fleet.pull_bytes_per_s", "bytes/s"},
	{"fleet.placement_skew", "ratio"},
	{"fleet.forward_retries", "count"},
	{"report.add_us_per_session", "us"},
	{"gc.alloc_bytes_per_event", "bytes"},
	{"gc.cycles", "count"},
	{"bench.layer_sum_ratio", "ratio"},
	{"bench.trace_overhead_pct", "%"},
}

// layerMetrics starts a traced run's result with every per-layer metric 0.
func layerMetrics() metrics {
	m := metrics{}
	for _, l := range perLayer {
		m.set(l.name, l.unit, 0)
	}
	return m
}

// setv overwrites a declared metric's value, keeping its unit.
func (m metrics) setv(name string, v float64) {
	mt, ok := m[name]
	if !ok {
		panic("undeclared per-layer metric " + name)
	}
	mt.Value = v
	m[name] = mt
}

func nsPer(d time.Duration, n int64) float64 { return ratio(float64(d.Nanoseconds()), float64(n)) }

// emit writes the replay's layer costs.
func (l *layerAcc) emit(m metrics) {
	m.setv("traceio.header_ns_per_event", nsPer(l.header, l.headerEvents))
	m.setv("traceio.decode_ns_per_event", nsPer(l.decode, l.decodeEvents))
	m.setv("traceio.encode_ns_per_event", nsPer(l.encode, l.encodeEvents))
	m.setv("traceio.wire_bytes_per_event", ratio(float64(l.bodyBytes), float64(l.encodeEvents)))
	m.setv("core.process_ns_per_event", nsPer(l.process["wcp"], l.processEvents["wcp"]))
	m.setv("hb.process_ns_per_event", nsPer(l.process["hb"], l.processEvents["hb"]))
	m.setv("core.state_mb_peak", float64(l.stateMax["wcp"])/1e6)
	m.setv("hb.state_mb_peak", float64(l.stateMax["hb"])/1e6)
	m.setv("core.queue_max_total", float64(l.queueMax))
	m.setv("engine.new_session_us", mean(l.newSession))
	m.setv("report.add_us_per_session", mean(l.addReport))
	if l.analyzeEvents > 0 {
		m.setv("engine.analyze_ns_per_event", nsPer(l.analyze, l.analyzeEvents))
		m.setv("engine.pipeline_overlap", ratio(float64(l.stageSum), float64(l.analyze)))
	}
}

// covered returns how much of parent's interval its children cover: the
// union of their intervals, clipped to the parent.
func covered(parent *span, children []*span) time.Duration {
	type iv struct{ s, e time.Time }
	var ivs []iv
	for _, c := range children {
		s, e := c.start, c.end
		if s.Before(parent.start) {
			s = parent.start
		}
		if e.After(parent.end) {
			e = parent.end
		}
		if e.After(s) {
			ivs = append(ivs, iv{s, e})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].s.Before(ivs[j].s) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		if i == 0 || v.s.After(cur.e) {
			if i > 0 {
				total += cur.e.Sub(cur.s)
			}
			cur = v
			continue
		}
		if v.e.After(cur.e) {
			cur.e = v.e
		}
	}
	if len(ivs) > 0 {
		total += cur.e.Sub(cur.s)
	}
	return total
}

// within returns the spans under key that started inside parent: the
// children a header-linked parent caused.
func within(idx map[string][]*span, parent *span) []*span {
	var out []*span
	for _, c := range idx[parent.key] {
		if !c.start.Before(parent.start) && !c.start.After(parent.end) {
			out = append(out, c)
		}
	}
	return out
}

// spanSplit is the traced phase's outside-in time split.
type spanSplit struct {
	clientSelf   []float64 // µs per chunk call
	clientWire   []float64 // µs per chunk attempt
	proxySelf    []float64 // µs per coordinator chunk handler
	forwardWire  []float64 // µs per forwarded chunk attempt
	handler      map[string][]float64
	serverSelf   time.Duration
	selfEvents   int64
	layerSum     []float64 // ms per chunk call with replay costs
	attempts     int
	requests     int
	rejects      map[int]int // non-2xx handler responses by status
	pullMs       []float64
	pullBytes    int64
	perWorker    map[string]int
	replayChunks int
}

// splitSpans attributes every traced chunk call's time to the layers it
// crossed, using the replay's decode and process cost for each chunk.
func splitSpans(spans []span, costs map[string]chunkCost, fleetMode bool) *spanSplit {
	out := &spanSplit{handler: map[string][]float64{}, perWorker: map[string]int{}, rejects: map[int]int{}}
	rtsByOp := map[int][]*span{}
	coordH := map[string][]*span{}
	fwdRT := map[string][]*span{}
	workerH := map[string][]*span{}
	var ops []*span
	for i := range spans {
		s := &spans[i]
		switch s.kind {
		case kindOp:
			ops = append(ops, s)
		case kindClientRT:
			if s.op >= 0 {
				rtsByOp[s.op] = append(rtsByOp[s.op], s)
				out.attempts++
			}
			if s.route == routeCreate && s.worker != "" {
				out.perWorker[s.worker]++
			}
		case kindCoordH:
			coordH[s.key] = append(coordH[s.key], s)
		case kindFwdRT:
			fwdRT[s.key] = append(fwdRT[s.key], s)
			if s.route == routeSnapshot && s.status == 200 {
				out.pullMs = append(out.pullMs, ms(s.dur()))
				out.pullBytes += s.bytes
			}
		case kindWorkerH:
			workerH[s.key] = append(workerH[s.key], s)
			if s.route != routeOther && s.route != routeSnapshot {
				out.handler[s.route] = append(out.handler[s.route], us(s.dur()))
			}
		}
		if (s.kind == kindCoordH || s.kind == kindWorkerH) && s.route != routeOther && s.status/100 != 2 {
			out.rejects[s.status]++
		}
	}
	out.requests = len(ops)
	firstHop := workerH
	if fleetMode {
		firstHop = coordH
	}
	for _, op := range ops {
		if op.route != routeChunk {
			continue
		}
		rts := rtsByOp[op.op]
		self := op.dur() - covered(op, rts)
		out.clientSelf = append(out.clientSelf, us(self))
		sum := self
		var workers []*span
		for _, rt := range rts {
			hs := within(firstHop, rt)
			wire := rt.dur() - covered(rt, hs)
			out.clientWire = append(out.clientWire, us(wire))
			sum += wire
			if !fleetMode {
				workers = append(workers, hs...)
				continue
			}
			for _, h := range hs {
				fs := within(fwdRT, h)
				proxy := h.dur() - covered(h, fs)
				out.proxySelf = append(out.proxySelf, us(proxy))
				sum += proxy
				for _, f := range fs {
					ws := within(workerH, f)
					fwire := f.dur() - covered(f, ws)
					out.forwardWire = append(out.forwardWire, us(fwire))
					sum += fwire
					workers = append(workers, ws...)
				}
			}
		}
		c, ok := costs[op.key]
		if !ok {
			continue
		}
		var handled time.Duration
		for _, w := range workers {
			handled += w.dur()
		}
		serverSelf := max(handled-c.decode-c.process, 0)
		out.serverSelf += serverSelf
		out.selfEvents += int64(op.events)
		out.layerSum = append(out.layerSum, ms(sum+serverSelf+c.decode+c.process))
		out.replayChunks++
	}
	return out
}

// emit writes the span split's metrics; untracedChunkMs is the mean
// chunk-call latency of the untraced phase, phase the traced phase's length.
func (s *spanSplit) emit(m metrics, fleetMode bool, untracedChunkMs, phase float64, workers int) {
	m.setv("client.self_us_per_chunk", mean(s.clientSelf))
	m.setv("client.wire_us_p50", quantile(s.clientWire, 0.5))
	m.setv("client.attempts_per_request", ratio(float64(s.attempts), float64(s.requests)))
	m.setv("server.create_us_p50", quantile(s.handler[routeCreate], 0.5))
	m.setv("server.chunk_us_p50", quantile(s.handler[routeChunk], 0.5))
	m.setv("server.finish_us_p50", quantile(s.handler[routeFinish], 0.5))
	m.setv("server.self_ns_per_event", nsPer(s.serverSelf, s.selfEvents))
	total := 0
	for _, n := range s.rejects {
		total += n
	}
	m.setv("server.rejects", float64(total))
	m.setv("bench.layer_sum_ratio", ratio(mean(s.layerSum), untracedChunkMs))
	if !fleetMode {
		return
	}
	m.setv("fleet.proxy_self_us_p50", quantile(s.proxySelf, 0.5))
	m.setv("fleet.forward_wire_us_p50", quantile(s.forwardWire, 0.5))
	m.setv("fleet.pull_ms_p50", quantile(s.pullMs, 0.5))
	m.setv("fleet.pull_bytes_per_s", float64(s.pullBytes)/phase)
	placed, most := 0, 0
	for _, n := range s.perWorker {
		placed += n
		most = max(most, n)
	}
	m.setv("fleet.placement_skew", ratio(float64(most), float64(placed)/float64(workers)))
}

// histSum returns the summed _sum and _count of a histogram family across
// expositions, restricted to series whose labels contain label ("" for all).
func histSum(fams [][]*obs.ParsedFamily, name, label string) (sum, count float64) {
	for _, fs := range fams {
		for _, f := range fs {
			if f.Name != name {
				continue
			}
			for _, l := range f.Lines {
				if label != "" && !strings.Contains(l.Labels, label) {
					continue
				}
				v, err := strconv.ParseFloat(l.Value, 64)
				if err != nil {
					continue
				}
				switch l.Name {
				case name + "_sum":
					sum += v
				case name + "_count":
					count += v
				}
			}
		}
	}
	return sum, count
}

// counterSum adds a counter across expositions.
func counterSum(fams [][]*obs.ParsedFamily, name string) float64 {
	total := 0.0
	for _, fs := range fams {
		for _, f := range fs {
			if f.Name != name {
				continue
			}
			for _, l := range f.Lines {
				if v, err := strconv.ParseFloat(l.Value, 64); err == nil {
					total += v
				}
			}
		}
	}
	return total
}

// crossCheck scrapes the workers' and the coordinator's /metrics and sets
// the agreement between the replayed stage costs and the program's own
// histograms, the queue wait, and the waste counters.
func crossCheck(ctx context.Context, sys *system, l *layerAcc, m metrics, log io.Writer) error {
	var workers [][]*obs.ParsedFamily
	for _, n := range sys.workers {
		fs, err := sys.scrape(ctx, n.lis.url)
		if err != nil {
			return err
		}
		workers = append(workers, fs)
	}
	qs, qc := histSum(workers, "raced_queue_wait_seconds", "")
	m.setv("server.queue_wait_us_mean", ratio(qs, qc)*1e6)
	ds, dc := histSum(workers, "raced_decode_seconds", "")
	replayDecode := ratio(l.decode.Seconds(), float64(l.decodeCalls))
	m.setv("server.decode_vs_histogram", ratio(replayDecode, ratio(ds, dc)))
	fmt.Fprintf(log, "racebench: cross-check decode: replay %.0f ns per NextBlockSoA call over %d calls, raced_decode_seconds %.0f ns mean over %.0f samples\n",
		replayDecode*1e9, l.decodeCalls, ratio(ds, dc)*1e9, dc)
	for _, e := range []struct{ engine, metric string }{{"wcp", "core.process_vs_histogram"}, {"hb", "hb.process_vs_histogram"}} {
		ps, pc := histSum(workers, "raced_engine_process_seconds", `engine="`+e.engine+`"`)
		replay := ratio(l.process[e.engine].Seconds(), float64(l.processBlocks[e.engine]))
		m.setv(e.metric, ratio(replay, ratio(ps, pc)))
		if l.processBlocks[e.engine] > 0 {
			fmt.Fprintf(log, "racebench: cross-check %s: replay %.0f µs per block over %d blocks, raced_engine_process_seconds %.0f µs mean over %.0f samples\n",
				e.engine, replay*1e6, l.processBlocks[e.engine], ratio(ps, pc)*1e6, pc)
		}
	}
	m.setv("server.events_replayed", counterSum(workers, "raced_events_replayed_total"))
	m.setv("server.shed", counterSum(workers, "raced_shed_total"))
	if sys.coord != nil {
		fs, err := sys.scrape(ctx, sys.url)
		if err != nil {
			return err
		}
		m.setv("fleet.forward_retries", counterSum([][]*obs.ParsedFamily{fs}, "fleet_forward_retries_total"))
	}
	return nil
}
