package main

import (
	"sort"
	"time"
)

// A shared machine's neighbours take CPU in bursts that last seconds, and
// contention only ever slows a run down. So every timed end-to-end metric
// is computed over the faster half of a phase's windows: whole passes on
// batch-table1 (identical content every pass), whole sessions on
// serve-wide (normalised per event), and fixed time windows on fleet-small
// (dozens of short sessions each). A change that makes the code slower
// slows every window, the faster half included.

// fleetWindow is the time window fleet-small's samples are grouped by.
const fleetWindow = 500 * time.Millisecond

// chunkSample is one timed blocking call and when it returned.
type chunkSample struct {
	at     time.Time
	ms     float64
	events int
}

// unitRec is one window candidate: a batch pass or a served session.
type unitRec struct {
	start, end time.Time
	events     int
	chunks     []chunkSample
	finishMs   float64 // finish reply wait, or a pass's AddReport total
	finished   bool    // the unit completed, so finishMs and its span count
}

func (u *unitRec) seconds() float64 { return u.end.Sub(u.start).Seconds() }

// selection is the samples of the windows a metric is computed over.
type selection struct {
	events, seconds float64
	chunkMs         []float64
	finishMs        []float64
	sessionMs       []float64
	windows, of     int
}

func (s *selection) rate() float64 { return ratio(s.events, s.seconds) }

func (s *selection) addUnit(u *unitRec) {
	s.events += float64(u.events)
	s.seconds += u.seconds()
	for _, c := range u.chunks {
		s.chunkMs = append(s.chunkMs, c.ms)
	}
	if u.finished {
		s.finishMs = append(s.finishMs, u.finishMs)
		s.sessionMs = append(s.sessionMs, ms(u.end.Sub(u.start)))
	}
}

// fasterUnits selects the completed units with the lowest time per event,
// the faster half of them.
func fasterUnits(units []*unitRec) *selection {
	var done []*unitRec
	for _, u := range units {
		if u.finished && u.events > 0 {
			done = append(done, u)
		}
	}
	sort.Slice(done, func(i, j int) bool {
		return done[i].seconds()/float64(done[i].events) < done[j].seconds()/float64(done[j].events)
	})
	sel := &selection{of: len(done)}
	for _, u := range done[:(len(done)+1)/2] {
		sel.addUnit(u)
		sel.windows++
	}
	return sel
}

// fasterWindows cuts [start, deadline) into fixed windows, credits every
// chunk, finish and session to the window it completed in, and selects the
// half of the windows that acknowledged the most events.
func fasterWindows(units []*unitRec, start, deadline time.Time, win time.Duration) *selection {
	n := int(deadline.Sub(start) / win)
	if n == 0 {
		return &selection{}
	}
	type window struct {
		events                       int
		chunkMs, finishMs, sessionMs []float64
	}
	ws := make([]window, n)
	slot := func(t time.Time) int {
		if t.Before(start) {
			return -1
		}
		i := int(t.Sub(start) / win)
		if i >= n {
			return -1
		}
		return i
	}
	for _, u := range units {
		for _, c := range u.chunks {
			if i := slot(c.at); i >= 0 {
				ws[i].events += c.events
				ws[i].chunkMs = append(ws[i].chunkMs, c.ms)
			}
		}
		if i := slot(u.end); i >= 0 && u.finished {
			ws[i].finishMs = append(ws[i].finishMs, u.finishMs)
			ws[i].sessionMs = append(ws[i].sessionMs, ms(u.end.Sub(u.start)))
		}
	}
	sort.Slice(ws, func(i, j int) bool { return ws[i].events > ws[j].events })
	sel := &selection{of: n}
	for _, w := range ws[:(n+1)/2] {
		sel.events += float64(w.events)
		sel.seconds += win.Seconds()
		sel.chunkMs = append(sel.chunkMs, w.chunkMs...)
		sel.finishMs = append(sel.finishMs, w.finishMs...)
		sel.sessionMs = append(sel.sessionMs, w.sessionMs...)
		sel.windows++
	}
	return sel
}

// endToEnd writes the timed end-to-end metrics of a selection.
func (s *selection) endToEnd(m metrics) {
	m.set("events_per_s", "events/s", s.rate())
	m.set("chunk_ms_p50", "ms", quantile(s.chunkMs, 0.5))
	m.set("chunk_ms_p90", "ms", quantile(s.chunkMs, 0.9))
	m.set("finish_ms_p50", "ms", quantile(s.finishMs, 0.5))
	m.set("session_ms_p50", "ms", quantile(s.sessionMs, 0.5))
}
