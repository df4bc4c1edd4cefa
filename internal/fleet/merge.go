package fleet

import (
	"context"
	"encoding/json"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"sync"

	"repro/internal/obs"
	"repro/internal/report"
)

// workerReports is the worker-side GET /reports response shape.
type workerReports struct {
	Total   int            `json:"total"`
	Matched int            `json:"matched"`
	Reports []report.Entry `json:"reports"`
}

// handleReports fans GET /reports out to every reachable worker and merges
// the results into one deduplicated view: entries with the same fingerprint
// are one race class wherever its sessions happened to be placed. The
// engine/loc/var filters are pushed down to the workers (they shrink the
// transfer); min_count and limit only make sense against the merged totals,
// so they are applied here after the merge.
func (c *Coordinator) handleReports(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	var minCount int64
	var limit int
	if v := q.Get("min_count"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			obs.WriteError(w, http.StatusBadRequest, "bad min_count %q", v)
			return
		}
		minCount = n
	}
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			obs.WriteError(w, http.StatusBadRequest, "bad limit %q", v)
			return
		}
		limit = n
	}
	down := url.Values{}
	for _, k := range []string{"engine", "loc", "var"} {
		if v := q.Get(k); v != "" {
			down.Set(k, v)
		}
	}

	type target struct{ name, url string }
	c.mu.Lock()
	targets := make([]target, 0, len(c.workers))
	for _, wk := range c.workers {
		// Suspect and draining workers still answer reads; only the
		// definitively dead are skipped.
		if wk.state != workerDead && wk.url != "" {
			targets = append(targets, target{wk.name, wk.url})
		}
	}
	c.mu.Unlock()

	var mu sync.Mutex
	merged := make(map[report.Fingerprint]*report.Entry)
	unreachable := 0
	var wg sync.WaitGroup
	for _, t := range targets {
		wg.Add(1)
		go func(t target) {
			defer wg.Done()
			u := t.url + "/reports"
			if len(down) > 0 {
				u += "?" + down.Encode()
			}
			pr, err := c.forward(context.Background(), "GET", u, nil, nil)
			if err != nil || pr.status != http.StatusOK {
				mu.Lock()
				unreachable++
				mu.Unlock()
				return
			}
			var wr workerReports
			if json.Unmarshal(pr.body, &wr) != nil {
				mu.Lock()
				unreachable++
				mu.Unlock()
				return
			}
			mu.Lock()
			for i := range wr.Reports {
				mergeEntry(merged, &wr.Reports[i])
			}
			mu.Unlock()
		}(t)
	}
	wg.Wait()
	c.reportMerges.Add(1)

	entries := make([]report.Entry, 0, len(merged))
	for _, e := range merged {
		entries = append(entries, *e)
	}
	// Deterministic order across coordinator restarts and worker sets:
	// first observation wins, fingerprint breaks ties.
	sort.Slice(entries, func(i, j int) bool {
		a, b := &entries[i], &entries[j]
		if !a.FirstSeen.Equal(b.FirstSeen) {
			return a.FirstSeen.Before(b.FirstSeen)
		}
		return fingerprintLess(a.Fingerprint, b.Fingerprint)
	})
	total := len(entries)
	if minCount > 0 {
		kept := entries[:0]
		for _, e := range entries {
			if e.Count >= minCount {
				kept = append(kept, e)
			}
		}
		entries = kept
	}
	if limit > 0 && len(entries) > limit {
		entries = entries[:limit]
	}
	obs.WriteJSON(w, http.StatusOK, map[string]any{
		"total":       total,
		"matched":     len(entries),
		"reports":     entries,
		"workers":     len(targets),
		"unreachable": unreachable,
	})
}

// mergeEntry folds one worker's entry into the merged map: counts and trace
// tallies add, the distance maximum and the observation window widen, and
// the earliest observer keeps the first-source credit.
func mergeEntry(m map[report.Fingerprint]*report.Entry, e *report.Entry) {
	cur, ok := m[e.Fingerprint]
	if !ok {
		cp := *e
		m[e.Fingerprint] = &cp
		return
	}
	cur.Count += e.Count
	cur.Traces += e.Traces
	if e.MaxDistance > cur.MaxDistance {
		cur.MaxDistance = e.MaxDistance
	}
	if e.FirstSeen.Before(cur.FirstSeen) {
		cur.FirstSeen = e.FirstSeen
		cur.FirstSource = e.FirstSource
	}
	if e.LastSeen.After(cur.LastSeen) {
		cur.LastSeen = e.LastSeen
	}
}

func fingerprintLess(a, b report.Fingerprint) bool {
	if a.Engine != b.Engine {
		return a.Engine < b.Engine
	}
	if a.LocA != b.LocA {
		return a.LocA < b.LocA
	}
	if a.LocB != b.LocB {
		return a.LocB < b.LocB
	}
	if a.Var != b.Var {
		return a.Var < b.Var
	}
	return a.Locks < b.Locks
}
