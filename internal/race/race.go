// Package race models race reports: distinct race pairs of program
// locations (the paper's Table 1 metric, §4: "A WCP (HB) race pair is an
// unordered tuple of program locations corresponding to some pair of events
// in the trace that are unordered by the partial order"), together with
// occurrence counts and the race-distance statistic of §4.3. It also holds
// the race-check state the WCP and HB detectors share: the Cell, an exact
// epoch-or-vector time, which each keeps for every variable's reads and
// writes (Rx and Wx) and, with pair tracking, per program location.
package race

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/event"
)

// Pair is an unordered tuple of program locations in race. A and B are
// stored normalized with A ≤ B so a Pair is directly usable as a map key.
type Pair struct {
	A, B event.Loc
}

// MakePair normalizes two locations into a Pair.
func MakePair(a, b event.Loc) Pair {
	if b < a {
		a, b = b, a
	}
	return Pair{a, b}
}

// Ctx carries the optional context of a race observation, the stable
// fingerprint inputs a deduplicating report store needs beyond the location
// pair: the racy variable and the locks held by the observing thread.
// Locks is borrowed — RecordCtx copies it when a pair is first observed, so
// callers may reuse the backing array across calls.
type Ctx struct {
	// Var is the variable both racing accesses touch, or -1 when the
	// recording detector does not supply one.
	Var event.VID
	// Locks are the locks held by the observing (second) thread at the racy
	// access, innermost last; nil when not supplied.
	Locks []event.LID
}

// NoCtx is the empty context recorded by detectors that track locations
// only.
var NoCtx = Ctx{Var: -1}

// Info accumulates per-pair observations.
type Info struct {
	// Count is the number of event pairs observed in race at this location
	// pair.
	Count int
	// FirstEvent is the trace index of the second (later) event of the
	// first observed race at this pair.
	FirstEvent int
	// MinDistance and MaxDistance track the separation, in events, between
	// the racing event and the most recent conflicting event at the partner
	// location (the paper's race distance, §4.3; ours is the distance to
	// the most recent unordered partner, a conservative per-observation
	// proxy for the minimum separation).
	MinDistance int
	MaxDistance int
	// Var and Locks are the Ctx of the pair's first observation (Var is -1
	// and Locks nil when the detector recorded none).
	Var   event.VID
	Locks []event.LID
}

// Report collects distinct race pairs in first-observation order.
type Report struct {
	pairs map[Pair]*Info
	order []Pair
}

// NewReport returns an empty report.
func NewReport() *Report {
	return &Report{pairs: make(map[Pair]*Info)}
}

// Record notes a race between locations a and b observed at trace index
// eventIdx, with the given event distance (use 0 when unknown), and no
// fingerprint context.
func (r *Report) Record(a, b event.Loc, eventIdx, distance int) {
	r.RecordCtx(a, b, eventIdx, distance, NoCtx)
}

// RecordCtx is Record with fingerprint context: ctx is stored when the pair
// is first observed (Locks is copied then; later observations don't touch
// it, keeping the hot path allocation-free).
func (r *Report) RecordCtx(a, b event.Loc, eventIdx, distance int, ctx Ctx) {
	p := MakePair(a, b)
	info, ok := r.pairs[p]
	if !ok {
		info = &Info{FirstEvent: eventIdx, MinDistance: distance, MaxDistance: distance, Var: ctx.Var}
		if len(ctx.Locks) > 0 {
			info.Locks = append([]event.LID(nil), ctx.Locks...)
		}
		r.pairs[p] = info
		r.order = append(r.order, p)
	} else {
		if distance < info.MinDistance {
			info.MinDistance = distance
		}
		if distance > info.MaxDistance {
			info.MaxDistance = distance
		}
	}
	info.Count++
}

// Distinct returns the number of distinct race pairs (Table 1 cols 6–10).
func (r *Report) Distinct() int { return len(r.pairs) }

// Pairs returns the distinct pairs in first-observation order.
func (r *Report) Pairs() []Pair { return r.order }

// Info returns the accumulated observations for p, or nil.
func (r *Report) Info(p Pair) *Info { return r.pairs[p] }

// Has reports whether the pair (a, b) was observed.
func (r *Report) Has(a, b event.Loc) bool {
	_, ok := r.pairs[MakePair(a, b)]
	return ok
}

// Merge folds other into r, preserving r's observation order for pairs
// already present. Windowed detectors merge per-window reports this way.
func (r *Report) Merge(other *Report) {
	for _, p := range other.order {
		oi := other.pairs[p]
		info, ok := r.pairs[p]
		if !ok {
			cp := *oi
			r.pairs[p] = &cp
			r.order = append(r.order, p)
			continue
		}
		info.Count += oi.Count
		if oi.MinDistance < info.MinDistance {
			info.MinDistance = oi.MinDistance
		}
		if oi.MaxDistance > info.MaxDistance {
			info.MaxDistance = oi.MaxDistance
		}
	}
}

// MaxDistance returns the largest distance recorded across all pairs
// (the §4.3 "maximum distance" statistic), or 0 for an empty report.
func (r *Report) MaxDistance() int {
	max := 0
	for _, info := range r.pairs {
		if info.MaxDistance > max {
			max = info.MaxDistance
		}
	}
	return max
}

// PairsOverDistance returns how many distinct pairs were ever observed at a
// distance of at least d events (§4.3 windowing-loss argument).
func (r *Report) PairsOverDistance(d int) int {
	n := 0
	for _, info := range r.pairs {
		if info.MaxDistance >= d {
			n++
		}
	}
	return n
}

// Format renders the report with symbolic location names, one pair per
// line, sorted by location names for stable output.
func (r *Report) Format(syms *event.Symbols) string {
	lines := make([]string, 0, len(r.pairs))
	for p, info := range r.pairs {
		lines = append(lines, fmt.Sprintf("race: (%s, %s) count=%d maxdist=%d",
			syms.LocationName(p.A), syms.LocationName(p.B), info.Count, info.MaxDistance))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}
