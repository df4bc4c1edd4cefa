// Package report turns per-trace race reports into deduplicated,
// fingerprinted race classes. A Fingerprint identifies "the same race"
// across sessions, traces and restarts by stable symbolic inputs — the
// reporting engine, the two program locations, the racy variable, and the
// lock context at first observation — so an always-on analysis service
// (cmd/raced) can collapse millions of observations of one bug into a
// single counted entry. The Store is safe for concurrent use by many
// ingestion sessions.
package report

import (
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/event"
	"repro/internal/race"
)

// Fingerprint identifies a deduplicated race class. All fields are
// symbolized names, not dense indices, so fingerprints are stable across
// traces that intern their symbols in different orders.
type Fingerprint struct {
	// Engine is the engine that predicted the race ("wcp", "hb", ...).
	Engine string `json:"engine"`
	// LocA and LocB are the racing program locations, sorted (LocA <= LocB)
	// so the fingerprint is order-independent.
	LocA string `json:"loc_a"`
	LocB string `json:"loc_b"`
	// Var is the variable both accesses touch, "" when the recording
	// detector didn't supply one.
	Var string `json:"var,omitempty"`
	// Locks is the sorted ","-joined lock context of the first observation,
	// "" when none.
	Locks string `json:"locks,omitempty"`
}

// Entry is one race class with its accumulated observations.
type Entry struct {
	Fingerprint
	// Count is the total number of racy event pairs folded into this class.
	Count int64 `json:"count"`
	// Traces is the number of distinct ingestions (sessions or one-shot
	// analyses) that reported the class.
	Traces int64 `json:"traces"`
	// MaxDistance is the largest race distance observed (§4.3).
	MaxDistance int `json:"max_distance"`
	// FirstSeen and LastSeen bracket the class's observations.
	FirstSeen time.Time `json:"first_seen"`
	LastSeen  time.Time `json:"last_seen"`
	// FirstSource names the ingestion that first reported the class.
	FirstSource string `json:"first_source,omitempty"`
}

// NewFingerprint builds the fingerprint of one race pair using the symbol
// table that named it.
func NewFingerprint(engine string, p race.Pair, info *race.Info, syms *event.Symbols) Fingerprint {
	f := Fingerprint{
		Engine: engine,
		LocA:   syms.LocationName(p.A),
		LocB:   syms.LocationName(p.B),
	}
	if f.LocB < f.LocA {
		f.LocA, f.LocB = f.LocB, f.LocA
	}
	if info != nil {
		if info.Var >= 0 {
			f.Var = syms.VarName(info.Var)
		}
		if len(info.Locks) > 0 {
			names := make([]string, len(info.Locks))
			for i, l := range info.Locks {
				names[i] = syms.LockName(l)
			}
			sort.Strings(names)
			f.Locks = strings.Join(names, ",")
		}
	}
	return f
}

// Store is a concurrent deduplicating set of race classes.
type Store struct {
	mu    sync.RWMutex
	m     map[Fingerprint]*Entry
	order []Fingerprint // first-seen order
	obs   int64         // total observations folded in
	// names holds the names of every class the store created (see
	// detach), nameChunk bytes at a time. Classes are never removed, so
	// a chunk holds no dead names.
	names strings.Builder
}

const nameChunk = 4 << 10

// detach returns f with its names copied into the store's own name chunks.
// The names may point into a session's symbol table, whose names share one
// backing string: a stored class holding one would keep that whole table
// alive for the life of the store.
func (s *Store) detach(f Fingerprint) Fingerprint {
	n := len(f.LocA) + len(f.LocB) + len(f.Var) + len(f.Locks)
	if s.names.Cap()-s.names.Len() < n {
		// A fresh chunk: the strings already handed out keep the old one.
		s.names = strings.Builder{}
		s.names.Grow(max(n, nameChunk))
	}
	start := s.names.Len()
	s.names.WriteString(f.LocA)
	s.names.WriteString(f.LocB)
	s.names.WriteString(f.Var)
	s.names.WriteString(f.Locks)
	all := s.names.String()[start:]
	f.LocA, all = all[:len(f.LocA)], all[len(f.LocA):]
	f.LocB, all = all[:len(f.LocB)], all[len(f.LocB):]
	f.Var, f.Locks = all[:len(f.Var)], all[len(f.Var):]
	return f
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{m: make(map[Fingerprint]*Entry)}
}

// Add folds one race pair into the store and reports whether it created a
// new class.
func (s *Store) Add(f Fingerprint, count int64, maxDistance int, source string, at time.Time) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.obs += count
	e, ok := s.m[f]
	if !ok {
		f = s.detach(f)
		s.m[f] = &Entry{
			Fingerprint: f,
			Count:       count,
			Traces:      1,
			MaxDistance: maxDistance,
			FirstSeen:   at,
			LastSeen:    at,
			FirstSource: source,
		}
		s.order = append(s.order, f)
		return true
	}
	e.Count += count
	e.Traces++
	if maxDistance > e.MaxDistance {
		e.MaxDistance = maxDistance
	}
	e.LastSeen = at
	return false
}

// AddReport folds every distinct pair of one engine's per-trace report into
// the store, returning how many new classes it created. A nil or empty
// report is a no-op.
func (s *Store) AddReport(engine, source string, rep *race.Report, syms *event.Symbols, at time.Time) (created int) {
	if rep == nil {
		return 0
	}
	for _, p := range rep.Pairs() {
		info := rep.Info(p)
		f := NewFingerprint(engine, p, info, syms)
		if s.Add(f, int64(info.Count), info.MaxDistance, source, at) {
			created++
		}
	}
	return created
}

// Len returns the number of distinct race classes.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.m)
}

// Observations returns the total number of racy event pairs folded in.
func (s *Store) Observations() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.obs
}

// Filter selects race classes in List. The zero value selects everything.
type Filter struct {
	// Engine, when non-empty, matches Entry.Engine exactly.
	Engine string
	// Loc, when non-empty, matches entries where either location contains
	// the substring.
	Loc string
	// Var, when non-empty, matches Entry.Var exactly.
	Var string
	// MinCount drops classes observed fewer than MinCount times.
	MinCount int64
	// Limit caps the number of returned entries; <= 0 is unlimited.
	Limit int
}

func (f Filter) match(e *Entry) bool {
	if f.Engine != "" && e.Engine != f.Engine {
		return false
	}
	if f.Var != "" && e.Var != f.Var {
		return false
	}
	if f.Loc != "" && !strings.Contains(e.LocA, f.Loc) && !strings.Contains(e.LocB, f.Loc) {
		return false
	}
	return e.Count >= f.MinCount
}

// List returns snapshot copies of the matching entries in first-seen order.
func (s *Store) List(f Filter) []Entry {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []Entry
	for _, fp := range s.order {
		e := s.m[fp]
		if !f.match(e) {
			continue
		}
		out = append(out, *e)
		if f.Limit > 0 && len(out) == f.Limit {
			break
		}
	}
	return out
}
