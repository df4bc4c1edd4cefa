package event

import (
	"fmt"
	"slices"
)

// Symbols interns thread, lock, variable and location names to dense
// indices. The zero value is ready to use. Symbols is not safe for
// concurrent mutation; detectors only read it.
//
// A table built by NewPositionalSymbols is positional: the i-th name of a
// kind is symbol i, repeats included. Its by-name index is built on the
// first interning call, so a decoder that only hands names to readers never
// pays for hashing them.
type Symbols struct {
	threads intern
	locks   intern
	vars    intern
	locs    intern
}

type intern struct {
	byName map[string]int32 // nil until the first interning call or grow
	names  []string
}

// NewPositionalSymbols returns a table whose i-th thread, lock, variable and
// location are the i-th names of the matching slices, even when a name
// repeats: the form of a decoded binary header, whose event operands are
// positions in these tables. The table keeps the slices, clipped so that
// later interning appends never write into a neighbouring table's backing
// array; callers must not modify them.
func NewPositionalSymbols(threads, locks, vars, locs []string) *Symbols {
	return &Symbols{
		threads: intern{names: slices.Clip(threads)},
		locks:   intern{names: slices.Clip(locks)},
		vars:    intern{names: slices.Clip(vars)},
		locs:    intern{names: slices.Clip(locs)},
	}
}

// index builds the by-name index with room for n names. A repeated name
// maps to its first index, the one interning it would have returned.
func (in *intern) index(n int) {
	m := make(map[string]int32, max(n, len(in.names)))
	for i, name := range in.names {
		if _, dup := m[name]; !dup {
			m[name] = int32(i)
		}
	}
	in.byName = m
}

// grow pre-sizes the table for n total symbols so subsequent interning
// neither rehashes the name index nor regrows the name slice.
func (in *intern) grow(n int) {
	if n <= len(in.names) {
		return
	}
	in.index(n)
	if cap(in.names) < n {
		names := make([]string, len(in.names), n)
		copy(names, in.names)
		in.names = names
	}
}

func (in *intern) id(name string) int32 {
	if in.byName == nil {
		in.index(0)
	}
	if id, ok := in.byName[name]; ok {
		return id
	}
	id := int32(len(in.names))
	in.byName[name] = id
	in.names = append(in.names, name)
	return id
}

func (in *intern) name(id int32, prefix string) string {
	if id >= 0 && int(id) < len(in.names) {
		return in.names[id]
	}
	return fmt.Sprintf("%s%d?", prefix, id)
}

// Preallocate pre-sizes the four intern tables for the given total symbol
// counts, so a decoder that knows its symbol universe up front (a text
// trace's "# symbols" header) interns every name without a single
// mid-decode rehash or slice regrowth. Counts at or below the current table sizes are no-ops;
// zero and negative counts are ignored.
func (s *Symbols) Preallocate(threads, locks, vars, locs int) {
	s.threads.grow(threads)
	s.locks.grow(locks)
	s.vars.grow(vars)
	s.locs.grow(locs)
}

// Thread interns a thread name and returns its dense index.
func (s *Symbols) Thread(name string) TID { return TID(s.threads.id(name)) }

// Lock interns a lock name and returns its dense index.
func (s *Symbols) Lock(name string) LID { return LID(s.locks.id(name)) }

// Var interns a variable name and returns its dense index.
func (s *Symbols) Var(name string) VID { return VID(s.vars.id(name)) }

// Location interns a program-location name and returns its dense index.
func (s *Symbols) Location(name string) Loc { return Loc(s.locs.id(name)) }

// ThreadName returns the name of thread t.
func (s *Symbols) ThreadName(t TID) string { return s.threads.name(int32(t), "T") }

// LockName returns the name of lock l.
func (s *Symbols) LockName(l LID) string { return s.locks.name(int32(l), "L") }

// VarName returns the name of variable v.
func (s *Symbols) VarName(v VID) string { return s.vars.name(int32(v), "V") }

// LocationName returns the name of location p, or "?" for NoLoc.
func (s *Symbols) LocationName(p Loc) string {
	if p == NoLoc {
		return "?"
	}
	return s.locs.name(int32(p), "pc")
}

// NumThreads returns the number of interned threads.
func (s *Symbols) NumThreads() int { return len(s.threads.names) }

// NumLocks returns the number of interned locks.
func (s *Symbols) NumLocks() int { return len(s.locks.names) }

// NumVars returns the number of interned variables.
func (s *Symbols) NumVars() int { return len(s.vars.names) }

// NumLocations returns the number of interned locations.
func (s *Symbols) NumLocations() int { return len(s.locs.names) }

// ThreadNames returns the interned thread names in index order.
// The returned slice must not be modified.
func (s *Symbols) ThreadNames() []string { return s.threads.names }

// LockNames returns the interned lock names in index order.
// The returned slice must not be modified.
func (s *Symbols) LockNames() []string { return s.locks.names }

// VarNames returns the interned variable names in index order.
// The returned slice must not be modified.
func (s *Symbols) VarNames() []string { return s.vars.names }

// LocationNames returns the interned location names in index order.
// The returned slice must not be modified.
func (s *Symbols) LocationNames() []string { return s.locs.names }

// Describe renders an event with symbolic names, e.g. "main:acq(lock1)@pc3".
func (s *Symbols) Describe(e Event) string {
	t := s.ThreadName(e.Thread)
	var obj string
	switch e.Kind {
	case Acquire, Release:
		obj = s.LockName(e.Lock())
	case Read, Write:
		obj = s.VarName(e.Var())
	case Fork, Join:
		obj = s.ThreadName(e.Target())
	default:
		obj = fmt.Sprint(e.Obj)
	}
	if e.Loc == NoLoc {
		return fmt.Sprintf("%s:%s(%s)", t, e.Kind, obj)
	}
	return fmt.Sprintf("%s:%s(%s)@%s", t, e.Kind, obj, s.LocationName(e.Loc))
}
