package race

import (
	"math"
	"slices"

	"repro/internal/event"
	"repro/internal/snap"
	"repro/internal/vc"
)

// Cell is the race-check record of a set of accesses to one variable: a
// time that compares like the join of the accesses' times against any
// later event. A detector that finds an event unordered with that time has
// found a race with one of the accesses. The detectors keep one cell per
// access kind for the whole variable (the Rx and Wx of §3.2, whose Loc and
// Last go unused) and, with pair tracking, one per (program location,
// access kind), where Loc is the location and Last the trace index of the
// latest access.
//
// The time takes one of two forms:
//
//   - Epoch form (Ep != vc.NoEpoch): the accesses are totally ordered, so
//     the latest dominates the rest, and the latest alone — one (thread,
//     clock) pair — decides every later comparison with a single compare.
//   - Vector form (Ep == vc.NoEpoch): the accesses are unordered, and Vec
//     holds a clock that compares like their join. Its meaning is the
//     detector's (see internal/core and internal/hb); a nil Vec is ⊥, the
//     time of a cell with no accesses yet.
//
// A detector returns a cell to epoch form when it records an access that
// every recorded access is ordered before and whose whole time the epoch
// characterizes. Vec's storage is created on first need and kept when the
// cell returns to epoch form, so a cell that flips between forms allocates
// once.
type Cell struct {
	Loc  event.Loc
	Last int
	Ep   vc.Epoch
	Vec  *vc.WC
}

// Vector switches c to vector form and returns its clock. A cell in epoch
// form is seeded with its epoch's single component.
func (c *Cell) Vector(width int) *vc.WC {
	if c.Vec == nil {
		c.Vec = new(vc.WC)
		c.Vec.Init(width)
	} else if c.Ep != vc.NoEpoch {
		c.Vec.Zero()
	}
	if c.Ep != vc.NoEpoch {
		c.Vec.Set(c.Ep.TID(), c.Ep.Clock())
		c.Ep = vc.NoEpoch
	}
	return c.Vec
}

// Bytes estimates the storage c's clock of the given width retains.
func (c *Cell) Bytes(width int) int {
	if c.Vec == nil {
		return 0
	}
	return 4 * width
}

// Fresh reports whether c records no access: vector form at ⊥.
func (c *Cell) Fresh() bool { return c.Ep == vc.NoEpoch && c.Vec == nil }

// LeqVC reports whether c's time is ⊑ v componentwise: the epoch's one
// component, or every component of the clock.
func (c *Cell) LeqVC(v vc.VC) bool {
	if c.Ep != vc.NoEpoch {
		return c.Ep.LeqVC(v)
	}
	return c.Vec == nil || c.Vec.LeqVC(v)
}

// EncodeTime appends c's time to a snapshot payload: the epoch, followed
// by the sparse clock when the epoch is vc.NoEpoch (vector form).
func (c *Cell) EncodeTime(w *snap.Writer) {
	w.Uvarint(uint64(c.Ep))
	if c.Ep != vc.NoEpoch {
		return
	}
	if c.Vec == nil {
		w.Uvarint(0)
	} else {
		w.Sparse(c.Vec.VC())
	}
}

// DecodeTime reads a time written by EncodeTime into c, for clocks of
// len(tmp) components; tmp is scratch. A vector with no nonzero component
// decodes as ⊥ (nil Vec).
func (c *Cell) DecodeTime(rd *snap.Reader, tmp vc.VC) error {
	var err error
	if c.Ep, err = DecodeEpoch(rd, len(tmp)); err != nil || c.Ep != vc.NoEpoch {
		return err
	}
	tmp.Zero()
	if err := rd.Sparse(tmp); err != nil {
		return err
	}
	for t, v := range tmp {
		if v != 0 {
			if c.Vec == nil {
				c.Vec = new(vc.WC)
				c.Vec.Init(len(tmp))
			}
			c.Vec.Set(t, v)
		}
	}
	return nil
}

// DecodeEpoch reads an epoch written as a uvarint and rejects one whose
// thread lies outside the clock width, which the first comparison against
// a clock of that width would index past.
func DecodeEpoch(rd *snap.Reader, width int) (vc.Epoch, error) {
	v, err := rd.Uvarint()
	if err != nil {
		return vc.NoEpoch, err
	}
	if e := vc.Epoch(v); e.TID() < width {
		return e, nil
	}
	return vc.NoEpoch, &snap.DecodeError{Reason: "epoch thread out of range"}
}

// Cells holds the cells of one (variable, access kind), sorted by
// location. A racy access reports its partner locations in that order,
// which depends on nothing but the locations themselves: not on when a
// cell was created, so not on whether compaction retired and recreated it
// or a snapshot carried it across a restart. A location is found by binary
// search, so a variable accessed from thousands of locations stays
// O(log n) per access.
type Cells struct {
	list []Cell
}

// List returns the cells in location order. Callers may modify the cells
// in place but not the slice.
func (s *Cells) List() []Cell { return s.list }

// At returns the cell of loc, creating it (empty: vector form, ⊥) on the
// location's first access. The pointer is valid until the next At.
func (s *Cells) At(loc event.Loc) *Cell {
	i, found := s.search(loc)
	if !found {
		s.list = slices.Insert(s.list, i, Cell{Loc: loc})
	}
	return &s.list[i]
}

// search returns the position of loc in the list, or where it belongs.
func (s *Cells) search(loc event.Loc) (int, bool) {
	lo, hi := 0, len(s.list)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if s.list[m].Loc < loc {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(s.list) && s.list[lo].Loc == loc
}

// Bytes estimates the retained storage of the set for detector state
// budgets: the cell slice and each cell's clock of the given width.
func (s *Cells) Bytes(width int) int {
	const cellB = 32
	n := cap(s.list) * cellB
	for i := range s.list {
		n += s.list[i].Bytes(width)
	}
	return n
}

// maxSnapCells bounds the number of cells one decoded set may hold.
const maxSnapCells = 1 << 24

// EncodeSnapshot appends the set to a snapshot payload in location order:
// per cell its location (the first in full, the rest as increments), latest
// access index, and time.
func (s *Cells) EncodeSnapshot(w *snap.Writer) {
	w.Uvarint(uint64(len(s.list)))
	for i := range s.list {
		c := &s.list[i]
		if i == 0 {
			w.Int(int(c.Loc))
		} else {
			w.Uvarint(uint64(c.Loc - s.list[i-1].Loc))
		}
		w.Int(c.Last)
		c.EncodeTime(w)
	}
}

// DecodeSnapshot fills an empty set from a payload written by
// EncodeSnapshot, for clocks of len(tmp) components; tmp is scratch.
func (s *Cells) DecodeSnapshot(rd *snap.Reader, tmp vc.VC) error {
	n, err := rd.Count(maxSnapCells)
	if err != nil {
		return err
	}
	loc := event.Loc(0)
	for i := 0; i < n; i++ {
		if i == 0 {
			v, err := rd.I32()
			if err != nil {
				return err
			}
			loc = event.Loc(v)
		} else {
			d, err := rd.Uvarint()
			if err != nil {
				return err
			}
			if d == 0 || d > math.MaxInt32 || int64(loc)+int64(d) > math.MaxInt32 {
				return &snap.DecodeError{Reason: "cell locations not increasing"}
			}
			loc += event.Loc(d)
		}
		s.list = append(s.list, Cell{Loc: loc})
		c := &s.list[i]
		if c.Last, err = rd.Int(); err != nil {
			return err
		}
		if err := c.DecodeTime(rd, tmp); err != nil {
			return err
		}
	}
	return nil
}
