package race

import (
	"math"
	"slices"

	"repro/internal/event"
	"repro/internal/snap"
	"repro/internal/vc"
)

// Cell is the pair-attribution record of the accesses at one (variable,
// program location, access kind): the location, the trace index of the
// latest access, and a time that compares like the join of the accesses'
// times against any later event. A detector that finds an event unordered
// with that time has found a race between the event's location and Loc.
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
// Vec's storage is created on first need and kept when the cell returns to
// epoch form, so a cell that flips between forms allocates once.
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

// Len returns the number of cells.
func (s *Cells) Len() int { return len(s.list) }

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
// budgets: the cell slice and each vector-form clock of the given width.
func (s *Cells) Bytes(width int) int {
	const cellB, clockB = 32, 4
	n := cap(s.list) * cellB
	for i := range s.list {
		if s.list[i].Vec != nil {
			n += width * clockB
		}
	}
	return n
}

// maxSnapCells bounds the number of cells one decoded set may hold.
const maxSnapCells = 1 << 24

// EncodeSnapshot appends the set to a snapshot payload in location order:
// per cell its location (the first in full, the rest as increments), latest
// access index, and epoch, followed by the sparse clock when the epoch is
// vc.NoEpoch (vector form).
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
		w.Uvarint(uint64(c.Ep))
		if c.Ep == vc.NoEpoch {
			if c.Vec == nil {
				w.Uvarint(0)
			} else {
				w.Sparse(c.Vec.VC())
			}
		}
	}
}

// DecodeSnapshot fills an empty set from a payload written by
// EncodeSnapshot, for clocks of the given width.
func (s *Cells) DecodeSnapshot(rd *snap.Reader, width int) error {
	n, err := rd.Count(maxSnapCells)
	if err != nil {
		return err
	}
	var tmp vc.VC
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
		if c.Ep, err = DecodeEpoch(rd, width); err != nil {
			return err
		}
		if c.Ep != vc.NoEpoch {
			continue
		}
		c.Vec = new(vc.WC)
		c.Vec.Init(width)
		if tmp == nil {
			tmp = vc.New(width)
		} else {
			tmp.Zero()
		}
		if err := rd.Sparse(tmp); err != nil {
			return err
		}
		for t, v := range tmp {
			if v != 0 {
				c.Vec.Set(t, v)
			}
		}
	}
	return nil
}
