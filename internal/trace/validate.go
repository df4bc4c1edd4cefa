package trace

import (
	"fmt"

	"repro/internal/event"
	"repro/internal/snap"
)

// ValidationError describes a well-formedness violation at a specific event.
type ValidationError struct {
	// Index is the offending event's position in the trace.
	Index int
	// Event is the offending event.
	Event event.Event
	// Reason explains the violation.
	Reason string
}

func (e *ValidationError) Error() string {
	return fmt.Sprintf("trace: event #%d (%v): %s", e.Index, e.Event, e.Reason)
}

// Validate checks the two trace well-formedness properties of §2.1 plus
// basic sanity of fork/join events and ids:
//
//  1. Lock semantics: between two acquires of the same lock there is a
//     release of that lock (critical sections on one lock never overlap
//     across threads). Reentrant acquisition by the holding thread is
//     permitted (well-nestedness pairs them).
//  2. Well-nestedness: critical sections of a thread nest properly: a
//     release matches the most recent unmatched acquire of its thread, and
//     every release has a matching acquire.
//  3. Fork/join sanity: a thread performs no event before it is forked
//     (when a fork event for it exists), a fork targets a thread with no
//     prior events, a join targets a thread that performs no later events,
//     and no thread forks or joins itself.
//  4. Every event has a valid kind, and its thread and operand lie in the
//     universe of the trace's symbol table.
//
// A nil return means every detector in this repository can process the
// trace. Validate runs a Checker over the events; tr.SoA would cache a
// second copy of every trace it checks.
func Validate(tr *Trace) error {
	c := NewChecker(tr.Symbols)
	for i, e := range tr.Events {
		if reason := c.step(i, e.Kind, e.Thread, e.Obj); reason != "" {
			return &ValidationError{i, e, reason}
		}
	}
	return nil
}

// Checker is Validate one block at a time: the state of the rules over the
// events checked so far, so that a stream is checked as it arrives. Each
// block is checked before any detector sees it; the detectors' shortcuts
// (and Theorem 1) hold only on the traces it accepts. The state is kept in
// slices indexed by thread (the open-lock stack, the started, forked and
// joined bits, and the join's index) and by lock (holder and reentrancy
// depth), so a read or write costs a few loads.
//
// A Checker that has reported a violation must not be fed further.
type Checker struct {
	syms    *event.Symbols
	threads []checkThread
	locks   []checkLock
	limits  [event.Join + 1]uint // per kind, the operand's universe
}

// checkThread is a thread's part of the Checker state.
type checkThread struct {
	open   []int32 // locks of the open critical sections, innermost last
	joinAt int     // index of the last join of the thread, when joined
	flags  uint8   // started, forked, joined
}

// Bits of checkThread.flags.
const (
	started = 1 << iota // the thread has performed an event
	forked              // a fork has targeted the thread
	joined              // a join has targeted the thread
)

// checkLock is a lock's part of the Checker state: while depth > 0, holder
// holds the lock, depth times over.
type checkLock struct {
	holder event.TID
	depth  int32
}

// NewChecker returns a checker, before the first event, for traces over
// the universe of syms (which also names threads and locks in messages).
func NewChecker(syms *event.Symbols) *Checker {
	nt, nl, nv := uint(syms.NumThreads()), uint(syms.NumLocks()), uint(syms.NumVars())
	return &Checker{
		syms:    syms,
		threads: make([]checkThread, nt),
		locks:   make([]checkLock, nl),
		limits:  [...]uint{event.Acquire: nl, event.Release: nl, event.Read: nv, event.Write: nv, event.Fork: nt, event.Join: nt},
	}
}

// CheckBlock checks the events of b, whose first event has index base in
// the trace, after the events checked so far. It returns the first
// violation as a *ValidationError; the state then covers the events before
// it.
func (c *Checker) CheckBlock(b *Block, base int) error {
	threads, objs := b.Threads[:len(b.Kinds)], b.Objs[:len(b.Kinds)]
	ths, nvars := c.threads, c.limits[event.Read]
	for i, k := range b.Kinds {
		// A read or write by a live thread in range on a variable in range,
		// the bulk of any trace, needs no call.
		if t := uint(threads[i]); k-uint8(event.Read) < 2 && t < uint(len(ths)) && uint(objs[i]) < nvars {
			if f := &ths[t].flags; *f&joined == 0 {
				*f |= started
				continue
			}
		}
		if reason := c.step(base+i, event.Kind(k), event.TID(threads[i]), objs[i]); reason != "" {
			return &ValidationError{base + i, b.At(i), reason}
		}
	}
	return nil
}

// step checks event i and, when it is well formed, applies it to the state
// and returns "". Otherwise it returns the reason and changes nothing.
func (c *Checker) step(i int, k event.Kind, t event.TID, obj int32) string {
	switch {
	case !k.Valid():
		return "invalid event kind"
	case uint(t) >= uint(len(c.threads)):
		return "thread id out of range"
	case uint(obj) >= c.limits[k]:
		return "operand id out of range"
	}
	ts := &c.threads[t]
	if ts.flags&joined != 0 {
		return fmt.Sprintf("thread performs event after being joined at #%d", ts.joinAt)
	}
	switch k {
	case event.Acquire:
		ls := &c.locks[obj]
		if ls.depth > 0 && ls.holder != t {
			return fmt.Sprintf("lock semantics violated: lock held by %s", c.syms.ThreadName(ls.holder))
		}
		ls.holder = t
		ls.depth++ // reentrant past the first
		ts.open = append(ts.open, obj)
	case event.Release:
		n := len(ts.open)
		if n == 0 {
			return "release with no matching acquire"
		}
		if top := ts.open[n-1]; top != obj {
			return fmt.Sprintf("not well nested: innermost open critical section is on %s", c.syms.LockName(event.LID(top)))
		}
		ts.open = ts.open[:n-1]
		c.locks[obj].depth--
	case event.Fork:
		us := &c.threads[obj]
		switch {
		case obj == int32(t):
			return "thread forks itself"
		case us.flags&started != 0:
			return "fork target already performed events"
		case us.flags&forked != 0:
			return "thread forked twice"
		}
		us.flags |= forked
	case event.Join:
		if obj == int32(t) {
			return "thread joins itself"
		}
		us := &c.threads[obj]
		us.flags |= joined
		us.joinAt = i
	}
	ts.flags |= started
	return ""
}

// EncodeSnapshot appends the checker's state to w: per thread its flags,
// the index of its join when joined, and its open-lock stack. Lock holders
// and depths follow from the stacks.
func (c *Checker) EncodeSnapshot(w *snap.Writer) {
	for t := range c.threads {
		ts := &c.threads[t]
		w.Byte(ts.flags)
		if ts.flags&joined != 0 {
			w.Uvarint(uint64(ts.joinAt))
		}
		w.I32s(ts.open)
	}
}

// DecodeChecker restores a checker written by EncodeSnapshot for a trace
// over syms after its first events events. State no such prefix could
// leave — an unknown flag, a join at or past events, an open section on a
// thread that never acted, a lock out of range or open on two threads —
// is a *snap.DecodeError.
func DecodeChecker(rd *snap.Reader, syms *event.Symbols, events uint64) (*Checker, error) {
	c := NewChecker(syms)
	for t := range c.threads {
		ts := &c.threads[t]
		flags, err := rd.Byte()
		if err != nil {
			return nil, err
		}
		if flags >= joined<<1 {
			return nil, &snap.DecodeError{Reason: "bad checker thread flags"}
		}
		if flags&joined != 0 {
			at, err := rd.Uvarint()
			if err != nil {
				return nil, err
			}
			if at >= events {
				return nil, &snap.DecodeError{Reason: "checker join index past the checked events"}
			}
			ts.joinAt = int(at)
		}
		open, err := rd.I32s(int(min(events, uint64(rd.Remaining()))))
		if err != nil {
			return nil, err
		}
		for _, l := range open {
			// The open sections replay as acquires, which check the lock's
			// range and its holder.
			if c.step(0, event.Acquire, event.TID(t), l) != "" {
				return nil, &snap.DecodeError{Reason: "checker lock out of range or open on two threads"}
			}
		}
		if ts.flags&^flags != 0 {
			return nil, &snap.DecodeError{Reason: "open critical section on a thread that never acted"}
		}
		ts.flags = flags
	}
	return c, nil
}
