package trace

import (
	"sync/atomic"

	"repro/internal/event"
)

// Block is a structure-of-arrays run of events: four parallel dense slices,
// one per event field, indexed by position. It is the hot-path event layout
// of this repository — detectors walk a block's slices directly instead of
// loading 16-byte event structs, which keeps the trace walk cache-dense
// (13 bytes/event, with the rarely-needed location stream untouched unless
// the detector tracks race pairs) and lets the per-event dispatch switch on
// a byte stream.
//
// Blocks appear in two roles: as the cached whole-trace view returned by
// Trace.SoA, and as the reusable decode buffers of streaming ingestion
// (traceio.Stream.NextBlockSoA), where one block of capacity
// traceio.DefaultBlockSize is refilled for the whole scan.
type Block struct {
	// Kinds holds event.Kind per event.
	Kinds []uint8
	// Threads holds the performing thread per event.
	Threads []int32
	// Objs holds the operand per event: lock, variable, or target thread,
	// selected by the kind.
	Objs []int32
	// Locs holds the program location per event (int32(event.NoLoc) when
	// absent).
	Locs []int32
}

// NewBlock returns an empty block with room for capacity events.
func NewBlock(capacity int) *Block {
	return &Block{
		Kinds:   make([]uint8, 0, capacity),
		Threads: make([]int32, 0, capacity),
		Objs:    make([]int32, 0, capacity),
		Locs:    make([]int32, 0, capacity),
	}
}

// BlockOf converts an event slice to its structure-of-arrays form.
func BlockOf(events []event.Event) *Block {
	b := NewBlock(len(events))
	for _, e := range events {
		b.Append(e)
	}
	return b
}

// Len returns the number of events in the block.
func (b *Block) Len() int { return len(b.Kinds) }

// Cap returns the event capacity of the block.
func (b *Block) Cap() int { return cap(b.Kinds) }

// Reset truncates the block to zero events, keeping its capacity.
func (b *Block) Reset() {
	b.Kinds = b.Kinds[:0]
	b.Threads = b.Threads[:0]
	b.Objs = b.Objs[:0]
	b.Locs = b.Locs[:0]
}

// DropFront removes the block's first k events, keeping its capacity.
func (b *Block) DropFront(k int) {
	n := copy(b.Kinds, b.Kinds[k:])
	copy(b.Threads, b.Threads[k:])
	copy(b.Objs, b.Objs[k:])
	copy(b.Locs, b.Locs[k:])
	b.Kinds, b.Threads, b.Objs, b.Locs = b.Kinds[:n], b.Threads[:n], b.Objs[:n], b.Locs[:n]
}

// Append adds one event to the block.
func (b *Block) Append(e event.Event) {
	b.AppendFields(e.Kind, e.Thread, e.Obj, e.Loc)
}

// AppendFields adds one event to the block from its unpacked fields, the
// form streaming decoders produce without materializing an event.Event.
func (b *Block) AppendFields(k event.Kind, t event.TID, obj int32, loc event.Loc) {
	b.Kinds = append(b.Kinds, uint8(k))
	b.Threads = append(b.Threads, int32(t))
	b.Objs = append(b.Objs, obj)
	b.Locs = append(b.Locs, int32(loc))
}

// At materializes event i. The SoA slices are the primary access path for
// hot loops; At is for consumers that need a whole event value.
func (b *Block) At(i int) event.Event {
	return event.Event{
		Kind:   event.Kind(b.Kinds[i]),
		Thread: event.TID(b.Threads[i]),
		Obj:    b.Objs[i],
		Loc:    event.Loc(b.Locs[i]),
	}
}

// Events materializes the whole block as an event slice.
func (b *Block) Events() []event.Event {
	out := make([]event.Event, b.Len())
	for i := range out {
		out[i] = b.At(i)
	}
	return out
}

// Cursor is a forward iterator over a block, the uniform way the engines'
// analysis loops read the SoA view when they consume whole events.
type Cursor struct {
	b *Block
	i int
}

// Cursor returns a cursor positioned before the first event of the block.
func (b *Block) Cursor() Cursor { return Cursor{b: b, i: -1} }

// Next advances the cursor and reports whether an event is available.
func (c *Cursor) Next() bool {
	c.i++
	return c.i < c.b.Len()
}

// Index returns the position of the current event.
func (c *Cursor) Index() int { return c.i }

// Event returns the current event.
func (c *Cursor) Event() event.Event { return c.b.At(c.i) }

// soaCache is the lazily-built SoA view of a Trace. It lives in its own
// struct so Trace stays a plain value type for construction by literal.
type soaCache struct {
	p atomic.Pointer[Block]
}

// SoA returns the structure-of-arrays view of the trace's events, building
// it on first use and caching it. Concurrent callers may race to build the
// view (engine fan-out analyzes one trace from many goroutines); the first
// published block wins and the trace must not be mutated after the first
// call, matching the documented immutability of Trace.
func (tr *Trace) SoA() *Block {
	if b := tr.soa.p.Load(); b != nil {
		return b
	}
	b := BlockOf(tr.Events)
	if tr.soa.p.CompareAndSwap(nil, b) {
		return b
	}
	return tr.soa.p.Load()
}
