package engine

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/trace"
	"repro/internal/traceio"
)

// blockChecker is a fake BlockProcessor. It checks every block drive feeds
// it against the trace at its running position, and can sleep in each
// ProcessBlock before the check (so a block recycled while still in use
// shows) or cancel a context inside its cancelAt-th.
type blockChecker struct {
	want     *trace.Block // the whole trace
	pos      int          // events seen so far
	blocks   int
	delay    time.Duration
	cancelAt int
	cancel   context.CancelFunc
	err      error // the first mismatch
}

func (c *blockChecker) ProcessBlock(b *trace.Block) {
	time.Sleep(c.delay)
	c.blocks++
	for i := 0; i < b.Len() && c.err == nil; i++ {
		if j := c.pos + i; j >= c.want.Len() || b.At(i) != c.want.At(j) {
			c.err = fmt.Errorf("block %d: event %d is not the trace's", c.blocks, j)
		}
	}
	c.pos += b.Len()
	if c.blocks == c.cancelAt {
		c.cancel()
	}
}

// driveInput is a random trace that wraps the block ring three times, with
// its binary encoding.
func driveInput(t *testing.T) (*trace.Trace, []byte) {
	t.Helper()
	tr := gen.Random(gen.RandomConfig{Seed: 17, Events: 3 * ringSize * traceio.DefaultBlockSize, Threads: 5, Locks: 3, Vars: 12})
	return tr, binaryTrace(t, tr)
}

func openBytes(t *testing.T, data []byte) *traceio.Stream {
	t.Helper()
	st, err := traceio.OpenStream(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestDriveFeedsEveryProcessorInOrder: every processor, slow or fast, sees
// every block of the trace once and in order, and drive returns with no
// goroutine left behind.
func TestDriveFeedsEveryProcessorInOrder(t *testing.T) {
	tr, data := driveInput(t)
	base := runtime.NumGoroutine()
	procs := []*blockChecker{
		{want: tr.SoA()},
		{want: tr.SoA(), delay: time.Millisecond},
		{want: tr.SoA()},
	}
	if err := drive(context.Background(), openBytes(t, data), procs); err != nil {
		t.Fatal(err)
	}
	for i, p := range procs {
		if p.err != nil {
			t.Errorf("processor %d: %v", i, p.err)
		}
		if p.pos != tr.Len() {
			t.Errorf("processor %d saw %d of %d events", i, p.pos, tr.Len())
		}
	}
	waitGoroutines(t, base)
}

// TestDriveCancelFromProcessor: a processor that cancels the context inside
// its k-th block stops the drive within the ring. drive returns
// context.Canceled, each processor has seen an in-order prefix of the
// trace, at most ringSize+1 blocks are decoded after the k-th, and every
// goroutine exits.
func TestDriveCancelFromProcessor(t *testing.T) {
	const k = 3
	tr, data := driveInput(t)
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	procs := []*blockChecker{
		{want: tr.SoA(), delay: time.Millisecond},
		{want: tr.SoA(), cancelAt: k, cancel: cancel},
		{want: tr.SoA()},
	}
	st := openBytes(t, data)
	if err := drive(ctx, st, procs); !errors.Is(err, context.Canceled) {
		t.Fatalf("drive = %v, want context.Canceled", err)
	}
	for i, p := range procs {
		if p.err != nil {
			t.Errorf("processor %d: %v", i, p.err)
		}
	}
	bs := traceio.DefaultBlockSize
	if after := (st.Stats().Events+bs-1)/bs - k; after > ringSize+1 {
		t.Errorf("decoded %d blocks after the cancel in block %d, want at most %d", after, k, ringSize+1)
	}
	waitGoroutines(t, base)
}
