package engine

import (
	"context"
	"io"
	"sync"

	"repro/internal/trace"
	"repro/internal/traceio"
)

// BlockProcessor is the detector side of the streaming pipeline: the WCP and
// HB detectors consume whole structure-of-arrays blocks.
type BlockProcessor interface {
	ProcessBlock(b *trace.Block)
}

// ringSize is the number of decoded blocks in flight (~0.4 MB at
// traceio.DefaultBlockSize): room for the decoder and the fastest processor
// to run ahead of the slowest.
const ringSize = 4

// drive decodes st once, on the calling goroutine, into a ring of ringSize
// reusable blocks, checks each block (trace.Checker, against the universe
// st declares), and feeds every block in trace order to each of procs,
// each on a goroutine of its own. A block returns to the ring when the last
// processor is done with it, so memory is O(ring). drive returns nil at end
// of stream, or the decode error or violation once every processor has seen
// the blocks before it; no processor sees a block holding a violation. A
// canceled context stops the drive within one block: the
// decoder checks ctx.Err() before each decode, processors skip queued
// blocks, and drive returns ctx.Err(). Every goroutine drive starts has
// exited when it returns.
func drive[P BlockProcessor](ctx context.Context, st *traceio.Stream, procs []P) error {
	type slot struct {
		b       *trace.Block
		pending sync.WaitGroup // processors yet to finish with b
	}
	var ring [ringSize]slot // block n lives in ring[n%ringSize]
	feeds := make([]chan *slot, len(procs))
	var wg sync.WaitGroup
	for i, p := range procs {
		feeds[i] = make(chan *slot, ringSize) // room for the ring: sends never block
		wg.Add(1)
		go func(feed <-chan *slot) {
			defer wg.Done()
			for s := range feed {
				if ctx.Err() == nil {
					p.ProcessBlock(s.b)
				}
				s.pending.Done()
			}
		}(feeds[i])
	}

	check := trace.NewChecker(st.Symbols())
	var err error
	for n, base := 0, 0; ; n++ {
		s := &ring[n%ringSize]
		s.pending.Wait() // every processor is done with block n-ringSize
		if err = ctx.Err(); err != nil {
			break
		}
		if s.b == nil {
			s.b = trace.NewBlock(traceio.DefaultBlockSize)
		}
		k, derr := st.NextBlockSoA(s.b)
		if k > 0 {
			if err = check.CheckBlock(s.b, base); err != nil {
				break
			}
			base += k
			s.pending.Add(len(procs))
			for _, feed := range feeds {
				feed <- s
			}
		}
		if derr != nil {
			if derr != io.EOF {
				err = derr
			}
			break
		}
	}
	for _, feed := range feeds {
		close(feed)
	}
	wg.Wait()
	if err == nil {
		// A cancel after the last decode may have made processors skip
		// queued blocks.
		err = ctx.Err()
	}
	return err
}
