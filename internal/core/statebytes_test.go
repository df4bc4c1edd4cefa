package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/trace"
)

// TestStateBytesRunningCount checks the per-lock byte counts StateBytes
// sums, kept current as buffers change, against a full recount after
// every block: over the oracle traces, and over the two soak shapes (pools
// at T = 256, hotlock at T = 1024, streamed as the engine soak streams
// them), with a whole-detector Compact every eighth block.
func TestStateBytesRunningCount(t *testing.T) {
	check := func(name string, d *core.Detector, block int) {
		t.Helper()
		if block%8 == 7 {
			d.Compact()
		}
		if got, want := d.StateBytes(), d.RecountStateBytes(); got != want {
			t.Fatalf("%s, block %d: StateBytes %d, recounted %d", name, block, got, want)
		}
	}
	for _, nt := range oracleTraces() {
		tr := nt.tr
		for _, pairs := range []bool{false, true} {
			d := core.NewDetector(tr.NumThreads(), tr.NumLocks(), tr.NumVars(), core.Options{TrackPairs: pairs})
			const block = 64
			for i := 0; i < tr.Len(); i += block {
				d.ProcessBlock(trace.BlockOf(tr.Events[i:min(i+block, tr.Len())]))
				check(nt.name, d, i/block)
			}
		}
	}
	for _, w := range []soakShape{
		{name: "pools-T256", threads: 256, poolSize: 8, poolVars: 4, events: 200_000},
		{name: "hotlock-T1024", threads: 1024, poolSize: 1023, poolVars: 1, events: 30_000},
	} {
		d := core.NewDetector(w.threads, w.pools(), w.pools()*w.poolVars, core.Options{TrackPairs: true})
		b := trace.NewBlock(4096)
		for i, done := 0, 0; done < w.events; i++ {
			done += w.next(b, 4096)
			d.ProcessBlock(b)
			check(w.name, d, i)
		}
	}
}

// soakShape streams the engine soak's race-free thread-scaling workload:
// thread 0 forks every worker, then each unit cycles one worker through a
// critical section (acquire, read, write, release) on its pool's lock
// around one of the pool's variables.
type soakShape struct {
	name                        string
	threads, poolSize, poolVars int
	events, unit                int
}

func (w *soakShape) pools() int { return (w.threads - 2 + w.poolSize) / w.poolSize }

// next fills b (reset first) with up to n events and reports how many.
func (w *soakShape) next(b *trace.Block, n int) int {
	b.Reset()
	workers := w.threads - 1
	if w.unit == 0 {
		for t := 1; t < w.threads; t++ {
			b.AppendFields(event.Fork, 0, int32(t), 0)
		}
	}
	for b.Len()+4 <= n {
		wi := 1 + w.unit%workers
		pool := (wi - 1) / w.poolSize
		x := int32(pool*w.poolVars + (w.unit/workers)%w.poolVars)
		b.AppendFields(event.Acquire, event.TID(wi), int32(pool), 0)
		b.AppendFields(event.Read, event.TID(wi), x, event.Loc(2*wi))
		b.AppendFields(event.Write, event.TID(wi), x, event.Loc(2*wi+1))
		b.AppendFields(event.Release, event.TID(wi), int32(pool), 0)
		w.unit++
	}
	return b.Len()
}
