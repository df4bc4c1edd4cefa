package main

import (
	"math"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"sync"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is sorted in place); 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(xs)-1)
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// median of a small sample, for setup_s.
func median(xs []float64) float64 { return quantile(append([]float64(nil), xs...), 0.5) }

// runtime/metrics names read over a timed phase.
const (
	mHeapLive = "/gc/heap/live:bytes"
	mAllocs   = "/gc/heap/allocs:bytes"
	mCycles   = "/gc/cycles/total:gc-cycles"
)

func readMetrics(names ...string) []uint64 {
	s := make([]rtmetrics.Sample, len(names))
	for i, n := range names {
		s[i].Name = n
	}
	rtmetrics.Read(s)
	out := make([]uint64, len(names))
	for i := range s {
		if s[i].Value.Kind() == rtmetrics.KindUint64 {
			out[i] = s[i].Value.Uint64()
		}
	}
	return out
}

// heapWatch records the live heap as of each GC cycle that ends while it
// runs, with the allocation and GC-cycle deltas over the same interval.
type heapWatch struct {
	stop   chan struct{}
	done   chan struct{}
	mu     sync.Mutex
	live   []float64 // live bytes, one reading per completed GC cycle
	cycle  uint64
	start  []uint64
	allocs uint64
	cycles uint64
}

// startHeapWatch begins a timed phase's memory accounting. The collection
// first makes the first reading describe what the phase starts with, not
// garbage left by set-up.
func startHeapWatch() *heapWatch {
	runtime.GC()
	w := &heapWatch{stop: make(chan struct{}), done: make(chan struct{})}
	w.start = readMetrics(mHeapLive, mAllocs, mCycles)
	w.live = []float64{float64(w.start[0])}
	w.cycle = w.start[2]
	go func() {
		defer close(w.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-w.stop:
				return
			case <-t.C:
				w.sample()
			}
		}
	}()
	return w
}

func (w *heapWatch) sample() {
	r := readMetrics(mHeapLive, mCycles)
	w.mu.Lock()
	if r[1] != w.cycle {
		w.cycle = r[1]
		w.live = append(w.live, float64(r[0]))
	}
	w.mu.Unlock()
}

// finish stops sampling and fixes the deltas.
func (w *heapWatch) finish() {
	close(w.stop)
	<-w.done
	w.sample()
	end := readMetrics(mHeapLive, mAllocs, mCycles)
	w.allocs = end[1] - w.start[1]
	w.cycles = end[2] - w.start[2]
}

// peakMB is the 90th percentile of the live heap over the phase's GC
// cycles: the peak, robust to one cycle ending at an unusual moment.
func (w *heapWatch) peakMB() float64 { return quantile(w.live, 0.9) / 1e6 }
