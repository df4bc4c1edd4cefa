package engine

import (
	"os"
	"runtime"
	"strconv"
	"testing"

	"repro/internal/event"
	"repro/internal/trace"
)

// The soak battery streams a synthetic "infinite" workload through one
// compacting session and asserts that the detector's state estimate and the
// process heap stay flat: thread churn (a worker generation joined
// mid-run), variable churn (write bands sliding across the variable space),
// and rendezvous phases that raise the domination floor so retired state is
// actually reclaimable.
//
// The default event count is sized to keep tier-1 `go test ./...` fast;
// SOAK_EVENTS overrides it for the real soak (the documented run streams
// 100M+ events per engine; CI runs 1M).

func soakEvents(t *testing.T, def int) int {
	t.Helper()
	s := os.Getenv("SOAK_EVENTS")
	if s == "" {
		return def
	}
	n, err := strconv.Atoi(s)
	if err != nil || n <= 0 {
		t.Fatalf("bad SOAK_EVENTS %q: %v", s, err)
	}
	return n
}

// soakWorkload generates the churn workload block by block. Threads 1..T-1
// are forked up front; the first half of the workers is joined at the
// midpoint of the run (thread churn). Each live worker writes a private
// K-variable band whose position cycles with the phase (variable churn),
// reads one popular variable of the previous phase (inflating shared read
// state), and rendezvouses through a single lock with a protected write
// (advancing every clock past the previous phase, so the floor rises and
// the previous phase's state becomes dominated). The trace is race-free by
// construction.
type soakWorkload struct {
	threads, vars int
	bandK         int
	phases        int
	phase         int
	forked        bool
	joined        bool
	loc           event.Loc
}

const (
	soakThreads = 64
	soakBandK   = 16
	soakPhases  = 4
)

func newSoakWorkload() *soakWorkload {
	return &soakWorkload{
		threads: soakThreads,
		bandK:   soakBandK,
		phases:  soakPhases,
		// One band per worker per phase, plus the protected rendezvous
		// variable at the very end of the space.
		vars: soakPhases*soakThreads*soakBandK + 1,
	}
}

// nextBlock appends one phase worth of events to b (reset first) and
// reports how many events it produced. join is whether the first worker
// generation should be retired before this phase.
func (w *soakWorkload) nextBlock(b *trace.Block, join bool) int {
	b.Reset()
	app := func(k event.Kind, t, obj int) {
		// Cycle through a bounded set of program locations, like a real
		// trace: the pair-tracking engines key per-variable access cells by
		// Loc, so an unbounded loc space would grow hot variables forever.
		w.loc = (w.loc + 1) % 1024
		b.AppendFields(k, event.TID(t), int32(obj), w.loc)
	}
	if !w.forked {
		w.forked = true
		for t := 1; t < w.threads; t++ {
			app(event.Fork, 0, t)
		}
	}
	if join && !w.joined {
		w.joined = true
		for t := 1; t < w.threads/2; t++ {
			app(event.Join, 0, t)
		}
	}
	firstWorker := 1
	if w.joined {
		firstWorker = w.threads / 2
	}
	base := (w.phase % w.phases) * w.threads * w.bandK
	prev := ((w.phase + w.phases - 1) % w.phases) * w.threads * w.bandK
	rendezvous := w.vars - 1
	lock := 0
	for t := firstWorker; t < w.threads; t++ {
		for j := 0; j < w.bandK; j++ {
			app(event.Write, t, base+t*w.bandK+j)
		}
		if w.phase > 0 {
			// Popular read: every worker reads the same variable of the
			// previous phase, ordered by the rendezvous below.
			app(event.Read, t, prev+firstWorker*w.bandK)
		}
	}
	// Two rendezvous rounds: after them every live clock dominates every
	// time published in this phase, so the phase's bands can be retired.
	for round := 0; round < 2; round++ {
		for t := 0; t < w.threads; t++ {
			if t >= firstWorker || t == 0 {
				app(event.Acquire, t, lock)
				app(event.Write, t, rendezvous)
				app(event.Release, t, lock)
			}
		}
	}
	w.phase++
	return b.Len()
}

// highWater returns the maximum of samples[from:to].
func highWater(samples []int, from, to int) int {
	m := 0
	for _, v := range samples[from:to] {
		if v > m {
			m = v
		}
	}
	return m
}

func runSoak(t *testing.T, name string, total int) {
	e := MustNew(name, Config{}).(SessionEngine)
	w := newSoakWorkload()
	s := e.NewSession(w.threads, 1, w.vars)
	s.(CompactableSession).SetCompactPolicy(CompactPolicy{EveryEvents: 1 << 16})
	b := trace.NewBlock(1 << 14)

	const samples = 16
	stateHW := make([]int, 0, samples)
	heapHW := make([]int, 0, samples)
	stride := total / samples
	nextSample := stride
	var ms runtime.MemStats
	done := 0
	for done < total {
		done += w.nextBlock(b, done > total/2)
		s.ProcessBlock(b)
		if done >= nextSample && len(stateHW) < samples {
			nextSample += stride
			s.(CompactableSession).Compact()
			stateHW = append(stateHW, s.(CompactableSession).StateBytes())
			runtime.GC()
			runtime.ReadMemStats(&ms)
			heapHW = append(heapHW, int(ms.HeapAlloc))
		}
	}
	r := s.Finish()
	if r.RacyEvents != 0 {
		t.Fatalf("%s: soak workload is race-free by construction, got %d racy events", name, r.RacyEvents)
	}
	if len(stateHW) < samples/2 {
		t.Fatalf("%s: too few samples (%d)", name, len(stateHW))
	}
	n := len(stateHW)
	// Flatness: the high-water of the second half must not exceed the
	// post-warmup first-half high-water by more than the slack factors.
	// Unbounded retention (a leak, or compaction failing to retire state)
	// grows linearly in the event count and blows well past these.
	warmState, lateState := highWater(stateHW, 1, n/2), highWater(stateHW, n/2, n)
	if lateState > warmState+warmState/2 {
		t.Errorf("%s: state size not flat: early high-water %d, late %d (samples %v)",
			name, warmState, lateState, stateHW)
	}
	warmHeap, lateHeap := highWater(heapHW, 1, n/2), highWater(heapHW, n/2, n)
	if lateHeap > 2*warmHeap {
		t.Errorf("%s: heap not flat: early high-water %d, late %d (samples %v)",
			name, warmHeap, lateHeap, heapHW)
	}
	t.Logf("%s: %d events, state high-water %d bytes (early %d), heap high-water %d (early %d)",
		name, done, lateState, warmState, lateHeap, warmHeap)
}

// TestSoakBoundedMemory is the scaled-down default soak; set SOAK_EVENTS to
// stream the full-length run (e.g. SOAK_EVENTS=100000000).
func TestSoakBoundedMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("soak skipped in -short mode")
	}
	for _, name := range sessionEngineNames {
		name := name
		t.Run(name, func(t *testing.T) {
			def := 1 << 21
			if name == "wcp" || name == "hb" {
				def = 1 << 20 // pair-tracking engines are slower per event
			}
			runSoak(t, name, soakEvents(t, def))
		})
	}
}
