// Package gen generates the traces this repository is evaluated on:
//
//   - Random: well-formed random traces for property-based testing;
//   - Benchmark.Generate: deterministic synthetic equivalents of the 18
//     Table-1 benchmarks (see DESIGN.md §8, Substitutions — we do not have
//     the paper's RVPredict logs of the Java programs, so each workload is
//     engineered to reproduce that benchmark's *shape*: thread/lock counts,
//     HB and WCP distinct-race-pair counts, far-apart races, queue growth);
//   - LowerBound: the Figure-8 trace family behind the linear-space lower
//     bound (Theorems 4–5).
package gen

import (
	"fmt"
	"math/rand"

	"repro/internal/trace"
)

// RandomConfig parameterizes Random.
type RandomConfig struct {
	Threads int // number of threads (>= 1)
	Locks   int // size of the lock pool
	Vars    int // size of the variable pool
	Events  int // approximate number of events to generate
	Seed    int64
	// ForkJoin adds fork events from thread 0 to every other thread up
	// front and join events at the end.
	ForkJoin bool
	// PAcquire, PRelease, PWrite are relative weights for action selection;
	// zero values get defaults (3, 4, 5 with reads at 5).
	PAcquire, PRelease, PWrite int
	// Locations, when positive, draws each access's program location from
	// a pool of that many shared by every thread, variable and access kind,
	// so one location sees unordered accesses by several threads. Zero
	// gives every (thread, variable, kind) a location of its own.
	Locations int
}

// Random generates a well-formed random trace: lock semantics and
// well-nestedness hold by construction, and no thread ever re-acquires a
// lock it already holds (the paper's trace model has no same-lock
// reentrancy). Generation is deterministic in the seed.
func Random(cfg RandomConfig) *trace.Trace {
	if cfg.Threads < 1 {
		cfg.Threads = 1
	}
	if cfg.Vars < 1 {
		cfg.Vars = 1
	}
	pAcq, pRel, pW := cfg.PAcquire, cfg.PRelease, cfg.PWrite
	if pAcq == 0 {
		pAcq = 3
	}
	if pRel == 0 {
		pRel = 4
	}
	if pW == 0 {
		pW = 5
	}
	const pR = 5

	rng := rand.New(rand.NewSource(cfg.Seed))
	b := trace.NewBuilder()
	threads := make([]string, cfg.Threads)
	for i := range threads {
		threads[i] = fmt.Sprintf("t%d", i)
	}

	holder := make([]int, cfg.Locks) // -1 free, else thread index
	for i := range holder {
		holder[i] = -1
	}
	stacks := make([][]int, cfg.Threads) // per-thread held-lock stacks

	// With ForkJoin, thread 0 forks the others at staggered points and
	// joins some of them early, so traces exercise pre-fork parent events,
	// parent/child concurrency and post-join events.
	forked := make([]bool, cfg.Threads)
	joined := make([]bool, cfg.Threads)
	forkAt := make([]int, cfg.Threads)
	joinAt := make([]int, cfg.Threads)
	forked[0] = true
	for i := 1; i < cfg.Threads; i++ {
		if cfg.ForkJoin {
			forkAt[i] = cfg.Events * i / (2 * cfg.Threads)
			joinAt[i] = cfg.Events*2/3 + cfg.Events*i/(3*cfg.Threads)
		} else {
			forked[i] = true
			joinAt[i] = cfg.Events * 2 // never during the loop
		}
	}
	// forceRelease closes every open critical section of thread t (needed
	// before a join and at the end of the trace).
	forceRelease := func(t int) {
		for len(stacks[t]) > 0 {
			l := stacks[t][len(stacks[t])-1]
			stacks[t] = stacks[t][:len(stacks[t])-1]
			holder[l] = -1
			b.Release(threads[t], lockName(l))
		}
	}

	for b.Len() < cfg.Events {
		if cfg.ForkJoin {
			progressed := false
			for i := 1; i < cfg.Threads; i++ {
				if !forked[i] && b.Len() >= forkAt[i] {
					b.Fork(threads[0], threads[i])
					forked[i] = true
					progressed = true
				}
				if forked[i] && !joined[i] && b.Len() >= joinAt[i] {
					forceRelease(i)
					b.Join(threads[0], threads[i])
					joined[i] = true
					progressed = true
				}
			}
			if progressed {
				continue
			}
		}
		t := rng.Intn(cfg.Threads)
		if !forked[t] || joined[t] {
			continue // not alive yet / anymore
		}
		// Candidate locks this thread could acquire: free ones.
		var free []int
		for l, h := range holder {
			if h == -1 {
				free = append(free, l)
			}
		}
		wAcq := 0
		if len(free) > 0 {
			wAcq = pAcq
		}
		wRel := 0
		if len(stacks[t]) > 0 {
			wRel = pRel
		}
		total := wAcq + wRel + pR + pW
		v := rng.Intn(total)
		switch {
		case v < wAcq:
			l := free[rng.Intn(len(free))]
			holder[l] = t
			stacks[t] = append(stacks[t], l)
			b.Acquire(threads[t], lockName(l))
		case v < wAcq+wRel:
			l := stacks[t][len(stacks[t])-1]
			stacks[t] = stacks[t][:len(stacks[t])-1]
			holder[l] = -1
			b.Release(threads[t], lockName(l))
		case v < wAcq+wRel+pR:
			x := rng.Intn(cfg.Vars)
			b.At(accLoc(rng, cfg.Locations, t, x, "r")).Read(threads[t], varName(x))
		default:
			x := rng.Intn(cfg.Vars)
			b.At(accLoc(rng, cfg.Locations, t, x, "w")).Write(threads[t], varName(x))
		}
	}
	// Close all open critical sections and join the stragglers.
	for t := range stacks {
		forceRelease(t)
	}
	if cfg.ForkJoin {
		for i := 1; i < cfg.Threads; i++ {
			if forked[i] && !joined[i] {
				b.Join(threads[0], threads[i])
			}
		}
	}
	return b.MustBuild()
}

func lockName(l int) string { return fmt.Sprintf("l%d", l) }
func varName(x int) string  { return fmt.Sprintf("x%d", x) }

// accLoc gives every (thread, variable, kind) a stable program location, so
// random traces exercise the distinct-pair accounting deterministically —
// or, with a pool of shared locations, draws one from it.
func accLoc(rng *rand.Rand, shared, t, x int, kind string) string {
	if shared > 0 {
		return fmt.Sprintf("pc.shared%d", rng.Intn(shared))
	}
	return fmt.Sprintf("pc.t%d.%s.x%d", t, kind, x)
}
