package engine

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/event"
	"repro/internal/trace"
	"repro/internal/traceio"
)

// Jobs resolves a job-count knob: n when positive, GOMAXPROCS otherwise.
func Jobs(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// RunAll fans one trace out to every engine concurrently and waits for all
// of them. The trace is shared read-only: each engine walks tr.Events with
// its own cursor, so nothing is copied. Results come back in engine order
// regardless of completion order. A canceled context does not interrupt
// engines already running (the detectors are single-pass and have no
// preemption points) but engines not yet started return a Result whose Err
// is the context error.
func RunAll(ctx context.Context, tr *trace.Trace, engines []Engine) []*Result {
	results := make([]*Result, len(engines))
	var wg sync.WaitGroup
	for i, e := range engines {
		wg.Add(1)
		go func(i int, e Engine) {
			defer wg.Done()
			if err := ctx.Err(); err != nil {
				results[i] = errResult(e, err)
				return
			}
			results[i] = e.Analyze(tr)
		}(i, e)
	}
	wg.Wait()
	return results
}

// runPool runs work(i) for every i in [0, n) on min(workers, n) goroutines
// and blocks until all of them finish. It is the dispatch loop shared by
// Map and AnalyzeCorpus.
func runPool(workers, n int, work func(i int)) {
	if workers > n {
		workers = n
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				work(i)
			}
		}()
	}
	wg.Wait()
}

// Map runs fn over items on a pool of jobs workers (Jobs(jobs) of them) and
// returns the results in item order. The first error does not stop other
// items; all errors are joined in the returned error. When the context is
// canceled, unstarted items fail with the context error.
func Map[T, R any](ctx context.Context, jobs int, items []T, fn func(ctx context.Context, i int, item T) (R, error)) ([]R, error) {
	out := make([]R, len(items))
	errs := make([]error, len(items))
	runPool(Jobs(jobs), len(items), func(i int) {
		if err := ctx.Err(); err != nil {
			errs[i] = err
			return
		}
		out[i], errs[i] = fn(ctx, i, items[i])
	})
	return out, errors.Join(errs...)
}

// Source is one trace of a corpus: a name for reporting, a loader that
// materializes the trace on demand (inside a pool worker, so loading —
// typically file parsing — is itself parallelized), and optionally a
// streaming opener.
type Source struct {
	Name string
	Load func() (*trace.Trace, error)
	// Open, when non-nil, grants streaming access: each call returns a
	// fresh stream positioned at the first event. When every engine of a
	// corpus run implements StreamAnalyzer and the stream declares its
	// dimensions up front, the corpus runner analyzes block by block and
	// the trace is never materialized: the source is opened and decoded
	// once, and every engine consumes the shared blocks concurrently, in
	// memory independent of trace length.
	Open func() (*traceio.Stream, error)
}

// FileSource loads a trace file, auto-detecting text vs binary format. The
// source is streamable: corpus runs whose engines all support streaming
// analyze the file block by block without materializing it.
func FileSource(path string) Source {
	return Source{
		Name: path,
		Load: func() (*trace.Trace, error) { return traceio.ReadFile(path) },
		Open: func() (*traceio.Stream, error) { return traceio.StreamFile(path) },
	}
}

// TraceSource wraps an in-memory trace as a Source.
func TraceSource(name string, tr *trace.Trace) Source {
	return Source{Name: name, Load: func() (*trace.Trace, error) { return tr, nil }}
}

// CorpusResult is the analysis of one corpus entry: the per-engine results
// in engine order, or Err, and no results, when the source failed to load,
// decode or validate, or the run was canceled before the entry finished.
type CorpusResult struct {
	// Index is the entry's position in the input corpus; results stream in
	// completion order, so consumers needing input order reorder by Index.
	Index int
	// Name is the Source name (the path, for file corpora).
	Name string
	// Stats summarizes the loaded trace's event mix.
	Stats trace.Stats
	// Symbols is the loaded trace's symbol table, for rendering race
	// reports without retaining the trace itself.
	Symbols *event.Symbols
	// Results holds one Result per engine, in engine order.
	Results []*Result
	// Duration is the wall-clock time for this entry: load + all engines.
	Duration time.Duration
	// Err is the load or decode error (a streamed entry's
	// *traceio.DecodeError), the §2.1 violation (a *trace.ValidationError),
	// or the context error for canceled entries.
	Err error
}

// AnalyzeCorpus fans a corpus of traces out across Jobs(jobs) pool workers
// and streams one CorpusResult per entry over the returned channel as
// entries complete (completion order, not input order). A streamed entry
// is decoded once for all its engines, which run concurrently; a loaded
// entry runs them serially (RunAll parallelizes engines over one trace).
// Either way an ill-formed trace (§2.1) reaches no engine: its entry fails
// with the violation, naming the offending event.
//
// The channel is closed once no more entries will be delivered. While the
// context is live, every entry is delivered exactly once. After
// cancellation the stream winds down: in-flight entries are delivered or
// dropped depending on whether the consumer is still receiving, so workers
// never block on an abandoned channel, and the channel still closes.
func AnalyzeCorpus(ctx context.Context, corpus []Source, engines []Engine, jobs int) <-chan CorpusResult {
	ch := make(chan CorpusResult)
	go func() {
		defer close(ch)
		runPool(Jobs(jobs), len(corpus), func(i int) {
			if ctx.Err() != nil {
				return
			}
			select {
			case ch <- analyzeSource(ctx, i, corpus[i], engines):
			case <-ctx.Done():
			}
		})
	}()
	return ch
}

func analyzeSource(ctx context.Context, i int, src Source, engines []Engine) CorpusResult {
	res := CorpusResult{Index: i, Name: src.Name}
	if err := ctx.Err(); err != nil {
		res.Err = err
		return res
	}
	start := time.Now()
	if src.Open != nil && len(engines) > 0 && CanStream(engines) {
		if analyzeSourceStreaming(ctx, src, engines, &res) {
			res.Duration = time.Since(start)
			return res
		}
		// The source cannot be streamed (e.g. a text trace without up-front
		// dimensions): fall through to the materializing path.
	}
	tr, err := src.Load()
	if err == nil {
		err = trace.Validate(tr)
	}
	if err != nil {
		res.Err = err
		res.Duration = time.Since(start)
		return res
	}
	res.Stats = trace.ComputeStats(tr)
	res.Symbols = tr.Symbols
	res.Results = make([]*Result, len(engines))
	for j, e := range engines {
		if err := ctx.Err(); err != nil {
			res.Results, res.Err = nil, err
			break
		}
		res.Results[j] = e.Analyze(tr)
	}
	res.Duration = time.Since(start)
	return res
}

// analyzeSourceStreaming analyzes src block by block, so the trace is never
// materialized: one stream, decoded once, feeds a session per engine. It
// reports false — leaving res untouched — when the source's stream does not
// declare its dimensions up front (the caller then falls back to
// materializing). Every engine must implement StreamAnalyzer (checked by
// the caller via CanStream).
func analyzeSourceStreaming(ctx context.Context, src Source, engines []Engine, res *CorpusResult) bool {
	st, err := src.Open()
	if err != nil {
		res.Err = err
		return true
	}
	defer st.Close()
	dims, known := st.Dims()
	if !known {
		return false
	}
	sessions := make([]Session, len(engines))
	for j, e := range engines {
		sessions[j] = e.(StreamAnalyzer).NewSession(dims.Threads, dims.Locks, dims.Vars)
	}
	if res.Err = drive(ctx, st, sessions); res.Err != nil {
		return true
	}
	res.Results = make([]*Result, len(engines))
	for j, s := range sessions {
		res.Results[j] = s.Finish()
	}
	// The stream is fully drained: its tally is the whole trace.
	res.Stats, res.Symbols = st.Stats(), st.Symbols()
	return true
}

// errResult is e's Result for a run abandoned with err.
func errResult(e Engine, err error) *Result {
	return &Result{Engine: e.Name(), RacyEvents: -1, FirstRace: -1, Err: err}
}

// AnalyzeFiles is AnalyzeCorpus over trace files (text or binary format,
// auto-detected). Files are read inside the pool workers.
func AnalyzeFiles(ctx context.Context, paths []string, engines []Engine, jobs int) <-chan CorpusResult {
	corpus := make([]Source, len(paths))
	for i, p := range paths {
		corpus[i] = FileSource(p)
	}
	return AnalyzeCorpus(ctx, corpus, engines, jobs)
}
