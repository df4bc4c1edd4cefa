// Package engine is the orchestration layer over the repository's race
// detectors: a uniform Engine interface wrapping the WCP, HB, CP, lockset
// and windowed-predictive analyses, plus worker-pool runners that fan one
// trace out to many engines concurrently (RunAll) and a corpus of traces
// out across many workers (AnalyzeCorpus, AnalyzeFiles, where a streamed
// trace is decoded once and its engines share the blocks concurrently).
//
// Engines are stateless values: Analyze builds all detector state per call,
// so a single Engine is safe for concurrent use and a trace can be shared
// read-only between engines — each Analyze walks the trace's cached
// structure-of-arrays view (trace.Trace.SoA) with its own cursor, nothing
// is copied.
package engine

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/cp"
	"repro/internal/hb"
	"repro/internal/lockset"
	"repro/internal/predict"
	"repro/internal/race"
	"repro/internal/trace"
	"repro/internal/traceio"
)

// Result is the uniform outcome of one engine over one trace. Fields beyond
// Engine, Duration and Summary are engine-specific; absent ones are zero.
type Result struct {
	// Engine is the name of the engine that produced this result.
	Engine string
	// Report holds distinct race pairs.
	Report *race.Report
	// RacyEvents counts events flagged as racing (-1 if not tracked).
	RacyEvents int
	// FirstRace is the trace index of the first racy event, or -1.
	FirstRace int
	// QueueMaxTotal and QueueFraction are Algorithm 1's queue high-water
	// mark (wcp engines only; Table 1 column 11).
	QueueMaxTotal int
	QueueFraction float64
	// Windows is the number of fragments analyzed by windowed engines.
	Windows int
	// Searches and ExhaustedSearches count witness searches (predict only).
	Searches          int
	ExhaustedSearches int
	// Warnings counts lockset warnings (lockset only; may be spurious).
	Warnings int
	// Duration is the wall-clock analysis time.
	Duration time.Duration
	// Summary is a one-line engine-specific rendering of the counters.
	Summary string
	// Err is non-nil when the run was abandoned (e.g. context canceled
	// before the engine started).
	Err error
}

// Distinct returns the number of distinct race pairs, 0 without a report.
func (r *Result) Distinct() int {
	if r.Report == nil {
		return 0
	}
	return r.Report.Distinct()
}

// Engine is a race-detection analysis that can be run over a trace. Analyze
// must be safe for concurrent use: all the implementations in this package
// build their detector state per call and treat the trace as read-only.
type Engine interface {
	// Name identifies the engine ("wcp", "hb", ...).
	Name() string
	// Analyze runs the detector over the whole trace.
	Analyze(tr *trace.Trace) *Result
}

// StreamAnalyzer is implemented by engines whose detectors consume a trace
// block by block, never materializing the full event sequence: memory is
// detector state plus a small fixed ring of decoded blocks, independent of
// trace length, and decode runs on its own goroutine overlapping detector
// compute (see drive). The wcp and hb engines stream;
// the windowed baselines (cp, predict) and lockset need the materialized
// trace.
//
// Streaming needs the trace dimensions up front to size detector state, so
// AnalyzeStream requires a stream whose header declares them (the binary
// format; text traces take a counting pass first — see traceio.Stream).
type StreamAnalyzer interface {
	SessionEngine
	// AnalyzeStream runs the detector over the stream's remaining events,
	// consuming the stream. A canceled context stops the analysis
	// promptly — within one block — returning ctx.Err() with no goroutine
	// left behind.
	AnalyzeStream(ctx context.Context, st *traceio.Stream) (*Result, error)
}

// Session is a resumable streaming analysis: an engine's detector held open
// across an arbitrary number of SoA blocks — the building block of the
// raced server's trace sessions, where a trace arrives chunk by chunk over
// many requests with idle gaps between them. Feed blocks from one goroutine
// at a time, in trace order; Finish seals the session and returns the
// uniform Result (its Duration is accumulated processing time, excluding
// the gaps). A finished session must not be fed further blocks.
type Session interface {
	// ProcessBlock feeds the next events of the trace.
	ProcessBlock(b *trace.Block)
	// Events returns the number of events processed so far.
	Events() int
	// Finish seals the session and assembles its Result.
	Finish() *Result
}

// SessionEngine is implemented by engines whose detectors can be held open
// as resumable streaming sessions: the wcp and hb engines. (AnalyzeStream
// is the one-shot form; NewSession exposes the same detector for
// incremental feeding.)
type SessionEngine interface {
	Engine
	// NewSession returns a fresh detector session for a trace with the
	// given dimensions (known up front, e.g. from a traceio.Header).
	NewSession(threads, locks, vars int) Session
}

// CanStream reports whether every engine supports streaming analysis.
func CanStream(engines []Engine) bool {
	for _, e := range engines {
		if _, ok := e.(StreamAnalyzer); !ok {
			return false
		}
	}
	return true
}

// Config carries the knobs shared by the windowed engines. The zero value
// selects the defaults used by cmd/rapid.
type Config struct {
	// Window bounds each analyzed fragment for the cp and predict engines;
	// <= 0 analyzes the whole trace as one window (feasible only for small
	// traces with cp). Defaults to 1000 when zero.
	Window int
	// Budget is the per-window exploration budget (DFS nodes) for the
	// predict engine. Defaults to 30000 when zero.
	Budget int
}

func (c Config) window() int {
	if c.Window == 0 {
		return 1000
	}
	return c.Window
}

func (c Config) budget() int {
	if c.Budget == 0 {
		return 30000
	}
	return c.Budget
}

// wcpResult assembles the uniform Result of a WCP run.
func wcpResult(res *core.Result, dur time.Duration) *Result {
	return &Result{
		Engine:        "wcp",
		Report:        res.Report,
		RacyEvents:    res.RacyEvents,
		FirstRace:     res.FirstRace,
		QueueMaxTotal: res.QueueMaxTotal,
		QueueFraction: res.QueueMaxFraction(),
		Duration:      dur,
		Summary: fmt.Sprintf("racy events=%d queue max=%d (%.2f%% of events)",
			res.RacyEvents, res.QueueMaxTotal, 100*res.QueueMaxFraction()),
	}
}

// hbResult assembles the uniform Result of an HB run.
func hbResult(res *hb.Result, dur time.Duration) *Result {
	return &Result{
		Engine:     "hb",
		Report:     res.Report,
		RacyEvents: res.RacyEvents,
		FirstRace:  res.FirstRace,
		Duration:   dur,
		Summary:    fmt.Sprintf("racy events=%d", res.RacyEvents),
	}
}

// wcpEngine is the paper's Algorithm 1 with distinct race-pair tracking.
type wcpEngine struct{}

// wcpOptions is the detector configuration of the wcp engine.
var wcpOptions = core.Options{TrackPairs: true}

func (wcpEngine) Name() string { return "wcp" }

func (wcpEngine) Analyze(tr *trace.Trace) *Result {
	start := time.Now()
	return wcpResult(core.DetectOpts(tr, wcpOptions), time.Since(start))
}

// wcpSession holds a WCP detector open across blocks (engine.Session).
type wcpSession struct {
	d       *core.Detector
	busy    time.Duration
	compact compactState
}

func (s *wcpSession) ProcessBlock(b *trace.Block) {
	start := time.Now()
	s.d.ProcessBlock(b)
	s.busy += time.Since(start)
	if s.compact.due(len(b.Kinds)) {
		s.d.Compact()
	}
}

func (s *wcpSession) Events() int { return s.d.Result().Events }

func (s *wcpSession) Finish() *Result { return wcpResult(s.d.Result(), s.busy) }

func (wcpEngine) NewSession(threads, locks, vars int) Session {
	return &wcpSession{d: core.NewDetector(threads, locks, vars, wcpOptions)}
}

func (e wcpEngine) AnalyzeStream(ctx context.Context, st *traceio.Stream) (*Result, error) {
	return analyzeSessionStream(ctx, e, st)
}

// hbEngine is the happens-before baseline with distinct race-pair
// tracking.
type hbEngine struct{}

// hbOptions is the detector configuration of the hb engine.
var hbOptions = hb.Options{TrackPairs: true}

func (hbEngine) Name() string { return "hb" }

func (hbEngine) Analyze(tr *trace.Trace) *Result {
	start := time.Now()
	return hbResult(hb.DetectOpts(tr, hbOptions), time.Since(start))
}

// hbSession holds an HB detector open across blocks (engine.Session).
type hbSession struct {
	d       *hb.Detector
	busy    time.Duration
	compact compactState
}

func (s *hbSession) ProcessBlock(b *trace.Block) {
	start := time.Now()
	s.d.ProcessBlock(b)
	s.busy += time.Since(start)
	if s.compact.due(len(b.Kinds)) {
		s.d.Compact()
	}
}

func (s *hbSession) Events() int { return s.d.Result().Events }

func (s *hbSession) Finish() *Result { return hbResult(s.d.Result(), s.busy) }

func (hbEngine) NewSession(threads, locks, vars int) Session {
	return &hbSession{d: hb.NewDetector(threads, locks, vars, hbOptions)}
}

func (e hbEngine) AnalyzeStream(ctx context.Context, st *traceio.Stream) (*Result, error) {
	return analyzeSessionStream(ctx, e, st)
}

// analyzeSessionStream is the shared one-shot streaming path: a fresh
// session fed by the block driver, sealed at end of stream.
func analyzeSessionStream(ctx context.Context, e SessionEngine, st *traceio.Stream) (*Result, error) {
	dims, known := st.Dims()
	if !known {
		return nil, fmt.Errorf("engine: stream does not declare its dimensions up front; streaming analysis needs a binary trace (or a prior counting pass)")
	}
	s := e.NewSession(dims.Threads, dims.Locks, dims.Vars)
	if err := drive(ctx, st, []Session{s}); err != nil {
		return nil, err
	}
	return s.Finish(), nil
}

// cpEngine is the windowed Causally-Precedes baseline.
type cpEngine struct{ cfg Config }

func (cpEngine) Name() string { return "cp" }

func (e cpEngine) Analyze(tr *trace.Trace) *Result {
	start := time.Now()
	res := cp.Detect(tr, cp.Options{WindowSize: e.cfg.window()})
	return &Result{
		Engine:     "cp",
		Report:     res.Report,
		RacyEvents: -1,
		FirstRace:  -1,
		Windows:    res.Windows,
		Duration:   time.Since(start),
		Summary:    fmt.Sprintf("windows=%d racy event pairs=%d", res.Windows, res.RacyEventPairs),
	}
}

// predictEngine is the windowed RVPredict-style reordering-search detector.
type predictEngine struct{ cfg Config }

func (predictEngine) Name() string { return "predict" }

func (e predictEngine) Analyze(tr *trace.Trace) *Result {
	start := time.Now()
	res := predict.Detect(tr, predict.Options{
		WindowSize:   e.cfg.window(),
		WindowBudget: e.cfg.budget(),
	})
	return &Result{
		Engine:            "predict",
		Report:            res.Report,
		RacyEvents:        -1,
		FirstRace:         -1,
		Windows:           res.Windows,
		Searches:          res.Searches,
		ExhaustedSearches: res.ExhaustedSearches,
		Duration:          time.Since(start),
		Summary: fmt.Sprintf("windows=%d searches=%d budget-exhausted=%d",
			res.Windows, res.Searches, res.ExhaustedSearches),
	}
}

// locksetEngine is the Eraser lockset baseline (unsound).
type locksetEngine struct{}

func (locksetEngine) Name() string { return "lockset" }

func (locksetEngine) Analyze(tr *trace.Trace) *Result {
	start := time.Now()
	res := lockset.Detect(tr)
	return &Result{
		Engine:     "lockset",
		Report:     res.Report,
		RacyEvents: -1,
		FirstRace:  res.FirstWarning,
		Warnings:   res.Warnings,
		Duration:   time.Since(start),
		Summary:    fmt.Sprintf("warnings=%d (lockset is unsound: warnings may be spurious)", res.Warnings),
	}
}

// constructors maps engine names to their factories, in the canonical
// "all" order (the order cmd/rapid reports and RunAll preserves).
var allOrder = []string{"wcp", "hb", "cp", "predict", "lockset"}

// New returns the named engine configured with cfg. Valid names are those
// returned by Names.
func New(name string, cfg Config) (Engine, error) {
	switch name {
	case "wcp":
		return wcpEngine{}, nil
	case "hb":
		return hbEngine{}, nil
	case "cp":
		return cpEngine{cfg}, nil
	case "predict":
		return predictEngine{cfg}, nil
	case "lockset":
		return locksetEngine{}, nil
	}
	return nil, fmt.Errorf("unknown engine %q (known: %v)", name, Names())
}

// MustNew is New for statically-known names; it panics on error.
func MustNew(name string, cfg Config) Engine {
	e, err := New(name, cfg)
	if err != nil {
		panic(err)
	}
	return e
}

// All returns every engine, in the canonical reporting order.
func All(cfg Config) []Engine {
	engines := make([]Engine, len(allOrder))
	for i, name := range allOrder {
		engines[i] = MustNew(name, cfg)
	}
	return engines
}

// Names returns the valid engine names, sorted.
func Names() []string {
	names := append([]string(nil), allOrder...)
	sort.Strings(names)
	return names
}
