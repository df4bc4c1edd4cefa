// Package repro is the public API of this reproduction of "Dynamic Race
// Prediction in Linear Time" (Kini, Mathur, Viswanathan; PLDI 2017).
//
// The paper's contribution is the Weak-Causally-Precedes (WCP) relation: a
// sound weakening of Causally-Precedes (CP) that detects strictly more
// predictable data races than happens-before (HB) while still admitting a
// linear-time, single-pass vector-clock detection algorithm. This package
// exposes:
//
//   - trace construction (NewTraceBuilder), parsing (ReadTrace*, text and
//     binary formats) and validation;
//   - the streaming WCP detector (DetectWCP, NewWCPDetector) — the paper's
//     Algorithm 1 — plus the HB, CP, lockset and windowed-predictive
//     baselines it is evaluated against;
//   - witness search over correct reorderings (FindRaceWitness,
//     FindDeadlock) and the correct-reordering checker, used to certify
//     race reports;
//   - the engine orchestration layer (NewEngine, RunEngines,
//     AnalyzeTraceFiles): every detector behind one interface, a
//     concurrent fan-out of one trace to many engines, and a worker pool
//     streaming batch analysis of trace corpora;
//   - the synthetic workload generators for the paper's 18 benchmarks and
//     the experiment harness that regenerates Table 1 and Figure 7 (see
//     experiments.go).
//
// Everything is implemented from scratch on the Go standard library; see
// DESIGN.md for the system inventory and EXPERIMENTS.md for measured
// results.
package repro

import (
	"context"
	"io"

	"repro/internal/core"
	"repro/internal/cp"
	"repro/internal/engine"
	"repro/internal/event"
	"repro/internal/gen"
	"repro/internal/hb"
	"repro/internal/lockset"
	"repro/internal/predict"
	"repro/internal/race"
	"repro/internal/trace"
	"repro/internal/traceio"
)

// Trace is a sequence of events with its symbol tables (§2.1 of the paper).
type Trace = trace.Trace

// Symbols names a trace's threads, locks, variables and program locations.
type Symbols = event.Symbols

// TraceEvent is a single trace operation (§2.1's acquire/release,
// read/write, fork/join).
type TraceEvent = event.Event

// TraceBlock is a run of events in structure-of-arrays form: the unit
// TraceStream.NextBlockSoA decodes into and the streaming detectors'
// ProcessBlock consumes.
type TraceBlock = trace.Block

// NewTraceBlock returns an empty block with room for capacity events, the
// reusable decode buffer of a streaming scan.
func NewTraceBlock(capacity int) *TraceBlock { return trace.NewBlock(capacity) }

// Builder constructs traces programmatically.
type Builder = trace.Builder

// Reordering is a candidate alternative schedule of a trace's events.
type Reordering = trace.Reordering

// Report collects distinct race pairs of program locations.
type Report = race.Report

// RacePair is an unordered pair of racing program locations.
type RacePair = race.Pair

// WCPResult is the outcome of the WCP detector (Algorithm 1).
type WCPResult = core.Result

// WCPOptions configures the WCP detector.
type WCPOptions = core.Options

// WCPDetector is the streaming WCP detector; feed it TraceBlocks with
// ProcessBlock.
type WCPDetector = core.Detector

// HBResult is the outcome of the happens-before detectors.
type HBResult = hb.Result

// CPResult is the outcome of the windowed CP baseline.
type CPResult = cp.Result

// PredictOptions configures the windowed predictive (RVPredict-style)
// detector.
type PredictOptions = predict.Options

// PredictResult is the outcome of the predictive detector.
type PredictResult = predict.Result

// LocksetResult is the outcome of the Eraser lockset baseline.
type LocksetResult = lockset.Result

// Witness is a correct reordering revealing a race or deadlock.
type Witness = predict.Witness

// SearchBudget bounds a witness search (the paper's SMT-timeout analog).
type SearchBudget = predict.Budget

// Benchmark describes a synthetic Table-1 workload.
type Benchmark = gen.Benchmark

// RandomTraceConfig parameterizes random well-formed trace generation.
type RandomTraceConfig = gen.RandomConfig

// NewTraceBuilder returns an empty trace builder.
func NewTraceBuilder() *Builder { return trace.NewBuilder() }

// NewReport returns an empty race report, for merging detector outputs.
func NewReport() *Report { return race.NewReport() }

// ValidateTrace checks lock semantics, well-nestedness and fork/join sanity.
func ValidateTrace(tr *Trace) error { return trace.Validate(tr) }

// TraceStats summarizes a trace's event mix.
func TraceStats(tr *Trace) trace.Stats { return trace.ComputeStats(tr) }

// DetectWCP runs the linear-time WCP race detector (Algorithm 1) over the
// trace with distinct race-pair tracking.
func DetectWCP(tr *Trace) *WCPResult { return core.Detect(tr) }

// DetectWCPOpts runs the WCP detector with explicit options.
func DetectWCPOpts(tr *Trace, opts WCPOptions) *WCPResult { return core.DetectOpts(tr, opts) }

// NewWCPDetector returns a streaming WCP detector for online analysis; the
// thread/lock/variable counts must be known up front (binary trace headers
// carry them).
func NewWCPDetector(threads, locks, vars int, opts WCPOptions) *WCPDetector {
	return core.NewDetector(threads, locks, vars, opts)
}

// RaceEventPair is a concrete pair of racing events (trace indices).
type RaceEventPair = core.EventPair

// RaceVerdict classifies a vindicated race pair.
type RaceVerdict = core.Verdict

// Verdict values for vindicated race pairs.
const (
	VerdictRace        = core.VerdictRace
	VerdictDeadlock    = core.VerdictDeadlock
	VerdictUnconfirmed = core.VerdictUnconfirmed
)

// Vindication is a certified race pair with its witness schedule.
type Vindication = core.Vindication

// FindWCPRacePairs runs the §3.2 two-pass analysis returning the concrete
// event-level race pairs (the single-pass Report only knows the second
// event of each pair).
func FindWCPRacePairs(tr *Trace) []RaceEventPair { return core.FindRacePairs(tr) }

// VindicateWCPRaces extracts the event-level WCP race pairs and certifies
// each with the witness engine: a correct reordering revealing the race, a
// predictable deadlock (the Theorem 1 alternative), or unconfirmed if the
// budget ran out. maxPairs caps the work (0 = all pairs).
func VindicateWCPRaces(tr *Trace, maxPairs int, b SearchBudget) []Vindication {
	return core.Vindicate(tr, maxPairs, b)
}

// DetectHB runs the full-vector-clock happens-before detector.
func DetectHB(tr *Trace) *HBResult { return hb.Detect(tr) }

// DetectCP runs the Causally-Precedes baseline with the given window size
// (CP has no known linear-time algorithm, so it is analyzed per fragment;
// windowSize <= 0 analyzes the whole trace, feasible only for small ones).
func DetectCP(tr *Trace, windowSize int) *CPResult {
	return cp.Detect(tr, cp.Options{WindowSize: windowSize})
}

// DetectPredictive runs the windowed RVPredict-style reordering-search
// detector.
func DetectPredictive(tr *Trace, opts PredictOptions) *PredictResult {
	return predict.Detect(tr, opts)
}

// DetectLockset runs the Eraser lockset baseline (unsound: may report
// spurious races).
func DetectLockset(tr *Trace) *LocksetResult { return lockset.Detect(tr) }

// FindRaceWitness searches for a correct reordering scheduling the
// conflicting events e1 and e2 adjacently.
func FindRaceWitness(tr *Trace, e1, e2 int, b SearchBudget) (Witness, bool) {
	return predict.FindRaceWitness(tr, e1, e2, b)
}

// FindDeadlock searches for a correct reordering ending in a deadlock.
func FindDeadlock(tr *Trace, b SearchBudget) (Witness, bool) {
	return predict.FindDeadlock(tr, b)
}

// CheckReordering verifies the §2.1 correct-reordering conditions.
func CheckReordering(tr *Trace, ro Reordering) error { return trace.CheckReordering(tr, ro) }

// Benchmarks returns the synthetic equivalents of the paper's 18 Table-1
// benchmarks, in table order.
func Benchmarks() []Benchmark { return gen.Benchmarks }

// BenchmarkByName looks up one benchmark.
func BenchmarkByName(name string) (Benchmark, bool) { return gen.ByName(name) }

// RandomTrace generates a well-formed random trace.
func RandomTrace(cfg RandomTraceConfig) *Trace { return gen.Random(cfg) }

// ThreadScalingConfig parameterizes high-thread-count scenario generation.
type ThreadScalingConfig = gen.ThreadScalingConfig

// ThreadScalingShapes lists the supported thread-scaling scenario shapes.
func ThreadScalingShapes() []string { return gen.ThreadScalingShapes }

// ThreadScalingTrace generates a high-thread-count scenario trace (thread
// pools with disjoint lock neighborhoods, fork/join waves, or one hot
// global lock).
func ThreadScalingTrace(cfg ThreadScalingConfig) *Trace { return gen.ThreadScaling(cfg) }

// LowerBoundTrace builds the Figure-8 space-lower-bound trace for bit
// strings u and v (equal length): the two w(z) events race iff u ≠ v.
func LowerBoundTrace(u, v []bool) *Trace { return gen.LowerBound(u, v) }

// ReadTrace parses a trace, auto-detecting the binary format by its magic
// and falling back to the text format.
func ReadTrace(r io.Reader) (*Trace, error) { return traceio.ReadAuto(r) }

// ReadTraceFile parses a trace file, auto-detecting the format.
func ReadTraceFile(path string) (*Trace, error) { return traceio.ReadFile(path) }

// WriteTraceText writes the line-oriented text format.
func WriteTraceText(w io.Writer, tr *Trace) error { return traceio.WriteText(w, tr) }

// WriteTraceBinary writes the compact binary format.
func WriteTraceBinary(w io.Writer, tr *Trace) error { return traceio.WriteBinary(w, tr) }

// TraceStream decodes a trace incrementally, block by block, without ever
// materializing the whole event sequence (binary headers carry the
// dimensions up front; see OpenTraceStream).
type TraceStream = traceio.Stream

// TraceDims are the trace dimensions a streaming detector needs up front.
type TraceDims = traceio.Dims

// BinaryTraceWriter emits a binary-format trace incrementally: header up
// front, then events in blocks, never materializing the trace.
type BinaryTraceWriter = traceio.BinaryWriter

// DefaultStreamBlockSize is the event-buffer size streaming consumers use
// when they have no better number.
const DefaultStreamBlockSize = traceio.DefaultBlockSize

// OpenTraceStream starts decoding a trace from r, auto-detecting the format.
func OpenTraceStream(r io.Reader) (*TraceStream, error) { return traceio.OpenStream(r) }

// StreamTraceFile starts decoding a trace file, auto-detecting the format.
// The stream owns the file handle; Close releases it.
func StreamTraceFile(path string) (*TraceStream, error) { return traceio.StreamFile(path) }

// NewBinaryTraceWriter writes the binary header for a trace of exactly
// nevents events naming syms and returns a writer for the event body.
func NewBinaryTraceWriter(w io.Writer, syms *Symbols, nevents int) (*BinaryTraceWriter, error) {
	return traceio.NewBinaryWriter(w, syms, nevents)
}

// Engine is a race-detection analysis runnable over a trace; all engines
// are safe for concurrent use and share traces read-only.
type Engine = engine.Engine

// EngineResult is the uniform outcome of one engine over one trace.
type EngineResult = engine.Result

// EngineConfig carries the window/budget knobs of the windowed engines.
type EngineConfig = engine.Config

// TraceSource is one entry of an analysis corpus (a named trace loader).
type TraceSource = engine.Source

// CorpusResult is the streamed analysis of one corpus entry.
type CorpusResult = engine.CorpusResult

// StreamEngine is an Engine whose detector consumes a trace block by block,
// never materializing it ("wcp", "hb").
type StreamEngine = engine.StreamAnalyzer

// EnginesCanStream reports whether every engine supports streaming analysis.
func EnginesCanStream(engines []Engine) bool { return engine.CanStream(engines) }

// NewFileTraceSource returns a corpus entry for a trace file. The source is
// streamable: corpus runs whose engines all support streaming analyze the
// file block by block without materializing it.
func NewFileTraceSource(path string) TraceSource { return engine.FileSource(path) }

// NewEngine returns the named detector ("wcp", "hb", "cp", "predict",
// "lockset") behind the uniform Engine interface.
func NewEngine(name string, cfg EngineConfig) (Engine, error) { return engine.New(name, cfg) }

// AllEngines returns every detector, in canonical reporting order.
func AllEngines(cfg EngineConfig) []Engine { return engine.All(cfg) }

// EngineNames returns the valid engine names, sorted.
func EngineNames() []string { return engine.Names() }

// RunEngines fans tr out to all engines concurrently (each engine walks the
// shared trace with its own cursor) and returns results in engine order.
func RunEngines(ctx context.Context, tr *Trace, engines []Engine) []*EngineResult {
	return engine.RunAll(ctx, tr, engines)
}

// AnalyzeTraceFiles fans the trace files out across a pool of jobs workers
// (GOMAXPROCS when jobs <= 0), running every engine over every trace, and
// streams per-file results over the returned channel as files complete.
func AnalyzeTraceFiles(ctx context.Context, paths []string, engines []Engine, jobs int) <-chan CorpusResult {
	return engine.AnalyzeFiles(ctx, paths, engines, jobs)
}

// AnalyzeTraceCorpus is AnalyzeTraceFiles over arbitrary trace sources
// (e.g. in-memory traces via NewTraceSource).
func AnalyzeTraceCorpus(ctx context.Context, corpus []TraceSource, engines []Engine, jobs int) <-chan CorpusResult {
	return engine.AnalyzeCorpus(ctx, corpus, engines, jobs)
}

// NewTraceSource wraps an in-memory trace as a corpus entry.
func NewTraceSource(name string, tr *Trace) TraceSource { return engine.TraceSource(name, tr) }
