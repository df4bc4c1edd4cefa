// Command racebench is the repository's benchmark: three seeded workloads
// driven through raced's public entry points, timed end to end with tracing
// off, and split across the repository's modules in a separate traced run.
//
//	go build -o racebench . && ./racebench --workload serve-wide --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
// See README.md for the workloads, every metric and what it should move.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"sync/atomic"
	"time"
)

// runLimit bounds a whole run, set-up and teardown included. A run that is
// still going when it expires has hung: the watchdog names the phase and
// exits non-zero instead of printing a result.
const runLimit = 170 * time.Second

// setupRounds is how many times an end-to-end run sets its workload up;
// setup_s is the median, so one slow start does not move it.
const setupRounds = 3

// config is one run's parameters, from the command line.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	// mutate, when set, edits the generated inputs before the run uses
	// them. Tests use it to plant a wrong expectation.
	mutate func(*inputSet)
}

func (c config) phaseDur() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

// result is what a run prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics collects named values with their units.
type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

// ops counts checked operations: one per trace analysed (batch) or per
// session streamed and finished (serving workloads).
type ops struct{ attempted, failed int }

func (o *ops) add(err error, log io.Writer, what string) {
	o.attempted++
	if err != nil {
		o.failed++
		fmt.Fprintf(log, "racebench: failed operation %s: %v\n", what, err)
	}
}

func (o *ops) merge(p ops) { o.attempted += p.attempted; o.failed += p.failed }

// workload runs one named workload: end to end (setupRounds set-ups, one
// untraced timed phase) or traced (one set-up, an untraced and a traced
// phase, the isolated replay and the /metrics cross-check).
type workload struct {
	name string
	run  func(ctx context.Context, cfg config, env *runEnv) (metrics, ops, error)
}

var workloads = []workload{
	{"batch-table1", runBatch},
	{"serve-wide", runServeWide},
	{"fleet-small", runFleetSmall},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runEnv carries the run's phase marker and diagnostics stream.
type runEnv struct {
	phase atomic.Value // string
	log   io.Writer
}

func (e *runEnv) setPhase(p string) { e.phase.Store(p) }

func (e *runEnv) currentPhase() string {
	if p, ok := e.phase.Load().(string); ok {
		return p
	}
	return "start"
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("racebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: batch-table1, serve-wide or fleet-small")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "length of each timed phase in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "racebench: need --workload (batch-table1, serve-wide, fleet-small), --seconds > 0 and --trace 0|1\n")
		return 2
	}
	cfg := config{workload: w.name, seed: *seed, seconds: *seconds, traced: *trace == 1}
	env := &runEnv{log: stderr}
	env.setPhase("start")

	watchdog := time.AfterFunc(runLimit, func() {
		fmt.Fprintf(stderr, "racebench: workload %s hung in phase %q after %v\n", w.name, env.currentPhase(), runLimit)
		os.Exit(3)
	})
	defer watchdog.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), runLimit)
	defer cancel()

	fmt.Fprintf(stdout, "racebench: workload=%s seed=%d seconds=%g trace=%d\n", w.name, cfg.seed, cfg.seconds, *trace)
	m, o, err := w.run(ctx, cfg, env)
	if err != nil {
		fmt.Fprintf(stderr, "racebench: workload %s failed in phase %q: %v\n", w.name, env.currentPhase(), err)
		return 1
	}
	return printResult(stdout, m, o)
}

func printResult(stdout io.Writer, m metrics, o ops) int {
	res := result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: m}
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "  %-34s %14.6g %s\n", n, m[n].Value, m[n].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "racebench: encoding result: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}
