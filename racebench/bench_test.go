package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/traceio"
)

// props summarises what a seed must not change about a workload's inputs.
func props(t *testing.T, workload string, set *inputSet) []string {
	t.Helper()
	var out []string
	for _, in := range set.inputs {
		base, _, _ := strings.Cut(in.name, "@")
		threads := 0
		switch {
		case in.tr != nil:
			threads = in.tr.Symbols.NumThreads()
		default:
			h, err := traceio.ReadHeader(bytes.NewReader(in.enc))
			if err != nil {
				t.Fatalf("%s: %v", in.name, err)
			}
			threads = h.Syms.NumThreads()
		}
		if workload == "serve-wide" {
			// The seed picks the event and race-site counts here, inside
			// the band; T and WCP = HB stay fixed.
			if in.events < wideEvents[0] || in.events > wideEvents[1]+100 {
				t.Errorf("%s: %d events outside the band %v", in.name, in.events, wideEvents)
			}
			if in.wantWCP != in.wantHB || in.wantWCP < wideRaces[0] || in.wantWCP > wideRaces[1] {
				t.Errorf("%s: races wcp=%d hb=%d outside the band %v", in.name, in.wantWCP, in.wantHB, wideRaces)
			}
			base = "pools"
		}
		key := fmt.Sprintf("%s T=%d", base, threads)
		if workload != "serve-wide" {
			key += fmt.Sprintf(" wcp=%d hb=%d", in.wantWCP, in.wantHB)
		}
		out = append(out, key)
	}
	sort.Strings(out)
	return out
}

func TestSeededInputs(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a, err := makeInputs(w.name, 7)
			if err != nil {
				t.Fatal(err)
			}
			b, err := makeInputs(w.name, 7)
			if err != nil {
				t.Fatal(err)
			}
			c, err := makeInputs(w.name, 8)
			if err != nil {
				t.Fatal(err)
			}
			if a.digest != b.digest {
				t.Errorf("seed 7 gave two different inputs: %s vs %s", a.digest, b.digest)
			}
			for i := range a.inputs {
				if !bytes.Equal(a.inputs[i].enc, b.inputs[i].enc) || a.inputs[i].name != b.inputs[i].name {
					t.Errorf("seed 7 input %d differs between two generations", i)
				}
			}
			if a.digest == c.digest {
				t.Errorf("seeds 7 and 8 gave byte-identical inputs")
			}
			pa, pc := props(t, w.name, a), props(t, w.name, c)
			if strings.Join(pa, "\n") != strings.Join(pc, "\n") {
				t.Errorf("seeds 7 and 8 differ in fixed properties:\n%v\n%v", pa, pc)
			}
		})
	}
}

func TestCheckCounts(t *testing.T) {
	in := &input{name: "x", events: 10, wantWCP: 3, wantHB: 2}
	for _, tc := range []struct {
		events   int
		distinct map[string]int
		ok       bool
	}{
		{10, map[string]int{"wcp": 3, "hb": 2}, true},
		{9, map[string]int{"wcp": 3, "hb": 2}, false},
		{10, map[string]int{"wcp": 2, "hb": 2}, false},
		{10, map[string]int{"wcp": 3}, false},
	} {
		if err := checkCounts(in, tc.events, tc.distinct); (err == nil) != tc.ok {
			t.Errorf("checkCounts(%d, %v) = %v, want ok=%v", tc.events, tc.distinct, err, tc.ok)
		}
	}
	fin := &client.FinishResult{Events: 10, Results: []client.EngineResult{
		{Engine: "wcp", Distinct: 3}, {Engine: "hb", Distinct: 2, Error: "boom"}}}
	if err := checkFinish(in, fin); err == nil {
		t.Errorf("checkFinish accepted an engine error")
	}
}

// TestWrongExpectationCounted plants a wrong reference for one input and
// checks that the run reports its analyses as failed operations.
func TestWrongExpectationCounted(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two workloads")
	}
	for _, name := range []string{"batch-table1", "fleet-small"} {
		t.Run(name, func(t *testing.T) {
			w, _ := findWorkload(name)
			cfg := config{workload: name, seed: 3, seconds: 0.3,
				mutate: func(s *inputSet) { s.inputs[0].wantWCP++ }}
			var log bytes.Buffer
			_, o, err := w.run(context.Background(), cfg, &runEnv{log: &log})
			if err != nil {
				t.Fatal(err)
			}
			if o.failed == 0 || o.failed >= o.attempted {
				t.Fatalf("attempted=%d failed=%d: want some but not all operations failed", o.attempted, o.failed)
			}
			if !strings.Contains(log.String(), "the reference says") {
				t.Errorf("failure not reported: %s", log.String())
			}
			var out bytes.Buffer
			printResult(&out, metrics{}, o)
			if !strings.Contains(out.String(), `"correct":false`) {
				t.Errorf("result does not say incorrect: %s", out.String())
			}
		})
	}
}

// TestTeardown starts and stops the fleet twice, traced and not, and checks
// that no goroutine outlives it.
func TestTeardown(t *testing.T) {
	ctx := context.Background()
	before := runtime.NumGoroutine()
	for _, rec := range []*recorder{nil, newRecorder()} {
		sys, err := startSystem(ctx, fleetSpec.sys, rec)
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.close(ctx); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines before, %d after teardown:\n%s", before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestBadArgumentsFail(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "serve-wide", "--trace", "2"},
		{"--workload", "serve-wide", "--seconds", "0"},
	} {
		var out, errs bytes.Buffer
		if code := run(args, &out, &errs); code == 0 || strings.Contains(out.String(), "{") {
			t.Errorf("run(%v) = %d with output %q, want a non-zero exit and no result", args, code, out.String())
		}
	}
}

func TestCovered(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(a, b int) *span {
		return &span{start: t0.Add(time.Duration(a)), end: t0.Add(time.Duration(b))}
	}
	parent := at(0, 100)
	got := covered(parent, []*span{at(10, 30), at(20, 40), at(90, 120), at(50, 60)})
	if want := time.Duration(30 + 10 + 10); got != want {
		t.Errorf("covered = %v, want %v", got, want)
	}
}

// TestTracedRun runs every workload's traced measurement briefly and checks
// that it reports every declared per-layer metric, and that the layers on
// its path were measured.
func TestTracedRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three workloads")
	}
	onPath := map[string][]string{
		"batch-table1": {"engine.pipeline_overlap", "core.process_ns_per_event", "hb.process_ns_per_event", "traceio.decode_ns_per_event"},
		"serve-wide":   {"server.chunk_us_p50", "client.self_us_per_chunk", "bench.layer_sum_ratio", "hb.process_ns_per_event"},
		"fleet-small":  {"fleet.proxy_self_us_p50", "fleet.forward_wire_us_p50", "fleet.placement_skew", "report.add_us_per_session"},
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var log bytes.Buffer
			m, o, err := w.run(context.Background(), config{workload: w.name, seed: 5, seconds: 0.3, traced: true}, &runEnv{log: &log})
			if err != nil {
				t.Fatalf("%v\n%s", err, log.String())
			}
			if o.failed != 0 || o.attempted == 0 {
				t.Fatalf("attempted=%d failed=%d\n%s", o.attempted, o.failed, log.String())
			}
			if len(m) != len(perLayer) {
				t.Errorf("%d metrics, %d declared", len(m), len(perLayer))
			}
			for _, l := range perLayer {
				if _, ok := m[l.name]; !ok {
					t.Errorf("missing %s", l.name)
				}
			}
			for _, name := range onPath[w.name] {
				if m[name].Value <= 0 {
					t.Errorf("%s = %v, want > 0 on this workload's path", name, m[name].Value)
				}
			}
		})
	}
}

// TestBenchmarkJSONDeclaresPerLayer keeps BENCHMARK.json and perLayer in step.
func TestBenchmarkJSONDeclaresPerLayer(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside the benchmark")
	}
	var b struct {
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json declares %d per-layer metrics, the benchmark %d", len(b.PerLayer), len(perLayer))
	}
	for i, l := range perLayer {
		if b.PerLayer[i].Name != l.name || b.PerLayer[i].Unit != l.unit {
			t.Errorf("per_layer[%d] = %s %s, want %s %s", i, b.PerLayer[i].Name, b.PerLayer[i].Unit, l.name, l.unit)
		}
	}
}
