package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand/v2"

	"repro/internal/gen"
	"repro/internal/trace"
	"repro/internal/traceio"
)

// The seed picks the trace order, each input's scale within its workload's
// band and, on serve-wide, the race-site and event counts. T, the engines,
// the chunk size and every trace's expected race counts are fixed by the
// workload, so two seeds give different bytes with the same properties.
//
// Scales are stratified: input k of a band draws from the k-th of K equal
// slices of it. Any seed then covers the band evenly, and a latency
// quantile over many inputs barely moves between seeds.

// batchTraces are the eight largest Table-1 synthetic traces (T 3–14).
var batchTraces = []string{"eclipse", "lusearch", "xalan", "bufwriter", "montecarlo", "derby", "jigsaw", "moldyn"}

// batchBand is the scale band of batch-table1 around the Table-1 default
// lengths; narrow, so a per-trace latency quantile is a property of the
// workload rather than of the seed.
var batchBand = [2]float64{0.98, 1.02}

// fleetTraces are fleet-small's Table-1 traces, at fleetBand scale
// (3k–38k events, T 3–13), fleetScales inputs each.
var fleetTraces = []string{"ftpserver", "derby", "jigsaw", "xalan", "moldyn", "raytracer"}

var fleetBand = [2]float64{0.15, 0.25}

const fleetScales = 8

// serve-wide: gen.ThreadScaling "pools" traces at T=256 of wideEvents
// events with wideRaces seeded race sites, wideInputs of them.
const (
	wideThreads = 256
	wideInputs  = 3
)

var (
	wideEvents = [2]int{380_000, 420_000}
	wideRaces  = [2]int{4, 12}
)

// input is one trace of a workload with the race counts the reference
// says it must produce.
type input struct {
	name   string
	tr     *trace.Trace // events and symbols; nil for batch, which keeps enc
	enc    []byte       // binary encoding; batch only
	events int
	// wantWCP and wantHB are the expected distinct race pairs, from the
	// generator's parameters (Table 1 columns 6–7, or the seeded race-site
	// count), never from the detectors under test.
	wantWCP, wantHB int
}

// inputSet is a workload's seeded inputs in the order the run uses them.
type inputSet struct {
	inputs []*input
	// digest is the SHA-256 of every input's binary encoding, in order.
	digest string
	events int
}

func newRNG(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15^stream))
}

// stratified returns k values, the i-th drawn uniformly from the i-th of k
// equal slices of band, in a seeded order.
func stratified(rng *rand.Rand, band [2]float64, k int) []float64 {
	out := make([]float64, k)
	w := (band[1] - band[0]) / float64(k)
	for i := range out {
		out[i] = band[0] + (float64(i)+rng.Float64())*w
	}
	rng.Shuffle(k, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// makeInputs generates and encodes a workload's inputs from the seed.
func makeInputs(workload string, seed uint64) (*inputSet, error) {
	switch workload {
	case "batch-table1":
		return batchInputs(seed)
	case "serve-wide":
		return wideInputsFor(seed)
	case "fleet-small":
		return fleetInputs(seed)
	}
	return nil, fmt.Errorf("unknown workload %q", workload)
}

func batchInputs(seed uint64) (*inputSet, error) {
	rng := newRNG(seed, 1)
	names := append([]string(nil), batchTraces...)
	rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	set := &inputSet{}
	h := sha256.New()
	for _, name := range names {
		b, ok := gen.ByName(name)
		if !ok {
			return nil, fmt.Errorf("no Table-1 benchmark %q", name)
		}
		scale := stratified(rng, batchBand, 1)[0]
		tr := b.Generate(scale)
		var buf bytes.Buffer
		if err := traceio.WriteBinary(&buf, tr); err != nil {
			return nil, fmt.Errorf("encoding %s: %w", name, err)
		}
		h.Write(buf.Bytes())
		in := &input{name: fmt.Sprintf("%s@%.4f", name, scale), enc: buf.Bytes(),
			events: len(tr.Events), wantWCP: b.WCPRaces(), wantHB: b.HBRaces}
		set.inputs = append(set.inputs, in)
		set.events += in.events
	}
	set.digest = hex.EncodeToString(h.Sum(nil))
	return set, nil
}

func fleetInputs(seed uint64) (*inputSet, error) {
	rng := newRNG(seed, 2)
	set := &inputSet{}
	for _, name := range fleetTraces {
		b, ok := gen.ByName(name)
		if !ok {
			return nil, fmt.Errorf("no Table-1 benchmark %q", name)
		}
		for _, scale := range stratified(rng, fleetBand, fleetScales) {
			tr := b.Generate(scale)
			set.inputs = append(set.inputs, &input{name: fmt.Sprintf("%s@%.4f", name, scale), tr: tr,
				events: len(tr.Events), wantWCP: b.WCPRaces(), wantHB: -1})
		}
	}
	rng.Shuffle(len(set.inputs), func(i, j int) { set.inputs[i], set.inputs[j] = set.inputs[j], set.inputs[i] })
	return set, set.hash()
}

func wideInputsFor(seed uint64) (*inputSet, error) {
	rng := newRNG(seed, 3)
	band := [2]float64{float64(wideEvents[0]), float64(wideEvents[1])}
	set := &inputSet{}
	for _, ev := range stratified(rng, band, wideInputs) {
		races := wideRaces[0] + rng.IntN(wideRaces[1]-wideRaces[0]+1)
		tr := gen.ThreadScaling(gen.ThreadScalingConfig{Threads: wideThreads, Events: int(ev), Shape: "pools", Races: races})
		set.inputs = append(set.inputs, &input{name: fmt.Sprintf("pools-T%d-e%d-r%d", wideThreads, int(ev), races), tr: tr,
			events: len(tr.Events), wantWCP: races, wantHB: races})
	}
	return set, set.hash()
}

// hash encodes every input's trace and records the digest and event total.
func (s *inputSet) hash() error {
	h := sha256.New()
	for _, in := range s.inputs {
		if err := traceio.WriteBinary(h, in.tr); err != nil {
			return fmt.Errorf("encoding %s: %w", in.name, err)
		}
		s.events += in.events
	}
	s.digest = hex.EncodeToString(h.Sum(nil))
	return nil
}
