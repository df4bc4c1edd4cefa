package engine

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/event"
	"repro/internal/gen"
	"repro/internal/trace"
	"repro/internal/trace/tracetest"
	"repro/internal/traceio"
)

func TestCanStream(t *testing.T) {
	for _, name := range sessionEngineNames {
		if !CanStream([]Engine{MustNew(name, Config{})}) {
			t.Errorf("%s should stream", name)
		}
	}
	for _, name := range []string{"cp", "predict", "lockset"} {
		if CanStream([]Engine{MustNew(name, Config{})}) {
			t.Errorf("%s should not stream", name)
		}
	}
}

// streamingEngines returns the four streaming engines, in canonical order.
func streamingEngines() []Engine {
	engines := make([]Engine, len(sessionEngineNames))
	for i, name := range sessionEngineNames {
		engines[i] = MustNew(name, Config{})
	}
	return engines
}

// binaryTrace encodes tr in the binary trace format.
func binaryTrace(t testing.TB, tr *trace.Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := traceio.WriteBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestStreamMatchesMaterialized pins the streamed corpus path to the
// materialized one, report for report. The inputs are the eight Table-1
// traces of batch-table1 and two fork/join random traces that wrap the
// block ring, as binary files; the four streaming engines run in one corpus
// run, so they share each trace's decode, at one and two jobs. Every
// engine's report must format byte for byte as e.Analyze's, with the same
// counters, and every entry's Stats must be the trace's.
func TestStreamMatchesMaterialized(t *testing.T) {
	var traces []*trace.Trace
	for _, name := range []string{"eclipse", "lusearch", "xalan", "bufwriter", "montecarlo", "derby", "jigsaw", "moldyn"} {
		bench, _ := gen.ByName(name)
		traces = append(traces, bench.Generate(0.1))
	}
	for seed := int64(1); seed <= 2; seed++ {
		traces = append(traces, gen.Random(gen.RandomConfig{
			Seed: seed, Events: 5 * ringSize * traceio.DefaultBlockSize / 2,
			Threads: 6, Locks: 4, Vars: 16, ForkJoin: true,
		}))
	}
	dir := t.TempDir()
	paths := make([]string, len(traces))
	for i, tr := range traces {
		paths[i] = filepath.Join(dir, fmt.Sprintf("trace%d.bin", i))
		if err := os.WriteFile(paths[i], binaryTrace(t, tr), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	engines := streamingEngines()
	want := make([][]*Result, len(traces))
	for i, tr := range traces {
		for _, e := range engines {
			want[i] = append(want[i], e.Analyze(tr))
		}
	}

	for _, jobs := range []int{1, 2} {
		seen := 0
		for res := range AnalyzeFiles(context.Background(), paths, engines, jobs) {
			seen++
			tr := traces[res.Index]
			if res.Err != nil {
				t.Fatalf("jobs=%d %s: %v", jobs, res.Name, res.Err)
			}
			if ws := trace.ComputeStats(tr); res.Stats != ws {
				t.Errorf("jobs=%d %s: stats %+v, want %+v", jobs, res.Name, res.Stats, ws)
			}
			if res.Symbols == nil || res.Symbols.NumThreads() != tr.NumThreads() {
				t.Fatalf("jobs=%d %s: corpus result lacks the symbol table", jobs, res.Name)
			}
			for j, got := range res.Results {
				w := want[res.Index][j]
				if got.Err != nil {
					t.Fatalf("jobs=%d %s %s: streaming error: %v", jobs, res.Name, w.Engine, got.Err)
				}
				if got.Engine != w.Engine || got.RacyEvents != w.RacyEvents || got.FirstRace != w.FirstRace ||
					got.QueueMaxTotal != w.QueueMaxTotal {
					t.Errorf("jobs=%d %s: streamed %s (racy=%d first=%d qmax=%d) != materialized %s (racy=%d first=%d qmax=%d)",
						jobs, res.Name, got.Engine, got.RacyEvents, got.FirstRace, got.QueueMaxTotal,
						w.Engine, w.RacyEvents, w.FirstRace, w.QueueMaxTotal)
				}
				if (got.Report == nil) != (w.Report == nil) {
					t.Fatalf("jobs=%d %s %s: streamed report %v, materialized %v", jobs, res.Name, w.Engine, got.Report, w.Report)
				}
				if w.Report == nil {
					continue
				}
				if g, wf := got.Report.Format(res.Symbols), w.Report.Format(tr.Symbols); g != wf {
					t.Errorf("jobs=%d %s %s: streamed report differs from materialized:\n%s\n--- want ---\n%s",
						jobs, res.Name, w.Engine, g, wf)
				}
			}
		}
		if seen != len(traces) {
			t.Fatalf("jobs=%d: %d results for %d traces", jobs, seen, len(traces))
		}
	}
}

// TestAnalyzeCorpusDecodeError feeds corrupt binary traces to the streamed
// corpus runner: a body truncated halfway, and one whose event several
// blocks in has an invalid kind byte. The entry's Err must be the same
// *traceio.DecodeError, at the same offset and event, as a lone
// AnalyzeStream of each engine on that input gives, the entry must carry no
// per-engine results, and no goroutine may be left behind.
func TestAnalyzeCorpusDecodeError(t *testing.T) {
	tr := gen.Random(gen.RandomConfig{Seed: 9, Events: 5 * traceio.DefaultBlockSize, Threads: 4, Locks: 3, Vars: 8})
	full := binaryTrace(t, tr)
	var hdr, prefix bytes.Buffer
	if err := traceio.WriteHeader(&hdr, tr.Symbols, tr.Len()); err != nil {
		t.Fatal(err)
	}
	if err := traceio.EncodeEvents(&prefix, tr.Events[:3*traceio.DefaultBlockSize+100]); err != nil {
		t.Fatal(err)
	}
	corrupt := bytes.Clone(full)
	corrupt[hdr.Len()+prefix.Len()] = 0xff // no event kind
	inputs := []struct {
		name string
		data []byte
	}{
		{"truncated", full[:hdr.Len()+(len(full)-hdr.Len())/2]},
		{"corrupt-kind", corrupt},
	}
	engines := streamingEngines()
	base := runtime.NumGoroutine()
	for _, in := range inputs {
		t.Run(in.name, func(t *testing.T) {
			open := func() (*traceio.Stream, error) { return traceio.OpenStream(bytes.NewReader(in.data)) }
			want := make([]*traceio.DecodeError, len(engines))
			for j, e := range engines {
				st, err := open()
				if err != nil {
					t.Fatal(err)
				}
				if _, err := e.(StreamAnalyzer).AnalyzeStream(context.Background(), st); !errors.As(err, &want[j]) {
					t.Fatalf("%s: AnalyzeStream error %v, want a *traceio.DecodeError", e.Name(), err)
				}
			}
			src := Source{Name: in.name, Open: open}
			for res := range AnalyzeCorpus(context.Background(), []Source{src}, engines, 1) {
				var got *traceio.DecodeError
				if !errors.As(res.Err, &got) {
					t.Fatalf("entry error %v, want a *traceio.DecodeError", res.Err)
				}
				if len(res.Results) != 0 {
					t.Errorf("%d per-engine results beside the entry error", len(res.Results))
				}
				for j, e := range engines {
					if got.Offset != want[j].Offset || got.Event != want[j].Event {
						t.Errorf("%v, lone AnalyzeStream of %s gave %v", got, e.Name(), want[j])
					}
				}
			}
		})
	}
	waitGoroutines(t, base)
}

// TestCorpusTextFallsBack verifies that text file sources — whose streams
// cannot declare dimensions up front — fall back to the materializing path
// and still produce correct results.
func TestCorpusTextFallsBack(t *testing.T) {
	bench, _ := gen.ByName("bubblesort")
	tr := bench.Generate(1.0)
	path := filepath.Join(t.TempDir(), "trace.log")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := traceio.WriteText(f, tr); err != nil {
		t.Fatal(err)
	}
	f.Close()

	engines := []Engine{MustNew("wcp", Config{})}
	for res := range AnalyzeCorpus(context.Background(), []Source{FileSource(path)}, engines, 1) {
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		want := engines[0].Analyze(tr)
		if got := res.Results[0]; got.Distinct() != want.Distinct() {
			t.Errorf("distinct = %d, want %d", got.Distinct(), want.Distinct())
		}
	}
}

// writeSyntheticBinary streams nevents race-free events to path without ever
// materializing them: four threads cycling protected critical sections.
func writeSyntheticBinary(t testing.TB, path string, nevents int) {
	t.Helper()
	syms := &event.Symbols{}
	threads := make([]event.TID, 4)
	for i := range threads {
		threads[i] = syms.Thread(string(rune('a' + i)))
	}
	lock := syms.Lock("l")
	x := syms.Var("x")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w, err := traceio.NewBinaryWriter(f, syms, nevents)
	if err != nil {
		t.Fatal(err)
	}
	block := make([]event.Event, 0, 4096)
	for i := 0; i < nevents; i += 4 {
		th := threads[(i/4)%len(threads)]
		n := nevents - i
		if n > 4 {
			n = 4
		}
		unit := [4]event.Event{
			{Kind: event.Acquire, Thread: th, Obj: int32(lock), Loc: event.NoLoc},
			{Kind: event.Read, Thread: th, Obj: int32(x), Loc: event.NoLoc},
			{Kind: event.Write, Thread: th, Obj: int32(x), Loc: event.NoLoc},
			{Kind: event.Release, Thread: th, Obj: int32(lock), Loc: event.NoLoc},
		}
		block = append(block, unit[:n]...)
		if len(block)+4 > cap(block) {
			if err := w.WriteEvents(block); err != nil {
				t.Fatal(err)
			}
			block = block[:0]
		}
	}
	if err := w.WriteEvents(block); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
}

// TestStreamingBoundsMaterialization is the memory contract of the
// streaming path: analyzing a multi-million-event binary trace allocates a
// small constant, not O(trace), both for one engine's AnalyzeStream and for
// a wcp+hb corpus run sharing one decode. Materializing the events alone
// would allocate 16 bytes per event; the bound below is a small fraction of
// that.
func TestStreamingBoundsMaterialization(t *testing.T) {
	const nevents = 2_000_000
	path := filepath.Join(t.TempDir(), "big.bin")
	writeSyntheticBinary(t, path, nevents)

	// allocated runs analyze and returns the bytes it allocated.
	allocated := func(analyze func()) uint64 {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		analyze()
		runtime.ReadMemStats(&m1)
		return m1.TotalAlloc - m0.TotalAlloc
	}
	runs := []struct {
		name    string
		analyze func(t *testing.T) []*Result
	}{
		{"wcp AnalyzeStream", func(t *testing.T) []*Result {
			st, err := traceio.StreamFile(path)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			res, err := MustNew("wcp", Config{}).(StreamAnalyzer).AnalyzeStream(context.Background(), st)
			if err != nil {
				t.Fatal(err)
			}
			if got := st.Stats().Events; got != nevents {
				t.Fatalf("analyzed %d events, want %d", got, nevents)
			}
			return []*Result{res}
		}},
		{"wcp+hb AnalyzeCorpus", func(t *testing.T) []*Result {
			engines := []Engine{MustNew("wcp", Config{}), MustNew("hb", Config{})}
			var cr CorpusResult
			for res := range AnalyzeFiles(context.Background(), []string{path}, engines, 1) {
				cr = res
			}
			if cr.Err != nil {
				t.Fatal(cr.Err)
			}
			if cr.Stats.Events != nevents {
				t.Fatalf("analyzed %d events, want %d", cr.Stats.Events, nevents)
			}
			return cr.Results
		}},
	}
	for _, run := range runs {
		t.Run(run.name, func(t *testing.T) {
			var results []*Result
			n := allocated(func() { results = run.analyze(t) })
			for _, res := range results {
				if res.Err != nil {
					t.Fatalf("%s: %v", res.Engine, res.Err)
				}
				if res.RacyEvents != 0 {
					t.Fatalf("%s: synthetic trace should be race-free, got %d racy events", res.Engine, res.RacyEvents)
				}
			}
			materialized := uint64(nevents) * 16 // sizeof(event.Event)
			if limit := materialized / 4; n > limit {
				t.Errorf("streaming analysis allocated %d bytes total for %d events; want < %d (full materialization would be ≥ %d)",
					n, nevents, limit, materialized)
			}
			t.Logf("streamed %d events with %d bytes total allocation (%.4f B/event)",
				nevents, n, float64(n)/nevents)
		})
	}
}

// eventCounter is a BlockProcessor that counts the events it is fed.
type eventCounter struct{ n int }

func (c *eventCounter) ProcessBlock(b *trace.Block) { c.n += b.Len() }

// TestIllFormedRejected drives every tracetest shape through the corpus
// runner, loaded and streamed, and through drive: each names the shape's
// offending event — either entry as its Err, with no per-engine results —
// and no processor sees the block that holds it.
func TestIllFormedRejected(t *testing.T) {
	engines := streamingEngines()
	for _, s := range tracetest.IllFormedTraces() {
		data := binaryTrace(t, s.Trace)
		open := func() (*traceio.Stream, error) { return traceio.OpenStream(bytes.NewReader(data)) }
		loaded, streamed := TraceSource(s.Name, s.Trace), Source{Name: s.Name, Open: open}
		for res := range AnalyzeCorpus(context.Background(), []Source{loaded, streamed}, engines, 1) {
			if len(res.Results) != 0 {
				t.Errorf("%s, entry %d: %d per-engine results beside the entry error", s.Name, res.Index, len(res.Results))
			}
			if got := errIndex(res.Err); got != s.Index {
				t.Errorf("%s, entry %d: %v names event %d, want %d", s.Name, res.Index, res.Err, got, s.Index)
			}
		}
		st, err := open()
		if err != nil {
			t.Fatal(err)
		}
		c := &eventCounter{}
		if err := drive(context.Background(), st, []*eventCounter{c}); errIndex(err) != s.Index {
			t.Errorf("%s: drive = %v, want the violation at event %d", s.Name, err, s.Index)
		}
		if c.n > s.Index {
			t.Errorf("%s: a processor saw %d events, past the violation at %d", s.Name, c.n, s.Index)
		}
	}
}

// errIndex returns the index of the event err rejects: a violation's Index
// or a decode error's Event; -1 when err names none.
func errIndex(err error) int {
	var ve *trace.ValidationError
	if errors.As(err, &ve) {
		return ve.Index
	}
	var de *traceio.DecodeError
	if errors.As(err, &de) {
		return int(de.Event)
	}
	return -1
}
