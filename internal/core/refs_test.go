package core

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/gen"
	"repro/internal/snap"
	"repro/internal/trace"
	"repro/internal/vc"
)

// refChurn is the number of critical sections two threads run on the lock
// between the first accesses and the last ones in refTraces: enough for
// at least three compactions of the lock's log at either record layout.
const refChurn = 3000

// refTrace is one of refTraces: the trace, and the index where its final
// critical sections, the ones that read the outlived references, begin.
type refTrace struct {
	tr   *trace.Trace
	tail int
}

// refTraces returns the traces whose references outlive their log
// records, at a windowed (T = 12) width, padded with idle threads, and at
// a fixed-stride (T = 4) width:
//
//   - slot: a writes x and z under ℓ, b writes x under ℓ (which settles a's
//     record), b and c then churn ℓ on y until its log has compacted the
//     first records away, and finally d reads z and x and b reads x under
//     ℓ. d joins the rule-(a) slots of z (a's release) and x (b's), and b
//     the runner-up of x (a's), all below the log's base by then;
//   - own: a writes x under ℓ, b writes x under ℓ, b and c churn, and a
//     takes ℓ again: its own-queue entry, whose record was settled and
//     compacted away in between, drains with nothing to join.
func refTraces() map[string]refTrace {
	out := map[string]refTrace{}
	for _, width := range []int{4, 12} {
		for _, shape := range []string{"slot", "own"} {
			b := trace.NewBuilder()
			for i := 0; i < width-4; i++ {
				b.Read(fmt.Sprintf("idle%d", i), fmt.Sprintf("p%d", i))
			}
			n := width - 4
			cs := func(t string, reads, writes []string) {
				b.Acquire(t, "l")
				for _, x := range reads {
					b.Read(t, x)
				}
				for _, x := range writes {
					b.Write(t, x)
				}
				b.Release(t, "l")
				n += 2 + len(reads) + len(writes)
			}
			cs("a", nil, []string{"x", "z"})
			cs("b", nil, []string{"x"})
			for i := 0; i < refChurn; i++ {
				cs([]string{"b", "c"}[i%2], nil, []string{"y"})
			}
			tail := n
			if shape == "slot" {
				cs("d", []string{"z", "x"}, nil)
				cs("b", []string{"x"}, nil)
			} else {
				cs("a", nil, []string{"x"})
				cs("b", nil, []string{"x"})
			}
			out[fmt.Sprintf("refs/%s/T%d", shape, width)] = refTrace{b.Build(), tail}
		}
	}
	return out
}

// TestRefTracesBelowBase pins what refTraces are for: before the final
// critical sections, the lock's log has compacted at least three times,
// and at both record layouts the references those sections read — z's Lw
// slot, x's Lw slot and its runner-up, and a's own-queue entry — point
// below the log's base, so they read as ⊥. TestAlgorithm1Oracle and
// TestRefTracesRestoreEverywhere therefore run the ⊥ path, and show that
// on the lock chain its joins had nothing to add. Hℓ is the log's newest
// record.
func TestRefTracesBelowBase(t *testing.T) {
	for name, rt := range refTraces() {
		tr := rt.tr
		d := NewDetector(tr.NumThreads(), tr.NumLocks(), tr.NumVars(), Options{})
		d.ProcessBlock(trace.BlockOf(tr.Events[:rt.tail]))
		ls := d.locks[0]
		if dropped := ls.log.base - 1; dropped < 3*ringCompactAt {
			t.Errorf("%s: the log dropped %d words, want at least three compactions", name, dropped)
		}
		q := &ls.own[tr.Symbols.Thread("a")]
		z := &ls.acc.get(tr.Symbols.Var("z")).w
		x := &ls.acc.get(tr.Symbols.Var("x")).w
		refs := map[string]relRef{"z's Lw": z.a, "x's Lw": x.a, "x's Lw runner-up": x.b}
		for what, r := range refs {
			if r <= 0 || int(r) >= ls.log.base {
				t.Errorf("%s: %s references offset %d, want below the log's base %d", name, what, r, ls.log.base)
			}
		}
		if q.empty() {
			t.Errorf("%s: a's own-queue holds no entry", name)
		} else if r := q.refs[q.head].rel; r <= 0 || int(r) >= ls.log.base {
			t.Errorf("%s: a's own-queue entry references offset %d, want below the log's base %d", name, r, ls.log.base)
		}
		newest := 0
		for off := 0; off < len(ls.log.buf); off += recLen(ls.log.buf, off, tr.NumThreads(), d.denseQ) {
			newest = ls.log.base + off
		}
		if int(ls.hl) != newest {
			t.Errorf("%s: Hℓ references offset %d, want the newest record's %d", name, ls.hl, newest)
		}
	}
}

// TestRefTracesRestoreEverywhere snapshots and restores the detector at
// every block boundary of refTraces and runs the rest of the trace on the
// restored copy: every event's C-time and H-time, the report and
// QueueMaxTotal must equal the straight-through run's.
func TestRefTracesRestoreEverywhere(t *testing.T) {
	for name, rt := range refTraces() {
		restoreEverywhere(t, name, rt.tr)
	}
}

// TestRestoreEverywhere is TestRefTracesRestoreEverywhere on two random
// traces, at a fixed-stride (T = 2) and a windowed (T = 12) width, where
// rule-(a) runner-ups still in the log add to their readers' Pt after a
// restore.
func TestRestoreEverywhere(t *testing.T) {
	for _, cfg := range []gen.RandomConfig{
		{Threads: 2, Locks: 1, Vars: 5, Events: 5664, Seed: 32, Locations: 8},
		{Threads: 12, Locks: 4, Vars: 5, Events: 1415, Seed: 95, ForkJoin: true, Locations: 8},
	} {
		restoreEverywhere(t, fmt.Sprintf("random/T%d/seed%d", cfg.Threads, cfg.Seed), gen.Random(cfg))
	}
}

// restoreEverywhere snapshots and restores a detector at every 256-event
// block boundary of tr and requires the rest of the run on the restored
// copy to match the straight-through run's times, report and
// QueueMaxTotal.
func restoreEverywhere(t *testing.T, name string, tr *trace.Trace) {
	t.Helper()
	const block = 256
	straight := NewDetector(tr.NumThreads(), tr.NumLocks(), tr.NumVars(), Options{TrackPairs: true})
	want := stepTimes(straight, tr, 0)
	for at := block; at < tr.Len(); at += block {
		d := NewDetector(tr.NumThreads(), tr.NumLocks(), tr.NumVars(), Options{TrackPairs: true})
		d.ProcessBlock(trace.BlockOf(tr.Events[:at]))
		var buf bytes.Buffer
		w := snap.NewWriter(&buf)
		if err := d.EncodeSnapshot(w); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		rd, err := snap.NewReader(&buf)
		if err != nil {
			t.Fatal(err)
		}
		r, err := DecodeSnapshot(rd)
		if err != nil {
			t.Fatalf("%s at %d: %v", name, at, err)
		}
		got := stepTimes(r, tr, at)
		for i := range got {
			if !got[i].Equal(want[at+i]) {
				t.Fatalf("%s restored at %d: event %d (%s): %v, straight through %v",
					name, at, at+i, tr.Describe(at+i), got[i], want[at+i])
			}
		}
		rr, sr := r.Result(), straight.Result()
		if rr.QueueMaxTotal != sr.QueueMaxTotal || rr.RacyEvents != sr.RacyEvents ||
			rr.Report.Format(tr.Symbols) != sr.Report.Format(tr.Symbols) {
			t.Fatalf("%s restored at %d: QueueMaxTotal %d racy %d, straight through %d, %d",
				name, at, rr.QueueMaxTotal, rr.RacyEvents, sr.QueueMaxTotal, sr.RacyEvents)
		}
	}
}

// stepTimes feeds tr's events from index from on to d as one-event blocks
// and returns, per event, its C-time and H-time side by side.
func stepTimes(d *Detector, tr *trace.Trace, from int) []vc.VC {
	var out []vc.VC
	for i := from; i < len(tr.Events); i++ {
		d.ProcessBlock(trace.BlockOf(tr.Events[i : i+1]))
		t := int(tr.Events[i].Thread)
		out = append(out, append(d.effectiveTime(t).Clone(), d.threads[t].h.Clone()...))
	}
	return out
}
