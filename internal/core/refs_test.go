package core

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/snap"
	"repro/internal/trace"
	"repro/internal/vc"
)

// refChurn is the number of critical sections two threads run on the lock
// between the first accesses and the last ones in refTraces: enough for
// at least three compactions of the lock's log at either record layout.
const refChurn = 3000

// refTrace is one of refTraces: the trace, the indices of a's and b's
// first releases, and the index where its final critical sections, the
// ones that read the outlived references, begin.
type refTrace struct {
	tr         *trace.Trace
	relA, relB int
	tail       int
}

// refTraces returns the traces whose references outlive their log
// records, at a windowed (T = 12) width, padded with idle threads, and at
// a fixed-stride (T = 4) width, where the holders keep copies instead:
//
//   - slot: a writes x and z under ℓ, b writes x under ℓ (which settles a's
//     record), b and c then churn ℓ on y until its log has compacted the
//     first records away, and finally d reads z and x and b reads x under
//     ℓ. d joins the rule-(a) slots of z (a's release) and x (b's), and b
//     the runner-up of x (a's), all inline copies by then;
//   - own: a writes x under ℓ, b writes x under ℓ, b and c churn, and a
//     takes ℓ again: its own-queue entry, whose record was settled and
//     compacted away in between, drains from its inline copy.
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
			relA := n - 1
			cs("b", nil, []string{"x"})
			relB := n - 1
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
			out[fmt.Sprintf("refs/%s/T%d", shape, width)] = refTrace{b.Build(), relA, relB, tail}
		}
	}
	return out
}

// TestRefTracesInline pins what refTraces are for: before the final
// critical sections, the lock's log has compacted at least three times,
// and the references they read are inline copies of the right release
// times — z's Lw slot of a's first release, x's of b's and (runner-up)
// a's, and a's own-queue entry of a's. Well-formed traces cannot show a
// wrong copy in their timestamps: every later releaser's Pt already
// dominates a dropped record's time, so the joins it feeds are no-ops.
func TestRefTracesInline(t *testing.T) {
	for name, rt := range refTraces() {
		tr := rt.tr
		hb := DetectOpts(tr, Options{CollectTimestamps: true}).HBTimes
		d := NewDetector(tr.NumThreads(), tr.NumLocks(), tr.NumVars(), Options{})
		d.ProcessBlock(trace.BlockOf(tr.Events[:rt.tail]))
		ls := d.locks[0]
		if dropped := ls.log.base - 1; dropped < 3*ringCompactAt {
			t.Errorf("%s: the log dropped %d words, want at least three compactions", name, dropped)
		}
		tmp := vc.New(tr.NumThreads())
		inline := func(what string, r *relRef, rel int) {
			t.Helper()
			if r.off != 0 || !r.present() {
				t.Errorf("%s: %s is not an inline copy (offset %d)", name, what, r.off)
			} else if got := d.unpackRef(r, &ls.log, tmp); !got.Equal(hb[rel]) {
				t.Errorf("%s: %s holds %v, want the H-time %v of event %d", name, what, got, hb[rel], rel)
			}
		}
		z := &ls.acc.get(tr.Symbols.Var("z")).w
		x := &ls.acc.get(tr.Symbols.Var("x")).w
		inline("z's Lw", &z.a, rt.relA)
		inline("x's Lw", &x.a, rt.relB)
		inline("x's Lw runner-up", &x.b, rt.relA)
		q := &ls.own[tr.Symbols.Thread("a")]
		if q.ih == len(q.inl) || q.rh != len(q.refs) {
			t.Errorf("%s: a's own-queue entry is not an inline copy", name)
			continue
		}
		r, lo, hi, mask, _ := relAt(q.inl, q.ih+1, tr.NumThreads(), d.denseQ)
		tmp.Zero()
		unpackRel(tmp, r, lo, hi, mask, d.threads[0].p.ChunkShift())
		if !tmp.Equal(hb[rt.relA]) {
			t.Errorf("%s: a's own-queue entry holds %v, want %v", name, tmp, hb[rt.relA])
		}
	}
}

// TestRefTracesRestoreEverywhere snapshots and restores the detector at
// every block boundary of refTraces and runs the rest of the trace on the
// restored copy: every event's C-time and H-time, the report and
// QueueMaxTotal must equal the straight-through run's.
func TestRefTracesRestoreEverywhere(t *testing.T) {
	const block = 256
	for name, rt := range refTraces() {
		tr := rt.tr
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
}

// stepTimes feeds tr's events from index from on to d one at a time and
// returns, per event, its C-time and H-time side by side.
func stepTimes(d *Detector, tr *trace.Trace, from int) []vc.VC {
	var out []vc.VC
	for _, e := range tr.Events[from:] {
		d.Process(e)
		t := int(e.Thread)
		out = append(out, append(d.effectiveTime(t).Clone(), d.threads[t].h.Clone()...))
	}
	return out
}
