package hb

import (
	"repro/internal/event"
	"repro/internal/race"
	"repro/internal/snap"
	"repro/internal/vc"
)

// Snapshot codec for the HB detector. Like internal/core's, the payload is
// canonical: thread clocks, lock clocks, per-variable access state, held
// stacks, and the result counters. Join-cache generations and clock dirty
// windows are recomputable and dropped — restore leaves caches cold and
// windows tight, which costs a few redundant compares and changes no
// verdict. A snapshot of a just-restored detector is byte-identical to the
// one it came from.

const (
	maxSnapThreads = 1 << 20
	maxSnapSyms    = 1 << 26
	maxSnapCells   = 1 << 24
)

// EncodeSnapshot appends the detector's full semantic state to w.
func (d *Detector) EncodeSnapshot(w *snap.Writer) error {
	w.Bool(d.opts.TrackPairs)
	w.Uvarint(uint64(d.width))
	w.Uvarint(uint64(len(d.locks)))
	w.Uvarint(uint64(len(d.vars)))

	w.Int(d.res.Events)
	w.Int(d.res.RacyEvents)
	w.Int(d.res.FirstRace)
	w.Bool(d.res.Report != nil)
	if d.res.Report != nil {
		d.res.Report.EncodeSnapshot(w)
	}

	for t := range d.ct {
		var fb byte
		if d.joined[t] {
			fb |= 1
		}
		w.Byte(fb)
		w.Sparse(d.ct[t].VC())
		if d.held != nil {
			held := make([]int32, len(d.held[t]))
			for i, l := range d.held[t] {
				held[i] = int32(l)
			}
			w.I32s(held)
		}
	}

	for _, lk := range d.locks {
		if lk == nil {
			w.Bool(false)
			continue
		}
		w.Bool(true)
		w.Sparse(lk.c.VC())
	}

	live := 0
	for x := range d.vars {
		if !hbVarFresh(&d.vars[x]) {
			live++
		}
	}
	w.Uvarint(uint64(live))
	prev := 0
	for x := range d.vars {
		vs := &d.vars[x]
		if hbVarFresh(vs) {
			continue
		}
		w.Uvarint(uint64(x - prev))
		prev = x
		vs.r.EncodeTime(w)
		vs.w.EncodeTime(w)
		vs.reads.EncodeSnapshot(w)
		vs.writes.EncodeSnapshot(w)
	}
	return nil
}

// hbVarFresh reports whether vs records no access. Every access updates
// Rx or Wx, so a variable with location cells is never fresh.
func hbVarFresh(vs *varState) bool { return vs.r.Fresh() && vs.w.Fresh() }

func decodeHBReadyWC(rd *snap.Reader, c *vc.WC, tmp vc.VC) error {
	tmp.Zero()
	if err := rd.Sparse(tmp); err != nil {
		return err
	}
	c.Zero()
	for i, v := range tmp {
		if v != 0 {
			c.Set(i, v)
		}
	}
	return nil
}

// DecodeSnapshot reconstructs a detector from a payload written by
// EncodeSnapshot. Any malformation surfaces as a *snap.DecodeError.
func DecodeSnapshot(rd *snap.Reader) (*Detector, error) {
	pairs, err := rd.Bool()
	if err != nil {
		return nil, err
	}
	opts := Options{TrackPairs: pairs}
	threads, err := rd.Count(maxSnapThreads)
	if err != nil {
		return nil, err
	}
	if threads == 0 {
		return nil, &snap.DecodeError{Reason: "zero threads"}
	}
	locks, err := rd.Count(maxSnapSyms)
	if err != nil {
		return nil, err
	}
	vars, err := rd.Count(maxSnapSyms)
	if err != nil {
		return nil, err
	}
	d := NewDetector(threads, locks, vars, opts)
	tmp := vc.New(threads)

	if d.res.Events, err = rd.Int(); err != nil {
		return nil, err
	}
	if d.res.RacyEvents, err = rd.Int(); err != nil {
		return nil, err
	}
	if d.res.FirstRace, err = rd.Int(); err != nil {
		return nil, err
	}
	hasReport, err := rd.Bool()
	if err != nil {
		return nil, err
	}
	if hasReport != (d.res.Report != nil) {
		return nil, &snap.DecodeError{Reason: "report presence inconsistent with options"}
	}
	if hasReport {
		if d.res.Report, err = race.DecodeSnapshotReport(rd); err != nil {
			return nil, err
		}
	}

	for t := range d.ct {
		fb, err := rd.Byte()
		if err != nil {
			return nil, err
		}
		if fb >= 2 {
			return nil, &snap.DecodeError{Reason: "bad thread flags"}
		}
		d.joined[t] = fb&1 != 0
		if err := decodeHBReadyWC(rd, &d.ct[t], tmp); err != nil {
			return nil, err
		}
		if d.held != nil {
			held, err := rd.I32s(maxSnapCells)
			if err != nil {
				return nil, err
			}
			for _, l := range held {
				if int(l) < 0 || int(l) >= locks {
					return nil, &snap.DecodeError{Reason: "held lock out of range"}
				}
				d.held[t] = append(d.held[t], event.LID(l))
			}
		}
	}

	for l := range d.locks {
		present, err := rd.Bool()
		if err != nil {
			return nil, err
		}
		if !present {
			continue
		}
		lk := &hbLock{joinGen: make([]uint32, d.width)}
		lk.c.Init(d.width)
		if err := decodeHBReadyWC(rd, &lk.c, tmp); err != nil {
			return nil, err
		}
		// At least one release has happened; gen=1 with cold join caches
		// forces each thread's next acquire to (no-op) re-join.
		lk.gen = 1
		d.locks[l] = lk
	}

	n, err := rd.Count(vars)
	if err != nil {
		return nil, err
	}
	x := 0
	for i := 0; i < n; i++ {
		dx, err := rd.Uvarint()
		if err != nil {
			return nil, err
		}
		if i == 0 {
			x = int(dx)
		} else {
			if dx == 0 {
				return nil, &snap.DecodeError{Reason: "non-increasing variable"}
			}
			x += int(dx)
		}
		if x >= vars {
			return nil, &snap.DecodeError{Reason: "variable out of range"}
		}
		vs := &d.vars[x]
		if err := vs.r.DecodeTime(rd, tmp); err != nil {
			return nil, err
		}
		if err := vs.w.DecodeTime(rd, tmp); err != nil {
			return nil, err
		}
		if err := vs.reads.DecodeSnapshot(rd, tmp); err != nil {
			return nil, err
		}
		if err := vs.writes.DecodeSnapshot(rd, tmp); err != nil {
			return nil, err
		}
		if hbVarFresh(vs) {
			return nil, &snap.DecodeError{Reason: "fresh variable encoded"}
		}
	}
	return d, nil
}

// Options returns the detector's option set (engine restore validates a
// decoded detector's options against the serialized engine name).
func (d *Detector) Options() Options { return d.opts }
