package core

import "repro/internal/trace"

// RecountStateBytes returns StateBytes with every lock's share counted
// from scratch (lockBytes) instead of read from its running count.
func (d *Detector) RecountStateBytes() int {
	n := d.StateBytes()
	for _, ls := range d.locks {
		if ls != nil {
			n += d.lockBytes(ls) - ls.bytes
		}
	}
	return n
}

// RefTraces returns refTraces to the external tests.
func RefTraces() map[string]*trace.Trace {
	out := map[string]*trace.Trace{}
	for name, rt := range refTraces() {
		out[name] = rt.tr
	}
	return out
}
