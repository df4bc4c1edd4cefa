// Package tracetest holds the traces that break §2.1, one per kind of
// violation, that the tests of every entry point feed to show the entry
// rejects them at the same event.
package tracetest

import (
	"strings"

	"repro/internal/event"
	"repro/internal/trace"
	"repro/internal/traceio"
)

// IllFormed is a trace whose event Index is the first to break §2.1. A
// well-formed prefix of zero to two critical sections leads up to it, so
// that the violations sit at varied indices, and its prefix repeats after
// it.
type IllFormed struct {
	Name  string
	Trace *trace.Trace
	Index int
}

// IllFormedTraces returns one trace per violation, the last event of each
// text below; the last one's operand lies beyond the universe its symbol
// table declares.
func IllFormedTraces() []IllFormed {
	shapes := [][2]string{
		{"second holder", "t1|acq(l) t1|w(x) t2|acq(l)"},
		{"release with no acquire", "t1|rel(l)"},
		{"release out of nesting order", "t1|acq(l) t1|acq(m) t1|rel(l)"},
		{"event after join", "t2|w(x) t1|join(t2) t2|w(y)"},
		{"fork of a started thread", "t2|w(x) t1|fork(t2)"},
		{"double fork", "t1|fork(t2) t3|fork(t2)"},
		{"self fork", "t1|fork(t1)"},
		{"self join", "t1|join(t1)"},
		{"id beyond the universe", "t1|w(x)"},
	}
	out := make([]IllFormed, len(shapes))
	for i, s := range shapes {
		text := strings.Repeat("t0|acq(p) t0|w(y) t0|rel(p) ", i%3) + s[1]
		tr, err := traceio.ReadText(strings.NewReader(strings.ReplaceAll(text, " ", "\n")))
		if err != nil {
			panic(err)
		}
		if i == len(shapes)-1 {
			tr.Events = append(tr.Events, event.Event{Kind: event.Read, Obj: int32(tr.NumVars()), Loc: event.NoLoc})
		}
		index := tr.Len() - 1
		tr.Events = append(tr.Events, tr.Events[:index]...)
		out[i] = IllFormed{s[0], tr, index}
	}
	return out
}
