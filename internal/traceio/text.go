// Package traceio reads and writes traces in two formats:
//
//   - a line-oriented text format modeled on the RAPID/RVPredict "std"
//     logs the paper's tool consumes: one event per line,
//     "thread|op(operand)|location", e.g. "t1|acq(l)|Main.java:17";
//   - a compact length-prefixed binary format for large generated traces.
//
// Both formats round-trip exactly (symbol names and order included), and
// Stream decodes either one block by block for the online analysis mode
// the paper emphasizes (§3.2, "Our algorithm works in a streaming
// fashion").
package traceio

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/event"
	"repro/internal/trace"
)

// ParseError reports a malformed line in the text format.
type ParseError struct {
	Line int    // 1-based line number
	Text string // offending line
	Err  error  // underlying reason
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("traceio: line %d %q: %v", e.Line, e.Text, e.Err)
}

func (e *ParseError) Unwrap() error { return e.Err }

var kindByName = map[string]event.Kind{
	"acq":     event.Acquire,
	"acquire": event.Acquire,
	"rel":     event.Release,
	"release": event.Release,
	"r":       event.Read,
	"read":    event.Read,
	"w":       event.Write,
	"write":   event.Write,
	"fork":    event.Fork,
	"join":    event.Join,
}

// parseLine parses "thread|op(operand)|loc". The location field is optional.
func parseLine(line string, syms *event.Symbols) (event.Event, error) {
	parts := strings.Split(line, "|")
	if len(parts) != 2 && len(parts) != 3 {
		return event.Event{}, fmt.Errorf("want 2 or 3 '|'-separated fields, got %d", len(parts))
	}
	threadName := strings.TrimSpace(parts[0])
	if threadName == "" {
		return event.Event{}, fmt.Errorf("empty thread name")
	}
	op := strings.TrimSpace(parts[1])
	open := strings.IndexByte(op, '(')
	if open < 0 || !strings.HasSuffix(op, ")") {
		return event.Event{}, fmt.Errorf("operation %q is not of the form op(operand)", op)
	}
	opName := op[:open]
	operand := op[open+1 : len(op)-1]
	kind, ok := kindByName[opName]
	if !ok {
		return event.Event{}, fmt.Errorf("unknown operation %q", opName)
	}
	if operand == "" {
		return event.Event{}, fmt.Errorf("empty operand in %q", op)
	}
	loc := event.NoLoc
	if len(parts) == 3 {
		if l := strings.TrimSpace(parts[2]); l != "" {
			loc = syms.Location(l)
		}
	}
	e := event.Event{Kind: kind, Thread: syms.Thread(threadName), Loc: loc}
	switch kind {
	case event.Acquire, event.Release:
		e.Obj = int32(syms.Lock(operand))
	case event.Read, event.Write:
		e.Obj = int32(syms.Var(operand))
	case event.Fork, event.Join:
		e.Obj = int32(syms.Thread(operand))
	}
	return e, nil
}

// parseEventsHeader recognizes the "# events N" header comment, which lets
// ReadText pre-size the event slice (the binary format's header always
// carries the count) and streaming consumers size buffers up front.
func parseEventsHeader(line string) (int, bool) {
	rest, ok := strings.CutPrefix(line, "#")
	if !ok {
		return 0, false
	}
	rest, ok = strings.CutPrefix(strings.TrimSpace(rest), "events")
	if !ok {
		return 0, false
	}
	n, err := strconv.Atoi(strings.TrimSpace(rest))
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// parseSymbolsHeader recognizes the "# symbols T L V P" header comment
// carrying the trace's symbol-universe sizes (threads, locks, variables,
// locations), which lets readers pre-size the intern tables so decoding
// never rehashes them mid-stream. The counts are untrusted sizing hints, so
// each is clamped to maxPrealloc; larger tables grow as names arrive.
func parseSymbolsHeader(line string) (counts [4]int, ok bool) {
	rest, found := strings.CutPrefix(line, "#")
	if !found {
		return counts, false
	}
	rest, found = strings.CutPrefix(strings.TrimSpace(rest), "symbols")
	if !found {
		return counts, false
	}
	fields := strings.Fields(rest)
	if len(fields) != len(counts) {
		return counts, false
	}
	for i, f := range fields {
		n, err := strconv.Atoi(f)
		if err != nil || n < 0 {
			return counts, false
		}
		counts[i] = min(n, maxPrealloc)
	}
	return counts, true
}

// ReadText parses a whole text-format trace from r. A "# events N" header
// comment, when present before the first event, pre-sizes the event slice;
// a "# symbols T L V P" comment pre-sizes the intern tables. Both hints are
// capped at maxPrealloc entries, as the binary header's counts are.
func ReadText(r io.Reader) (*trace.Trace, error) {
	syms := &event.Symbols{}
	tr := &trace.Trace{Symbols: syms}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			if tr.Events == nil {
				if n, ok := parseEventsHeader(line); ok {
					tr.Events = make([]event.Event, 0, min(n, maxPrealloc))
				}
				if c, ok := parseSymbolsHeader(line); ok {
					syms.Preallocate(c[0], c[1], c[2], c[3])
				}
			}
			continue
		}
		e, err := parseLine(line, syms)
		if err != nil {
			return nil, &ParseError{Line: lineNo, Text: line, Err: err}
		}
		tr.Events = append(tr.Events, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("traceio: %w", err)
	}
	return tr, nil
}

// WriteText writes tr to w in the text format, one event per line, preceded
// by "# events N" and "# symbols T L V P" header comments so readers can
// pre-size their event buffers and intern tables.
func WriteText(w io.Writer, tr *trace.Trace) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# events %d\n", len(tr.Events)); err != nil {
		return fmt.Errorf("traceio: %w", err)
	}
	if _, err := fmt.Fprintf(bw, "# symbols %d %d %d %d\n",
		tr.Symbols.NumThreads(), tr.Symbols.NumLocks(), tr.Symbols.NumVars(), tr.Symbols.NumLocations()); err != nil {
		return fmt.Errorf("traceio: %w", err)
	}
	for _, e := range tr.Events {
		var operand string
		switch e.Kind {
		case event.Acquire, event.Release:
			operand = tr.Symbols.LockName(e.Lock())
		case event.Read, event.Write:
			operand = tr.Symbols.VarName(e.Var())
		case event.Fork, event.Join:
			operand = tr.Symbols.ThreadName(e.Target())
		}
		if _, err := fmt.Fprintf(bw, "%s|%s(%s)", tr.Symbols.ThreadName(e.Thread), e.Kind, operand); err != nil {
			return fmt.Errorf("traceio: %w", err)
		}
		if e.Loc != event.NoLoc {
			if _, err := fmt.Fprintf(bw, "|%s", tr.Symbols.LocationName(e.Loc)); err != nil {
				return fmt.Errorf("traceio: %w", err)
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return fmt.Errorf("traceio: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("traceio: %w", err)
	}
	return nil
}
