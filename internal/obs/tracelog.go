package obs

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"
)

// HeaderTrace carries the request trace id end-to-end: minted by the
// client, forwarded verbatim by the coordinator, recorded by workers, and
// re-attached on failover restores so one id follows a session across
// worker deaths.
const HeaderTrace = "X-Raced-Trace"

// Span is one timed operation attributed to a trace and/or session. Spans
// live in a bounded ring (TraceLog) and are served by the /debug/trace and
// /debug/sessions endpoints; the coordinator merges rings fleet-wide.
type Span struct {
	Trace    string    `json:"trace,omitempty"`
	Session  string    `json:"session,omitempty"`
	Name     string    `json:"name"`
	Worker   string    `json:"worker,omitempty"`
	Engine   string    `json:"engine,omitempty"`
	Start    time.Time `json:"start"`
	Duration float64   `json:"seconds"`
	Events   uint64    `json:"events,omitempty"`
	Detail   string    `json:"detail,omitempty"`
	Err      string    `json:"error,omitempty"`
}

// DefaultSpanCap bounds the in-memory span ring: enough for the recent
// history of a busy worker without ever growing.
const DefaultSpanCap = 8192

// TraceLog is a fixed-capacity ring of spans. Add overwrites the oldest
// span once full; queries scan linearly (debug endpoints, not hot paths).
type TraceLog struct {
	mu   sync.Mutex
	buf  []Span
	next int
	full bool
}

// NewTraceLog returns a ring holding up to capacity spans
// (DefaultSpanCap if capacity <= 0).
func NewTraceLog(capacity int) *TraceLog {
	if capacity <= 0 {
		capacity = DefaultSpanCap
	}
	return &TraceLog{buf: make([]Span, capacity)}
}

// Add records a span, evicting the oldest if the ring is full.
func (l *TraceLog) Add(sp Span) {
	l.mu.Lock()
	l.buf[l.next] = sp
	l.next++
	if l.next == len(l.buf) {
		l.next = 0
		l.full = true
	}
	l.mu.Unlock()
}

// ByTrace returns all retained spans with the given trace id, ordered by
// start time.
func (l *TraceLog) ByTrace(id string) []Span {
	return l.filter(func(sp *Span) bool { return sp.Trace == id })
}

// BySession returns all retained spans for the given session id, ordered
// by start time: the session's lifecycle timeline.
func (l *TraceLog) BySession(id string) []Span {
	return l.filter(func(sp *Span) bool { return sp.Session == id })
}

// Len returns the number of retained spans.
func (l *TraceLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.full {
		return len(l.buf)
	}
	return l.next
}

func (l *TraceLog) filter(keep func(*Span) bool) []Span {
	l.mu.Lock()
	n := l.next
	if l.full {
		n = len(l.buf)
	}
	var out []Span
	for i := 0; i < n; i++ {
		if keep(&l.buf[i]) {
			out = append(out, l.buf[i])
		}
	}
	l.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
	return out
}

// NewID mints a 16-hex-char random id: the trace ids clients stamp on
// requests and the session ids servers and coordinators assign.
func NewID() string {
	var b [8]byte
	rand.Read(b[:])
	return hex.EncodeToString(b[:])
}

// TraceIDFrom extracts a well-formed trace id from the request, or "".
// Invalid ids are dropped rather than rejected: tracing is best-effort and
// must never fail a request.
func TraceIDFrom(r *http.Request) string {
	if id := r.Header.Get(HeaderTrace); ValidID(id) {
		return id
	}
	return ""
}

// ValidID reports whether s is a well-formed trace or session id: 1-64
// chars of [a-zA-Z0-9_-], so ids are safe in URLs, logs, and file names.
func ValidID(s string) bool {
	if len(s) == 0 || len(s) > 64 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// WriteJSON writes v as the indented JSON body of a response with the
// given status: the reply format of every raced and coordinator endpoint.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// WriteError answers a failed request with the body {"error": message}.
func WriteError(w http.ResponseWriter, code int, format string, args ...any) {
	WriteJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}
