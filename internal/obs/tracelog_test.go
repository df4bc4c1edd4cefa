package obs

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

func TestTraceLogRingEviction(t *testing.T) {
	l := NewTraceLog(4)
	base := time.Unix(0, 0)
	for i := 0; i < 6; i++ {
		l.Add(Span{Trace: "t", Name: "chunk", Start: base.Add(time.Duration(i) * time.Second)})
	}
	if l.Len() != 4 {
		t.Fatalf("Len = %d, want 4 (ring capacity)", l.Len())
	}
	got := l.ByTrace("t")
	if len(got) != 4 {
		t.Fatalf("ByTrace returned %d spans, want 4", len(got))
	}
	// The two oldest spans (0s, 1s) were evicted; order is by start time.
	for i, sp := range got {
		want := base.Add(time.Duration(i+2) * time.Second)
		if !sp.Start.Equal(want) {
			t.Errorf("span %d starts at %v, want %v", i, sp.Start, want)
		}
	}
}

func TestTraceLogFilters(t *testing.T) {
	l := NewTraceLog(16)
	l.Add(Span{Trace: "a", Session: "s1", Name: "create"})
	l.Add(Span{Trace: "a", Session: "s1", Name: "chunk"})
	l.Add(Span{Trace: "b", Session: "s2", Name: "create"})
	l.Add(Span{Session: "s1", Name: "checkpoint"}) // background work: no trace
	if got := l.ByTrace("a"); len(got) != 2 {
		t.Errorf("ByTrace(a) = %d spans, want 2", len(got))
	}
	if got := l.BySession("s1"); len(got) != 3 {
		t.Errorf("BySession(s1) = %d spans, want 3", len(got))
	}
	if got := l.ByTrace("nope"); len(got) != 0 {
		t.Errorf("ByTrace(nope) = %d spans, want 0", len(got))
	}
}

// TestNewTraceID pins NewID as the trace-id generator clients use (servers
// and coordinators mint session ids with it too).
func TestNewTraceID(t *testing.T) {
	a, b := NewID(), NewID()
	if len(a) != 16 || !ValidID(a) {
		t.Errorf("bad trace id %q", a)
	}
	if a == b {
		t.Error("trace ids must be unique")
	}
}

func TestValidID(t *testing.T) {
	for id, want := range map[string]bool{
		"abc123":                 true,
		"A-Z_09":                 true,
		"":                       false,
		"has space":              false,
		"dot.dot":                false,
		"slash/y":                false,
		string(make([]byte, 65)): false,
	} {
		if got := ValidID(id); got != want {
			t.Errorf("ValidID(%q) = %v, want %v", id, got, want)
		}
	}
}

// TestWriteError pins the error body every raced and coordinator endpoint
// answers with: one indented "error" member and a JSON content type.
func TestWriteError(t *testing.T) {
	rec := httptest.NewRecorder()
	WriteError(rec, http.StatusNotFound, "unknown session %q", "a<b")
	if rec.Code != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q", ct)
	}
	want := "{\n  \"error\": \"unknown session \\\"a\\u003cb\\\"\"\n}\n"
	if got := rec.Body.String(); got != want {
		t.Fatalf("body = %q, want %q", got, want)
	}
}
