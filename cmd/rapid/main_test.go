package main

import (
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"testing"

	"repro/internal/trace/tracetest"
	"repro/internal/traceio"
)

// captureStdout runs f with os.Stdout redirected and returns what f
// printed along with its error.
func captureStdout(t *testing.T, f func() error) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	out := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		out <- b
	}()
	ferr := f()
	os.Stdout = stdout
	w.Close()
	return string(<-out), ferr
}

// eventIndex matches the event index a decode error ("event 7") or a
// violation ("event #7") names.
var eventIndex = regexp.MustCompile(`event #?(\d+)`)

// TestIllFormedRejected runs rapid on every tracetest shape, as a binary
// file: alone (loaded), in a two-file batch (loaded by the corpus runner)
// and with -stream. Each run fails, naming the shape's offending event.
func TestIllFormedRejected(t *testing.T) {
	*quiet = true
	defer func() { *stream = false }()
	for _, s := range tracetest.IllFormedTraces() {
		path := filepath.Join(t.TempDir(), "trace.bin")
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := traceio.WriteBinary(f, s.Trace); err != nil {
			t.Fatal(err)
		}
		f.Close()
		for _, mode := range []struct {
			name   string
			paths  []string
			stream bool
		}{
			{"one file", []string{path}, false},
			{"batch", []string{path, path}, false},
			{"stream", []string{path}, true},
		} {
			*stream = mode.stream
			out, err := captureStdout(t, func() error { return run(mode.paths) })
			if err == nil {
				t.Errorf("%s, %s: rapid accepted the trace", s.Name, mode.name)
				continue
			}
			got := -1
			if m := eventIndex.FindStringSubmatch(err.Error() + "\n" + out); m != nil {
				got, _ = strconv.Atoi(m[1])
			}
			if got != s.Index {
				t.Errorf("%s, %s: %v\n%s\nwant event %d named", s.Name, mode.name, err, out, s.Index)
			}
		}
	}
}
