package obs

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
)

// TestReadBody covers the Content-Length cases: missing, exact, short
// (declared more than arrives), long (declared less), past BodyReserve,
// and over the limit, declared or not.
func TestReadBody(t *testing.T) {
	payload := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(i * 7)
		}
		return b
	}
	for _, tc := range []struct {
		name     string
		body     []byte
		declared int64
		limit    int64
		maxCap   int // the buffer's capacity may not exceed this (0: unchecked)
		tooLarge bool
	}{
		{name: "missing", body: payload(10_000), declared: -1, limit: 1 << 20},
		{name: "exact", body: payload(10_000), declared: 10_000, limit: 1 << 20, maxCap: 10_000},
		{name: "empty", body: []byte{}, declared: 0, limit: 1 << 20},
		{name: "short", body: payload(100), declared: 1 << 30, limit: 1 << 31, maxCap: BodyReserve},
		{name: "long", body: payload(100), declared: 5, limit: 1 << 20},
		{name: "past reserve", body: payload(BodyReserve + 12_345), declared: BodyReserve + 12_345,
			limit: 1 << 30, maxCap: BodyReserve + 12_345},
		{name: "over limit", body: payload(2000), declared: 2000, limit: 1000, tooLarge: true},
		{name: "over limit, missing", body: payload(2000), declared: -1, limit: 1000, tooLarge: true},
		{name: "over limit, short", body: payload(2000), declared: 500, limit: 1000, tooLarge: true},
	} {
		r := httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(tc.body))
		r.ContentLength = tc.declared
		got, err := ReadBody(httptest.NewRecorder(), r, tc.limit)
		if tc.tooLarge {
			var mbe *http.MaxBytesError
			if !errors.As(err, &mbe) {
				t.Errorf("%s: err = %v, want *http.MaxBytesError", tc.name, err)
			}
			continue
		}
		if err != nil || !bytes.Equal(got, tc.body) {
			t.Errorf("%s: read %d bytes (err %v), want the %d sent", tc.name, len(got), err, len(tc.body))
		}
		if tc.maxCap > 0 && cap(got) > tc.maxCap {
			t.Errorf("%s: buffer capacity %d, want at most %d", tc.name, cap(got), tc.maxCap)
		}
	}
}

// patternReader yields n bytes of a fixed pattern, at most 64 KiB a read,
// as a network body arrives.
type patternReader struct{ off, n int }

func (p *patternReader) Read(b []byte) (int, error) {
	if p.off == p.n {
		return 0, io.EOF
	}
	k := min(len(b), p.n-p.off, 64<<10)
	for i := range b[:k] {
		b[i] = byte((p.off + i) * 7)
	}
	p.off += k
	return k, nil
}

// TestReadBodyLarge reads a declared body eight times BodyReserve and
// bounds what the reader allocates: growing geometrically from
// BodyReserve copies the bytes received a bounded number of times (4, 8,
// 16 and 32 MiB buffers here, under twice the body), where growing by a
// fixed BodyReserve step would allocate 4.5 times the body.
func TestReadBodyLarge(t *testing.T) {
	const n = 8 * BodyReserve
	r := httptest.NewRequest(http.MethodPost, "/", &patternReader{n: n})
	r.ContentLength = n
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got, err := ReadBody(httptest.NewRecorder(), r, 1<<30)
	runtime.ReadMemStats(&after)
	if err != nil || len(got) != n {
		t.Fatalf("read %d bytes (err %v), want %d", len(got), err, n)
	}
	for i, c := range got {
		if c != byte(i*7) {
			t.Fatalf("byte %d = %d, want %d", i, c, byte(i*7))
		}
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 2*n {
		t.Errorf("reading a %d-byte body allocated %d bytes, want at most %d", n, alloc, 2*n)
	}
}
