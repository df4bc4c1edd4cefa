package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"net"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/event"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/traceio"
)

// chunkCRC computes the checksum a chunk carries: over "<offset>:<body>".
// Mirrors internal/client.
func chunkCRC(offset uint64, body []byte) string {
	return strconv.FormatUint(uint64(crc32.ChecksumIEEE(fmt.Appendf(nil, "%d:%s", offset, body))), 10)
}

func encodeEvents(t testing.TB, events []event.Event) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := traceio.EncodeEvents(&buf, events); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// sendChunkAt posts events with the given absolute offset plus a matching
// checksum — the full resilient-protocol request shape.
func (tc *testClient) sendChunkAt(id string, offset uint64, body []byte) (*http.Response, []byte) {
	tc.t.Helper()
	return tc.doWith("POST", "/sessions/"+id+"/chunks", map[string]string{
		obs.HeaderOffset: strconv.FormatUint(offset, 10),
		obs.HeaderCRC:    chunkCRC(offset, body),
	}, bytes.NewReader(body))
}

type chunkResp struct {
	ID       string `json:"id"`
	Events   uint64 `json:"events"`
	Chunks   int    `json:"chunks"`
	Replayed uint64 `json:"replayed"`
}

func decodeChunkResp(t *testing.T, raw []byte) chunkResp {
	t.Helper()
	var cr chunkResp
	if err := json.Unmarshal(raw, &cr); err != nil {
		t.Fatalf("chunk response %q: %v", raw, err)
	}
	return cr
}

// TestChunkReplayIsNoOp: a double-submitted chunk (exact resend) and a
// half-overlapping resend are both deduplicated server-side — the already
// acknowledged prefix is skipped, only genuinely new events reach the
// detectors, and the final report is byte-identical to a clean run. A
// second input replays a prefix longer than a decode block, so the drop
// crosses a block boundary and then splits a block partway through.
func TestChunkReplayIsNoOp(t *testing.T) {
	s, tc := newTestServer(t, Config{Workers: 2, QueueCap: 64})
	tr := gen.Random(gen.RandomConfig{Seed: 11, Events: 2000, Threads: 3, Locks: 2, Vars: 4})
	id := tc.createSession(tr, "wcp")

	first := encodeEvents(t, tr.Events[:1000])
	resp, raw := tc.sendChunkAt(id, 0, first)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first chunk: %d %s", resp.StatusCode, raw)
	}
	if cr := decodeChunkResp(t, raw); cr.Events != 1000 || cr.Replayed != 0 {
		t.Fatalf("first chunk acked events=%d replayed=%d, want 1000/0", cr.Events, cr.Replayed)
	}

	// Exact resend: every event is behind the ack, nothing is re-analyzed.
	resp, raw = tc.sendChunkAt(id, 0, first)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("resent chunk: %d %s", resp.StatusCode, raw)
	}
	if cr := decodeChunkResp(t, raw); cr.Events != 1000 || cr.Replayed != 1000 {
		t.Fatalf("resend acked events=%d replayed=%d, want 1000/1000", cr.Events, cr.Replayed)
	}

	// Half-overlap: [500, 1500) against an ack of 1000 — 500 replayed, 500 new.
	resp, raw = tc.sendChunkAt(id, 500, encodeEvents(t, tr.Events[500:1500]))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("overlap chunk: %d %s", resp.StatusCode, raw)
	}
	if cr := decodeChunkResp(t, raw); cr.Events != 1500 || cr.Replayed != 500 {
		t.Fatalf("overlap acked events=%d replayed=%d, want 1500/500", cr.Events, cr.Replayed)
	}
	if got := s.chunksReplayed.Value(); got != 2 {
		t.Errorf("chunksReplayed = %d, want 2", got)
	}
	if got := s.eventsReplayed.Value(); got != 1500 {
		t.Errorf("eventsReplayed = %d, want 1500", got)
	}

	resp, raw = tc.sendChunkAt(id, 1500, encodeEvents(t, tr.Events[1500:]))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tail chunk: %d %s", resp.StatusCode, raw)
	}
	got := tc.finish(id)
	want := engine.MustNew("wcp", engine.Config{}).Analyze(tr)
	if got.Results[0].Report != want.Report.Format(tr.Symbols) {
		t.Errorf("report after replayed chunks differs from batch analysis:\n%s\n--- want ---\n%s",
			got.Results[0].Report, want.Report.Format(tr.Symbols))
	}

	// Ack 12,000 events, then resend [0, 18,000): the first decode block
	// (traceio.DefaultBlockSize = 8,192 events) is dropped whole and the
	// second is split at the ack.
	long := gen.Random(gen.RandomConfig{Seed: 21, Events: 20000, Threads: 4, Locks: 3, Vars: 5})
	id = tc.createSession(long, "wcp,hb")
	tc.sendChunkBytes(id, 0, encodeEvents(t, long.Events[:12000]))
	before := s.eventsReplayed.Value()
	resp, raw = tc.sendChunkAt(id, 0, encodeEvents(t, long.Events[:18000]))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("long resend: %d %s", resp.StatusCode, raw)
	}
	if cr := decodeChunkResp(t, raw); cr.Events != 18000 || cr.Replayed != 12000 {
		t.Fatalf("long resend acked events=%d replayed=%d, want 18000/12000", cr.Events, cr.Replayed)
	}
	if got := s.eventsReplayed.Value() - before; got != 12000 {
		t.Errorf("eventsReplayed grew by %d, want 12000", got)
	}
	tc.sendChunkBytes(id, 18000, encodeEvents(t, long.Events[18000:]))
	fin := tc.finish(id)
	for i, name := range []string{"wcp", "hb"} {
		want := engine.MustNew(name, engine.Config{}).Analyze(long).Report.Format(long.Symbols)
		if fin.Results[i].Report != want {
			t.Errorf("%s report after a replay across blocks differs from batch analysis:\n%s\n--- want ---\n%s",
				name, fin.Results[i].Report, want)
		}
	}
}

// TestChunkGapRejected: a chunk whose offset is ahead of the acknowledged
// count is refused with 409 + gap:true + the authoritative ack, and the
// session remains usable once the client rewinds.
func TestChunkGapRejected(t *testing.T) {
	s, tc := newTestServer(t, Config{})
	tr := gen.Random(gen.RandomConfig{Seed: 12, Events: 500, Threads: 3, Locks: 2, Vars: 4})
	id := tc.createSession(tr, "wcp")

	resp, raw := tc.sendChunkAt(id, 100, encodeEvents(t, tr.Events[100:200]))
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("gap chunk: %d %s, want 409", resp.StatusCode, raw)
	}
	var gap struct {
		Error  string `json:"error"`
		Events uint64 `json:"events"`
		Gap    bool   `json:"gap"`
	}
	if err := json.Unmarshal(raw, &gap); err != nil {
		t.Fatal(err)
	}
	if !gap.Gap || gap.Events != 0 {
		t.Fatalf("gap response %s: want gap=true events=0", raw)
	}
	if got := s.gapRejects.Value(); got != 1 {
		t.Errorf("gapRejects = %d, want 1", got)
	}

	// Rewind to the authoritative ack and the session carries on.
	resp, raw = tc.sendChunkAt(id, gap.Events, encodeEvents(t, tr.Events))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("chunk after rewind: %d %s", resp.StatusCode, raw)
	}
	if got := tc.finish(id); got.Events != uint64(len(tr.Events)) {
		t.Errorf("session saw %d events, want %d", got.Events, len(tr.Events))
	}
}

// TestChunkRequiresOffset: a chunk whose offset header is missing or
// malformed is a 400 naming the header, refused before its body is
// decoded. The session's ack, checker and detectors stay as they were and
// it is not failed: the next chunk with an offset lands, and the report is
// byte-identical to a clean run.
func TestChunkRequiresOffset(t *testing.T) {
	_, tc := newTestServer(t, Config{})
	tr := gen.Random(gen.RandomConfig{Seed: 16, Events: 600, Threads: 3, Locks: 2, Vars: 4})
	id := tc.createSession(tr, "wcp,hb")
	tc.sendChunkBytes(id, 0, encodeEvents(t, tr.Events[:300]))
	rest := encodeEvents(t, tr.Events[300:])
	for _, offset := range []string{"", "abc", "-300", "300.0"} {
		hdr := map[string]string{}
		if offset != "" {
			hdr[obs.HeaderOffset] = offset
		}
		resp, raw := tc.doWith("POST", "/sessions/"+id+"/chunks", hdr, bytes.NewReader(rest))
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(raw), obs.HeaderOffset) {
			t.Fatalf("offset %q: %d %s, want 400 naming %s", offset, resp.StatusCode, raw, obs.HeaderOffset)
		}
	}
	resp, raw := tc.do("GET", "/sessions/"+id, nil)
	var st sessionStatus
	if err := json.Unmarshal(raw, &st); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("status: %d %s", resp.StatusCode, raw)
	}
	if st.Events != 300 || st.Chunks != 1 || st.Failed != "" {
		t.Fatalf("after refused chunks: %d events, %d chunks, failed %q; want 300, 1, not failed", st.Events, st.Chunks, st.Failed)
	}
	tc.sendChunkBytes(id, 300, rest)
	fin := tc.finish(id)
	for i, name := range []string{"wcp", "hb"} {
		if want := engine.MustNew(name, engine.Config{}).Analyze(tr).Report.Format(tr.Symbols); fin.Results[i].Report != want {
			t.Errorf("%s report differs from batch analysis:\n%s\n--- want ---\n%s", name, fin.Results[i].Report, want)
		}
	}
}

// TestChunkCRCMismatch: a corrupted body, and a checksum that disagrees
// with the offset header it rode in with, are both 422s that leave the
// session untouched; the clean resend then lands.
func TestChunkCRCMismatch(t *testing.T) {
	s, tc := newTestServer(t, Config{})
	tr := gen.Random(gen.RandomConfig{Seed: 13, Events: 500, Threads: 3, Locks: 2, Vars: 4})
	id := tc.createSession(tr, "wcp")
	body := encodeEvents(t, tr.Events)

	// Flipped body bit, checksum from the uncorrupted body.
	bad := append([]byte(nil), body...)
	bad[len(bad)/2] ^= 0x10
	req, _ := http.NewRequest("POST", tc.base+"/sessions/"+id+"/chunks", bytes.NewReader(bad))
	req.Header.Set(obs.HeaderOffset, "0")
	req.Header.Set(obs.HeaderCRC, chunkCRC(0, body))
	resp, err := tc.c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("corrupt body: %d, want 422", resp.StatusCode)
	}

	// Clean body, but the offset header doesn't match the one the checksum
	// was computed over — a flipped offset digit must not misalign the
	// replay-skip, so the binding check rejects it.
	req, _ = http.NewRequest("POST", tc.base+"/sessions/"+id+"/chunks", bytes.NewReader(body))
	req.Header.Set(obs.HeaderOffset, "0")
	req.Header.Set(obs.HeaderCRC, chunkCRC(10, body))
	resp, err = tc.c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("offset/CRC disagreement: %d, want 422", resp.StatusCode)
	}
	if got := s.integrityRejects.Value(); got != 2 {
		t.Errorf("integrityRejects = %d, want 2", got)
	}
	if got := tc.sessionEvents(id); got != 0 {
		t.Fatalf("rejected chunks advanced the session to %d events, want 0", got)
	}

	resp2, raw := tc.sendChunkAt(id, 0, body)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("clean resend: %d %s", resp2.StatusCode, raw)
	}
	if got := tc.finish(id); got.Events != uint64(len(tr.Events)) {
		t.Errorf("session saw %d events, want %d", got.Events, len(tr.Events))
	}
}

// TestCreateSessionCRCMismatch: the optional header-body checksum on
// session create catches corruption that would otherwise decode cleanly
// into skewed symbol names.
func TestCreateSessionCRCMismatch(t *testing.T) {
	_, tc := newTestServer(t, Config{})
	tr := gen.Random(gen.RandomConfig{Seed: 14, Events: 100, Threads: 3, Locks: 2, Vars: 4})
	var hdr bytes.Buffer
	if err := traceio.WriteHeader(&hdr, tr.Symbols, 0); err != nil {
		t.Fatal(err)
	}
	good := hdr.Bytes()
	bad := append([]byte(nil), good...)
	bad[len(bad)-1] ^= 0x01

	req, _ := http.NewRequest("POST", tc.base+"/sessions?engines=wcp", bytes.NewReader(bad))
	req.Header.Set(obs.HeaderCRC, strconv.FormatUint(uint64(crc32.ChecksumIEEE(good)), 10))
	resp, err := tc.c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("corrupt header: %d, want 422", resp.StatusCode)
	}

	req, _ = http.NewRequest("POST", tc.base+"/sessions?engines=wcp", bytes.NewReader(good))
	req.Header.Set(obs.HeaderCRC, strconv.FormatUint(uint64(crc32.ChecksumIEEE(good)), 10))
	resp, err = tc.c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("clean header with CRC: %d, want 201", resp.StatusCode)
	}
}

// TestDroppedConnMidChunk: a connection that dies halfway through a chunk
// body must cost nothing — the session stays at its last acknowledged
// offset, and resuming from there yields a report identical to an
// uninterrupted run.
func TestDroppedConnMidChunk(t *testing.T) {
	_, tc := newTestServer(t, Config{Workers: 2, QueueCap: 64})
	tr := gen.Random(gen.RandomConfig{Seed: 15, Events: 4000, Threads: 4, Locks: 3, Vars: 5})
	id := tc.createSession(tr, "wcp,hb")

	cut := len(tr.Events) / 2
	tc.streamRange(id, tr, 0, cut)

	// Hand-roll a chunk request that advertises more body than it sends,
	// then slam the connection — what a killed client or a dropped link
	// leaves behind.
	partial := encodeEvents(t, tr.Events[cut:])
	host := strings.TrimPrefix(tc.base, "http://")
	conn, err := net.Dial("tcp", host)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(conn, "POST /sessions/%s/chunks HTTP/1.1\r\nHost: %s\r\n%s: %d\r\nContent-Length: %d\r\n\r\n",
		id, host, obs.HeaderOffset, cut, len(partial))
	if _, err := conn.Write(partial[:len(partial)/2]); err != nil {
		t.Fatal(err)
	}
	conn.Close()

	// The half-sent chunk must not have advanced (or poisoned) the session.
	deadline := time.Now().Add(5 * time.Second)
	for tc.sessionEvents(id) != uint64(cut) {
		if time.Now().After(deadline) {
			t.Fatalf("session at %d events after dropped conn, want %d", tc.sessionEvents(id), cut)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Resume from the acknowledged offset; the report matches batch analysis.
	resp, raw := tc.sendChunkAt(id, uint64(cut), partial)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("resumed chunk: %d %s", resp.StatusCode, raw)
	}
	got := tc.finish(id)
	if got.Events != uint64(len(tr.Events)) {
		t.Fatalf("session saw %d events, want %d", got.Events, len(tr.Events))
	}
	for i, name := range []string{"wcp", "hb"} {
		want := engine.MustNew(name, engine.Config{}).Analyze(tr)
		if got.Results[i].Report != want.Report.Format(tr.Symbols) {
			t.Errorf("%s report after dropped conn differs from batch analysis", name)
		}
	}
}

// TestFinishIdempotent: a retried finish (the reply to the first was lost)
// replays the cached response byte-for-byte instead of 404ing.
func TestFinishIdempotent(t *testing.T) {
	_, tc := newTestServer(t, Config{})
	tr := gen.Random(gen.RandomConfig{Seed: 16, Events: 1000, Threads: 3, Locks: 2, Vars: 4})
	id := tc.createSession(tr, "wcp")
	tc.stream(id, tr, 3)

	resp1, raw1 := tc.do("POST", "/sessions/"+id+"/finish", nil)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("finish: %d %s", resp1.StatusCode, raw1)
	}
	resp2, raw2 := tc.do("POST", "/sessions/"+id+"/finish", nil)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("retried finish: %d %s", resp2.StatusCode, raw2)
	}
	if !bytes.Equal(raw1, raw2) {
		t.Errorf("retried finish differs from original:\n%s\n--- first ---\n%s", raw2, raw1)
	}
}

// TestRetryAfterDerivedFromQueueDepth: the 429 Retry-After hint scales
// with the actual backlog — floor + one second per full round of queued
// work per worker — instead of a constant.
func TestRetryAfterDerivedFromQueueDepth(t *testing.T) {
	s, tc := newTestServer(t, Config{Workers: 1, QueueCap: 2})
	tr := gen.Random(gen.RandomConfig{Seed: 17, Events: 200, Threads: 3, Locks: 2, Vars: 4})
	id := tc.createSession(tr, "wcp")

	gate := make(chan struct{})
	var pinned sync.WaitGroup
	pinned.Add(1)
	if err := s.sched.Submit("pin", func() { defer pinned.Done(); <-gate }); err != nil {
		t.Fatal(err)
	}
	for i := 0; s.sched.Running() != 1; i++ {
		if i > 1000 {
			t.Fatal("pin task never started")
		}
		time.Sleep(time.Millisecond)
	}
	fills := make(chan struct{})
	for i := 0; i < 2; i++ {
		if err := s.sched.Submit(fmt.Sprintf("fill-%d", i), func() { <-fills }); err != nil {
			t.Fatal(err)
		}
	}

	body := encodeEvents(t, tr.Events)
	resp, raw := tc.sendChunkAt(id, 0, body)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("chunk under saturation: %d %s, want 429", resp.StatusCode, raw)
	}
	// Floor 1 + queue depth 2 / 1 worker = 3 seconds.
	if got := resp.Header.Get("Retry-After"); got != "3" {
		t.Errorf("Retry-After = %q, want \"3\" (floor 1 + depth 2 / 1 worker)", got)
	}

	close(fills)
	close(gate)
	pinned.Wait()
	tc.sendChunkBytes(id, 0, body)
	tc.finish(id)
}

// TestPressureParksAndUnparksTransparently: with an impossible state
// budget the pressure loop parks the coldest session in place. A status
// request reads the parked session without waking it, the next chunk wakes
// it where it left off, and the final report is identical to a run that
// was never parked.
func TestPressureParksAndUnparksTransparently(t *testing.T) {
	s, tc := newTestServer(t, Config{
		Workers: 2, QueueCap: 64,
		IdleTimeout:      -1,
		StateBudgetBytes: 1, // everything is over budget
	})
	trA := gen.Random(gen.RandomConfig{Seed: 18, Events: 3000, Threads: 4, Locks: 3, Vars: 5})
	trB := gen.Random(gen.RandomConfig{Seed: 19, Events: 3000, Threads: 4, Locks: 3, Vars: 5})

	cutA := len(trA.Events) / 2
	idA := tc.createSession(trA, "wcp")
	tc.streamRange(idA, trA, 0, cutA)
	idB := tc.createSession(trB, "wcp")
	tc.streamRange(idB, trB, 0, len(trB.Events)/2)

	// The pressure loop can never get under a 1-byte budget, so it parks
	// every session except the most recently active one (B).
	waitFor(t, "a parked session", func() bool { return s.sessionsParked.Value() > 0 })
	if parked := tc.parkedIDs(); !slices.Equal(parked, []string{idA}) {
		t.Fatalf("parked sessions %v, want only the coldest, %s", parked, idA)
	}

	// A status request reads the parked session where it left off, and
	// leaves it parked.
	if got := tc.sessionEvents(idA); got != uint64(cutA) {
		t.Fatalf("parked session at %d events, want %d", got, cutA)
	}
	if n := s.sessionsUnparked.Value(); n != 0 {
		t.Errorf("status on a parked session woke it (%d wakes)", n)
	}
	if parked := tc.parkedIDs(); !slices.Equal(parked, []string{idA}) {
		t.Errorf("after a status request, parked sessions are %v, want %s", parked, idA)
	}

	for id, tr := range map[string]*trace.Trace{idA: trA, idB: trB} {
		resp, raw := tc.sendChunkAt(id, uint64(len(tr.Events))/2, encodeEvents(t, tr.Events[len(tr.Events)/2:]))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("chunk after park/unpark: %d %s", resp.StatusCode, raw)
		}
		got := tc.finish(id)
		want := engine.MustNew("wcp", engine.Config{}).Analyze(tr)
		if got.Results[0].Report != want.Report.Format(tr.Symbols) {
			t.Errorf("report after park/unpark differs from batch analysis:\n%s\n--- want ---\n%s",
				got.Results[0].Report, want.Report.Format(tr.Symbols))
		}
	}
	if s.sessionsUnparked.Value() == 0 {
		t.Error("a chunk past the ack did not wake the parked session")
	}
}
