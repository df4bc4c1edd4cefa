// Client streams a generated trace into a running raced daemon and prints
// the deduplicated race report — a walkthrough of the service API through
// the resilient internal/client library: open a session with a binary trace
// header, stream the event body in sequence-numbered chunks (retried,
// checksummed, deduplicated server-side), finish, then query the dedup
// store. Killing the daemon mid-stream and restarting it, or running it
// with -chaos faults, exercises the client's resume-from-ack path.
//
// Start the daemon first, then run the client:
//
//	go run ./cmd/raced &
//	go run ./examples/client -addr http://localhost:7477 -events 20000
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/client"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/traceio"
)

var (
	addr    = flag.String("addr", "http://localhost:7477", "raced base URL")
	engines = flag.String("engines", "wcp,hb", "engines to run in the session")
	events  = flag.Int("events", 20000, "approximate events to generate")
	threads = flag.Int("threads", 4, "threads in the generated trace")
	locks   = flag.Int("locks", 3, "lock pool size")
	vars    = flag.Int("vars", 5, "variable pool size")
	seed    = flag.Int64("seed", 42, "generator seed")
	chunks  = flag.Int("chunks", 8, "number of chunk requests to split the body into")
	dump    = flag.String("dump", "", "instead of talking to a daemon, write header.bin and chunkN.bin to this directory and print each chunk's X-Raced-Offset (for the README curl walkthrough)")

	stopAfter = flag.Int("stop-after", 0, "stop streaming after this many events without finishing, print the session id, and exit (pair with -resume)")
	resume    = flag.String("resume", "", "resume streaming an open session by id: the trace is regenerated from the same flags and replayed from the daemon-acknowledged offset")

	coordinator = flag.String("coordinator", "", "stream through a fleet coordinator at this base URL instead of -addr: chunks follow the session's placement and survive worker failover (pairs with scripts/smoke_fleet.sh)")
	trickle     = flag.Duration("trickle", 0, "pause this long between chunks, keeping the stream open long enough to kill a worker mid-stream")
)

func main() {
	flag.Parse()
	log.SetFlags(0)
	if err := run(); err != nil {
		log.Fatal("client: ", err)
	}
}

func run() error {
	ctx := context.Background()
	tr := gen.Random(gen.RandomConfig{
		Threads: *threads, Locks: *locks, Vars: *vars,
		Events: *events, Seed: *seed, ForkJoin: true,
	})
	fmt.Printf("generated trace: %d events, %d threads, %d locks, %d vars\n",
		len(tr.Events), tr.NumThreads(), tr.NumLocks(), tr.NumVars())
	if *dump != "" {
		return dumpParts(tr)
	}

	cfg := client.Config{
		BaseURL:     *addr,
		Engines:     strings.Split(*engines, ","),
		ChunkEvents: (len(tr.Events) + *chunks - 1) / *chunks,
		Logf:        log.Printf,
	}
	if *coordinator != "" {
		// Fleet mode: the coordinator places the session on a worker and the
		// client follows that placement. A worker dying mid-stream costs a
		// failover's worth of retries, not the stream — budget for it.
		cfg.BaseURL = *coordinator
		cfg.FollowPlacement = true
		cfg.RetryBudget = 60
		cfg.BaseBackoff = 25 * time.Millisecond
		cfg.MaxBackoff = 2 * time.Second
	}

	// 1. Open a session: the trace header sizes the daemon's per-session
	// detectors up front. With -resume, the session already exists (possibly
	// restored from a daemon checkpoint after a crash); the client
	// synchronizes on how far the daemon got, and the deterministic seed
	// regenerates the identical trace to replay from there.
	var s *client.Session
	var err error
	if *resume != "" {
		if s, err = client.Resume(ctx, cfg, *resume); err != nil {
			return err
		}
		if s.Acked() > uint64(len(tr.Events)) {
			return fmt.Errorf("session %s has %d events, more than the %d this seed generates", s.ID(), s.Acked(), len(tr.Events))
		}
		fmt.Printf("session %s resumed at event %d (trace=%s)\n", s.ID(), s.Acked(), s.Trace())
	} else {
		if s, err = client.Open(ctx, cfg, tr.Symbols); err != nil {
			return err
		}
		fmt.Printf("session %s opened (engines=%s trace=%s)\n", s.ID(), *engines, s.Trace())
	}

	// 2. Stream the event body. The library splits it into chunk requests on
	// event boundaries, sequence-numbers and checksums each one, and
	// resumes from the daemon's acknowledged offset after any fault — a
	// retried chunk is deduplicated server-side, never double-analyzed.
	start := time.Now()
	limit := len(tr.Events)
	if *stopAfter > 0 && *stopAfter < limit {
		limit = *stopAfter
	}
	if *trickle > 0 {
		// Chunk by chunk with pauses: the slow path a long-lived recording
		// session looks like, and the window smoke tests use to kill a
		// worker while the stream is live. Each Stream call resumes from the
		// acknowledged offset, so a mid-pause failover just replays the tail.
		for upto := 0; upto < limit; {
			upto = min(upto+cfg.ChunkEvents, limit)
			if err := s.Stream(ctx, tr.Events[:upto], 0); err != nil {
				return err
			}
			time.Sleep(*trickle)
		}
	} else if err := s.Stream(ctx, tr.Events[:limit], 0); err != nil {
		return err
	}
	fmt.Printf("  %d events acknowledged\n", s.Acked())
	if limit < len(tr.Events) {
		fmt.Printf("stopping at event %d as requested; resume with -resume %s\n", limit, s.ID())
		return nil
	}

	// 3. Finish: the daemon seals the detectors and returns the reports.
	// Finish is idempotent — a retry after a lost reply replays the cached
	// response — and FinishReplay additionally replays the tail if a crash
	// rolled the session back to a checkpoint after the last chunk.
	fin, err := s.FinishReplay(ctx, tr.Events, 0)
	if err != nil {
		return err
	}
	fmt.Printf("session finished: %d events in %v\n", fin.Events, time.Since(start).Round(time.Millisecond))
	for _, r := range fin.Results {
		fmt.Printf("\n[%s] %s (%.2fms analysis)\n", r.Engine, r.Summary, r.DurationMS)
		fmt.Printf("[%s] distinct races: %d\n", r.Engine, r.Distinct)
		if r.Report != "" {
			fmt.Println(r.Report)
		}
	}

	// 4. The dedup store collapses races across every session the daemon
	// has ever seen; query it with fingerprint filters.
	var reports struct {
		Total   int `json:"total"`
		Reports []struct {
			Engine string `json:"engine"`
			LocA   string `json:"loc_a"`
			LocB   string `json:"loc_b"`
			Var    string `json:"var"`
			Locks  string `json:"locks"`
			Count  int64  `json:"count"`
			Traces int64  `json:"traces"`
		} `json:"reports"`
	}
	if err := client.Reports(ctx, cfg, "limit=10", &reports); err != nil {
		return err
	}
	fmt.Printf("\ndedup store: %d distinct race classes service-wide; first %d:\n",
		reports.Total, len(reports.Reports))
	for _, e := range reports.Reports {
		fmt.Printf("  [%s] (%s, %s) var=%s locks=[%s] count=%d traces=%d\n",
			e.Engine, e.LocA, e.LocB, e.Var, e.Locks, e.Count, e.Traces)
	}
	return nil
}

// dumpParts writes the generated trace as the wire pieces of a session —
// header.bin plus -chunks event-body files — so the README's curl
// walkthrough has real files to POST. Each chunk is printed with the
// index of its first event, the X-Raced-Offset it must be sent with.
func dumpParts(tr *trace.Trace) error {
	if err := os.MkdirAll(*dump, 0o755); err != nil {
		return err
	}
	writePart := func(name, note string, write func(io.Writer) error) error {
		f, err := os.Create(filepath.Join(*dump, name))
		if err != nil {
			return err
		}
		if err := write(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s%s\n", filepath.Join(*dump, name), note)
		return nil
	}
	if err := writePart("header.bin", "", func(w io.Writer) error {
		return traceio.WriteHeader(w, tr.Symbols, 0)
	}); err != nil {
		return err
	}
	per := (len(tr.Events) + *chunks - 1) / *chunks
	for i, n := 0, 1; i < len(tr.Events); i, n = i+per, n+1 {
		end := min(i+per, len(tr.Events))
		events := tr.Events[i:end]
		note := fmt.Sprintf(" (%s: %d)", obs.HeaderOffset, i)
		if err := writePart(fmt.Sprintf("chunk%d.bin", n), note, func(w io.Writer) error {
			return traceio.EncodeEvents(w, events)
		}); err != nil {
			return err
		}
	}
	return nil
}
