#!/usr/bin/env bash
# Smoke test for the raced daemon: build it, start it, stream a generated
# trace in with examples/client, assert a deduplicated race report exists,
# SIGKILL a daemon holding two open sessions under a 1-byte state budget
# (one of them parked to its checkpoint file) and verify a restarted daemon
# resumes both from their checkpoints with identical reports, and finally
# verify a clean SIGTERM drain. Used by CI; runnable locally too.
set -euo pipefail
cd "$(dirname "$0")/.."

ADDR="${RACED_ADDR:-127.0.0.1:7497}"
OUT="$(mktemp -d)"
trap 'kill "$PID" 2>/dev/null || true; wait "$PID" 2>/dev/null || true; rm -rf "$OUT"' EXIT

# start_raced starts the daemon on the shared checkpoint dir; extra flags
# are passed through.
start_raced() {
  "$OUT/raced" -addr "$ADDR" -engines wcp,hb \
    -checkpoint-dir "$OUT/ckpt" -checkpoint-every -1s "$@" &
  PID=$!
  for i in $(seq 1 100); do
    if curl -fsS "http://$ADDR/healthz" >/dev/null 2>&1; then return; fi
    if [ "$i" = 100 ]; then echo "raced never became healthy" >&2; exit 1; fi
    sleep 0.1
  done
}

go build -o "$OUT/raced" ./cmd/raced
start_raced

# Stream a generated trace in; the default seed produces races.
go run ./examples/client -addr "http://$ADDR" -events 20000 | tee "$OUT/client.log"
grep -q "session finished" "$OUT/client.log"
grep -q "race:" "$OUT/client.log"

# The dedup store holds at least one fingerprinted class.
curl -fsS "http://$ADDR/reports" > "$OUT/reports.json"
grep -q '"engine"' "$OUT/reports.json"
# One-shot analysis over the same wire.
go run ./cmd/tracegen -bench raytracer -scale 0.25 -format binary -o "$OUT/raytracer.bin"
curl -fsS --data-binary @"$OUT/raytracer.bin" "http://$ADDR/analyze?engines=wcp" > "$OUT/analyze.json"
grep -q '"racy_events"' "$OUT/analyze.json"
# Metrics moved.
curl -fsS "http://$ADDR/metrics" > "$OUT/metrics.txt"
grep "raced_events_ingested_total" "$OUT/metrics.txt" | grep -qv " 0$"

# --- crash recovery: SIGKILL with a parked session, restart, resume ---

# Restart under a 1-byte state budget, so the daemon parks every session
# but the most recently active one to its checkpoint file.
kill -TERM "$PID"
wait "$PID"
start_raced -state-budget 1

# Stream the same trace twice but stop partway through, leaving two
# sessions open.
for n in 1 2; do
  go run ./examples/client -addr "http://$ADDR" -events 20000 -stop-after 12000 \
    | tee "$OUT/partial$n.log"
done
SIDS=""
for n in 1 2; do
  SID="$(grep -o 'session [0-9a-f]* opened' "$OUT/partial$n.log" | awk '{print $2}')"
  [ -n "$SID" ] || { echo "no session id in partial client log $n" >&2; exit 1; }
  SIDS="$SIDS $SID"
done

# A parked session is still an open session: /healthz counts both.
for i in $(seq 1 100); do
  curl -fsS "http://$ADDR/healthz" > "$OUT/healthz.json"
  OPEN="$(grep -o '"sessions": [0-9]*' "$OUT/healthz.json" | awk '{print $2}')"
  PARKED="$(grep -o '"sessions_parked": [0-9]*' "$OUT/healthz.json" | awk '{print $2}')"
  if [ "$OPEN" = 2 ] && [ "$PARKED" -ge 1 ]; then break; fi
  if [ "$i" = 100 ]; then
    echo "healthz never showed 2 sessions with one parked:" >&2
    cat "$OUT/healthz.json" >&2
    exit 1
  fi
  sleep 0.1
done

# Force a checkpoint, then kill the daemon the hard way: no drain, no
# shutdown hook, exactly what a crash leaves behind.
curl -fsS -X POST "http://$ADDR/checkpoint" > "$OUT/ckpt.json"
grep -q '"sessions"' "$OUT/ckpt.json"
kill -KILL "$PID"
wait "$PID" 2>/dev/null || true

start_raced -state-budget 1

# The dedup store survived the crash.
curl -fsS "http://$ADDR/reports" > "$OUT/reports-recovered.json"
grep -q '"engine"' "$OUT/reports-recovered.json"

# Resume both interrupted sessions from the daemon-acknowledged offset and
# finish them; the trace regenerates deterministically from the same seed.
# Each recovered run's per-engine race counts match the uninterrupted run.
for SID in $SIDS; do
  go run ./examples/client -addr "http://$ADDR" -events 20000 -resume "$SID" \
    | tee "$OUT/resume.log"
  grep -q "resumed at event" "$OUT/resume.log"
  grep -q "session finished" "$OUT/resume.log"
  grep -q "race:" "$OUT/resume.log"
  diff <(grep 'distinct races:' "$OUT/client.log") \
       <(grep 'distinct races:' "$OUT/resume.log")
done

# Clean drain on SIGTERM.
kill -TERM "$PID"
wait "$PID"

# --- chaos: rerun the whole stream through a fault-injecting daemon ---

# Every connection draws drops, stalls, bit flips and latency from a seeded
# schedule; the resilient client retries, resumes from the acknowledged
# offset, and must land the exact same per-engine race counts as the clean
# run above.
# Stalls are near-certain (0.9) so the schedule reliably fires on the
# client's long-lived connection; drops and flips ride along at lower odds.
"$OUT/raced" -addr "$ADDR" -engines wcp,hb \
  -chaos 'drop=0.3,stall=0.9,flip=0.2,latency=1ms,maxoff=16384,seed=7' &
PID=$!
for i in $(seq 1 100); do
  if curl -fsS "http://$ADDR/healthz" >/dev/null 2>&1; then break; fi
  if [ "$i" = 100 ]; then echo "chaos raced never became healthy" >&2; exit 1; fi
  sleep 0.1
done

# Up to three client runs: each must finish with race counts identical to
# the clean run, and by the end the injector must have fired at least once
# (a faultless schedule would mean the chaos path tested nothing).
FIRED=""
for attempt in 1 2 3; do
  go run ./examples/client -addr "http://$ADDR" -events 20000 | tee "$OUT/chaos.log"
  grep -q "session finished" "$OUT/chaos.log"
  diff <(grep 'distinct races:' "$OUT/client.log") \
       <(grep 'distinct races:' "$OUT/chaos.log")
  for i in $(seq 1 20); do
    if curl -fsS "http://$ADDR/metrics" > "$OUT/chaos-metrics.txt" 2>/dev/null; then break; fi
    sleep 0.2
  done
  if grep "raced_faults_injected_total" "$OUT/chaos-metrics.txt" | grep -qv " 0$"; then
    FIRED=1
    break
  fi
done
[ -n "$FIRED" ] || { echo "chaos schedule never injected a fault" >&2; exit 1; }

kill -TERM "$PID"
wait "$PID"
echo "raced smoke test passed"
