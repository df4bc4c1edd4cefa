#!/usr/bin/env bash
# Smoke test for fleet mode: a coordinator fronting three raced workers.
# First a single uninterrupted daemon produces the baseline report, then the
# same trace is streamed through the coordinator while the worker owning the
# session is SIGKILLed mid-stream — the client must finish with zero errors
# and a byte-identical 'distinct races' report. A second stream survives a
# graceful SIGTERM drain (the worker hands its sessions off before exiting),
# and the coordinator's merged /reports view must hold the fleet's race
# classes. Finally the coordinator itself is SIGKILLed mid-stream and
# restarted: it keeps no state, so it must rebuild the placement from the
# workers' re-registrations. Used by CI; runnable locally too.
set -euo pipefail
cd "$(dirname "$0")/.."

CO_ADDR="${FLEET_CO_ADDR:-127.0.0.1:7470}"
W_PORTS=(7471 7472 7473)
W_NAMES=(w1 w2 w3)
W_PIDS=()
OUT="$(mktemp -d)"
cleanup() {
  for pid in "${W_PIDS[@]:-}" "${CO_PID:-}" "${PID:-}"; do
    kill "$pid" 2>/dev/null || true
  done
  wait 2>/dev/null || true
  rm -rf "$OUT"
}
trap cleanup EXIT

go build -o "$OUT/raced" ./cmd/raced

wait_healthy() { # url [expected-healthy]
  local url="$1" want="${2:-}"
  for i in $(seq 1 100); do
    if body="$(curl -fsS "$url" 2>/dev/null)"; then
      if [ -z "$want" ] || grep -q "\"healthy\": $want" <<<"$body"; then return; fi
    fi
    sleep 0.1
  done
  echo "never healthy: $url (want healthy=$want)" >&2
  exit 1
}

# --- baseline: one uninterrupted single-node run of the same trace ---
"$OUT/raced" -addr "$CO_ADDR" -engines wcp,hb &
PID=$!
wait_healthy "http://$CO_ADDR/healthz"
go run ./examples/client -addr "http://$CO_ADDR" -events 20000 | tee "$OUT/baseline.log"
grep -q "session finished" "$OUT/baseline.log"
kill -TERM "$PID"; wait "$PID"; PID=

# --- bring up the fleet: coordinator + 3 workers ---
"$OUT/raced" -coordinator -addr "$CO_ADDR" -heartbeat-timeout 1s -pull-every 250ms &
CO_PID=$!
wait_healthy "http://$CO_ADDR/fleet" # up, even with zero workers yet
for i in 0 1 2; do
  "$OUT/raced" -addr "127.0.0.1:${W_PORTS[$i]}" -engines wcp,hb \
    -join "http://$CO_ADDR" -worker-name "${W_NAMES[$i]}" &
  W_PIDS+=($!)
done
wait_healthy "http://$CO_ADDR/fleet" 3

owner_pid_of() { # session-id -> echoes the owning worker's pid
  local sid="$1" name
  name="$(curl -fsS "http://$CO_ADDR/fleet" | grep -o "\"$sid\": \"[^\"]*\"" | sed 's/.*: "//; s/"//')"
  for i in 0 1 2; do
    if [ "${W_NAMES[$i]}" = "$name" ]; then echo "${W_PIDS[$i]}"; return; fi
  done
  echo "session $sid owned by unknown worker '$name'" >&2
  return 1
}

session_id_from() { # logfile -> echoes the session id once it appears
  local log="$1"
  for i in $(seq 1 100); do
    if sid="$(grep -o 'session [0-9a-f]* opened' "$log" | awk '{print $2}')" && [ -n "$sid" ]; then
      echo "$sid"; return
    fi
    sleep 0.1
  done
  echo "no session id appeared in $log" >&2
  return 1
}

# --- kill case: SIGKILL the owning worker mid-stream ---
go run ./examples/client -coordinator "http://$CO_ADDR" -events 20000 \
  -trickle 300ms > "$OUT/fleet-kill.log" 2>&1 &
CLIENT=$!
SID="$(session_id_from "$OUT/fleet-kill.log")"
VICTIM="$(owner_pid_of "$SID")"
sleep 0.5 # let chunks be in flight
kill -KILL "$VICTIM"
wait "$CLIENT" # zero client-visible errors: the stream must just take longer
cat "$OUT/fleet-kill.log"
grep -q "session finished" "$OUT/fleet-kill.log"
diff <(grep 'distinct races:' "$OUT/baseline.log") \
     <(grep 'distinct races:' "$OUT/fleet-kill.log")

# --- drain case: SIGTERM the owning worker; it hands its sessions off ---
go run ./examples/client -coordinator "http://$CO_ADDR" -events 20000 \
  -trickle 300ms > "$OUT/fleet-drain.log" 2>&1 &
CLIENT=$!
SID="$(session_id_from "$OUT/fleet-drain.log")"
LEAVER="$(owner_pid_of "$SID")"
sleep 0.5
kill -TERM "$LEAVER"
wait "$LEAVER" # graceful exit after the handoff
wait "$CLIENT"
cat "$OUT/fleet-drain.log"
grep -q "session finished" "$OUT/fleet-drain.log"
diff <(grep 'distinct races:' "$OUT/baseline.log") \
     <(grep 'distinct races:' "$OUT/fleet-drain.log")

# --- merged reports + failover accounting ---
curl -fsS "http://$CO_ADDR/reports" > "$OUT/merged.json"
grep -q '"engine"' "$OUT/merged.json"
grep -q '"workers"' "$OUT/merged.json"
curl -fsS "http://$CO_ADDR/metrics" > "$OUT/metrics.txt"
grep "fleet_worker_failovers_total" "$OUT/metrics.txt" | grep -qv " 0$"
grep "fleet_sessions_lost_total 0" "$OUT/metrics.txt"

# --- merged observability: worker-labeled series and the fleet-wide trace ---
# The coordinator scrapes each worker's registry and injects worker="name"
# into every scraped series; its merged exposition must carry worker-labeled
# histogram buckets alongside the coordinator's own (unlabeled) fleet_*
# families, one TYPE line per family.
grep 'raced_chunk_ingest_seconds_bucket{' "$OUT/metrics.txt" | grep -q 'worker="' ||
  { echo "merged /metrics has no worker-labeled ingest histogram" >&2; exit 1; }
grep 'raced_engine_process_seconds_bucket{' "$OUT/metrics.txt" | grep -q 'engine="wcp"' ||
  { echo "merged /metrics has no per-engine histogram series" >&2; exit 1; }
[ "$(grep -c '^# TYPE raced_chunk_ingest_seconds ' "$OUT/metrics.txt")" = 1 ] ||
  { echo "merged /metrics repeats the raced_chunk_ingest_seconds TYPE line" >&2; exit 1; }

# The kill-case client minted a trace id and printed it at open; the
# coordinator's merged /debug/trace view must hold that request's timeline.
# Only the coordinator's own spans are durable here — a worker's ring dies
# with it, and by this point the kill case and the drain case have each
# taken a worker down — so assert the proxy record, not worker-side spans
# (TestFleetTracePropagation pins those deterministically).
TID="$(grep -o 'trace=[0-9a-f]*' "$OUT/fleet-kill.log" | head -1 | cut -d= -f2)"
[ -n "$TID" ] || { echo "client printed no trace id in fleet-kill.log" >&2; exit 1; }
curl -fsS "http://$CO_ADDR/debug/trace/$TID" > "$OUT/trace.json"
grep -q "\"trace\": \"$TID\"" "$OUT/trace.json" ||
  { echo "/debug/trace/$TID did not echo the trace id" >&2; cat "$OUT/trace.json" >&2; exit 1; }
grep -q '"proxy_create"' "$OUT/trace.json" ||
  { echo "merged trace $TID lacks the coordinator's proxy_create span" >&2; cat "$OUT/trace.json" >&2; exit 1; }

# --- coordinator kill case: SIGKILL the coordinator mid-stream and restart
# --- it. It keeps no durable state: the restarted coordinator must rebuild
# --- the placement from the workers' re-register session reports inside its
# --- recovery grace window. The client only sees retries; the report must
# --- still match the baseline byte for byte.
go run ./examples/client -coordinator "http://$CO_ADDR" -events 20000 \
  -trickle 300ms > "$OUT/co-kill.log" 2>&1 &
CLIENT=$!
session_id_from "$OUT/co-kill.log" >/dev/null
sleep 0.5
kill -KILL "$CO_PID"
"$OUT/raced" -coordinator -addr "$CO_ADDR" -heartbeat-timeout 1s -pull-every 250ms &
CO_PID=$!
wait "$CLIENT"
cat "$OUT/co-kill.log"
grep -q "session finished" "$OUT/co-kill.log"
diff <(grep 'distinct races:' "$OUT/baseline.log") \
     <(grep 'distinct races:' "$OUT/co-kill.log")
curl -fsS "http://$CO_ADDR/metrics" | grep "fleet_sessions_adopted_total" | grep -qv " 0$" ||
  { echo "restarted coordinator adopted no worker-reported sessions" >&2; exit 1; }

echo "fleet smoke test passed"
