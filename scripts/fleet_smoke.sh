#!/usr/bin/env bash
# fleet_smoke.sh — end-to-end fleet-gateway smoke test.
#
# Brings up two stencild backends and one stencilgate on loopback, then
# asserts the gateway's three mechanisms end to end:
#   1. content-addressed cache: the same spec submitted twice executes once
#      — the repeat is a hit, served without a new backend submission, with
#      a bitwise-identical grid fingerprint; "cache":"bypass" re-executes;
#   2. tenant fair-share backpressure: a second gateway sized to one queued
#      job per tenant answers 429 + Retry-After on the overflow submission;
#   3. the stencilgate_* metric families are live.
# Along the way it fetches the miss's and the hit's /grid from the gateway:
# raw float64 bytes (application/octet-stream, n²·8 of them) whose sha256
# is the job's grid_sha256.
# Requires curl and jq.
set -euo pipefail

B1=127.0.0.1:18451
B2=127.0.0.1:18452
GW=127.0.0.1:18450
GW2=127.0.0.1:18453
DBIN="${STENCILD:-/tmp/fleet-smoke-stencild}"
GBIN="${STENCILGATE:-/tmp/fleet-smoke-stencilgate}"

if [ ! -x "$DBIN" ]; then
  go build -o "$DBIN" ./cmd/stencild
fi
if [ ! -x "$GBIN" ]; then
  go build -o "$GBIN" ./cmd/stencilgate
fi

cleanup() {
  kill "${PID1:-}" "${PID2:-}" "${PIDG:-}" "${PIDG2:-}" 2>/dev/null || true
  wait 2>/dev/null || true
}
trap cleanup EXIT

"$DBIN" -listen "$B1" -maxjobs 2 -queue 16 &
PID1=$!
"$DBIN" -listen "$B2" -maxjobs 2 -queue 16 &
PID2=$!
"$GBIN" -listen "$GW" -backends "$B1,$B2" -tenants prod=4,batch=1 &
PIDG=$!

wait_healthy() { # $1 = addr
  for i in $(seq 1 100); do
    if [ "$(curl -s "http://$1/healthz" | head -n 1)" = ok ]; then
      return 0
    fi
    sleep 0.2
  done
  echo "fleet-smoke: $1 never became healthy" >&2
  exit 1
}
wait_healthy "$B1"
wait_healthy "$B2"
wait_healthy "$GW"
curl -s "http://$GW/healthz"

SPEC='"n":128,"tile":32,"steps":20,"step_size":4,"seed":7,"workers":1,"tenant":"prod"'

submit_and_wait() { # $1 = gateway addr, $2 = spec json; prints "id sha"
  local id state
  id=$(curl -sf "http://$1/v1/jobs" -d "$2" | jq -r .id)
  for i in $(seq 1 150); do
    state=$(curl -sf "http://$1/v1/jobs/$id" | jq -r .state)
    case "$state" in
      done) break ;;
      failed|cancelled)
        echo "fleet-smoke: job $id $state: $(curl -s "http://$1/v1/jobs/$id" | jq -r .error)" >&2
        exit 1 ;;
    esac
    if [ "$i" = 150 ]; then
      echo "fleet-smoke: job $id stuck in $state" >&2
      exit 1
    fi
    sleep 0.2
  done
  echo "$id $(curl -sf "http://$1/v1/jobs/$id/result" | jq -r .grid_sha256)"
}

backend_submissions() {
  local total=0 v
  for addr in "$B1" "$B2"; do
    v=$(curl -sf "http://$addr/metrics" | awk '/^stencild_jobs_submitted_total/ {print $2}')
    total=$((total + ${v:-0}))
  done
  echo "$total"
}

# --- 1. cache: execute once, hit on repeat, bypass re-executes ---------------
read -r ID1 SHA1 <<<"$(submit_and_wait "$GW" "{$SPEC}")"
BEFORE=$(backend_submissions)
read -r ID2 SHA2 <<<"$(submit_and_wait "$GW" "{$SPEC}")"
AFTER=$(backend_submissions)

echo "fleet-smoke: first run  $ID1 grid $SHA1"
echo "fleet-smoke: repeat     $ID2 grid $SHA2"
if [ -z "$SHA1" ] || [ "$SHA1" != "$SHA2" ]; then
  echo "fleet-smoke: FINGERPRINT MISMATCH — cache hit is not bitwise identical" >&2
  exit 1
fi
if [ "$AFTER" != "$BEFORE" ]; then
  echo "fleet-smoke: cache hit touched a backend ($BEFORE -> $AFTER submissions)" >&2
  exit 1
fi
if [ "$(curl -sf "http://$GW/v1/jobs/$ID2" | jq -r .cache)" != hit ]; then
  echo "fleet-smoke: repeat job not marked as a cache hit" >&2
  exit 1
fi

check_grid() { # $1 = gateway job id; the raw grid must hash to $SHA1
  local body=/tmp/fleet-smoke-grid hdr=/tmp/fleet-smoke-gridh size sum
  curl -sf -D "$hdr" -o "$body" "http://$GW/v1/jobs/$1/grid"
  if ! grep -qi '^content-type: application/octet-stream' "$hdr"; then
    echo "fleet-smoke: $1/grid is not application/octet-stream" >&2
    cat "$hdr" >&2
    exit 1
  fi
  size=$(wc -c <"$body")
  if [ "$size" != $((128 * 128 * 8)) ]; then
    echo "fleet-smoke: $1/grid is $size bytes, want $((128 * 128 * 8))" >&2
    exit 1
  fi
  sum=$(sha256sum "$body" | cut -d' ' -f1)
  if [ "$sum" != "$SHA1" ]; then
    echo "fleet-smoke: $1/grid hashes to $sum, want $SHA1" >&2
    exit 1
  fi
}
check_grid "$ID1"
check_grid "$ID2"
echo "fleet-smoke: raw grid   miss and hit /grid hash to the job's grid_sha256"

read -r ID3 SHA3 <<<"$(submit_and_wait "$GW" "{$SPEC,\"cache\":\"bypass\"}")"
if [ "$(backend_submissions)" -le "$AFTER" ]; then
  echo "fleet-smoke: cache=bypass did not re-execute on a backend" >&2
  exit 1
fi
if [ "$SHA3" != "$SHA1" ]; then
  echo "fleet-smoke: bypass re-execution changed the grid fingerprint" >&2
  exit 1
fi
echo "fleet-smoke: bypass     $ID3 re-executed, grid identical"

# --- 2. tenant backpressure: 429 + Retry-After past the tenant queue --------
"$GBIN" -listen "$GW2" -backends "$B1,$B2" -inflight 1 -tenant-queue 1 &
PIDG2=$!
wait_healthy "$GW2"

SLOW='"n":256,"tile":32,"steps":2000,"step_size":8,"workers":1,"tenant":"batch"'
curl -sf "http://$GW2/v1/jobs" -d "{$SLOW,\"seed\":1}" >/dev/null
# Give the first job a moment to occupy the single dispatch slot, then fill
# the queue of one and overflow it.
sleep 0.3
curl -sf "http://$GW2/v1/jobs" -d "{$SLOW,\"seed\":2}" >/dev/null
CODE=$(curl -s -o /tmp/fleet-smoke-429 -w '%{http_code}' -D /tmp/fleet-smoke-429h \
  "http://$GW2/v1/jobs" -d "{$SLOW,\"seed\":3}")
if [ "$CODE" != 429 ]; then
  echo "fleet-smoke: overflow submission answered $CODE, want 429" >&2
  cat /tmp/fleet-smoke-429 >&2
  exit 1
fi
if ! grep -qi '^retry-after:' /tmp/fleet-smoke-429h; then
  echo "fleet-smoke: 429 is missing Retry-After" >&2
  exit 1
fi
echo "fleet-smoke: tenant backpressure answered 429 + Retry-After"

# Cancel the slow blockers so the drain at exit is quick.
for id in $(curl -sf "http://$GW2/v1/jobs" | jq -r '.jobs[].id'); do
  curl -sf -X POST "http://$GW2/v1/jobs/$id/cancel" >/dev/null || true
done

# --- 3. gateway metrics live -------------------------------------------------
page=$(curl -sf "http://$GW/metrics")
for fam in stencilgate_cache_hits_total stencilgate_jobs_admitted_total stencilgate_backend_healthy; do
  if ! grep -q "^$fam" <<<"$page"; then
    echo "fleet-smoke: $GW/metrics is missing $fam" >&2
    exit 1
  fi
done
HITS=$(awk '/^stencilgate_cache_hits_total/ {print $2}' <<<"$page")
if [ "${HITS:-0}" -lt 1 ]; then
  echo "fleet-smoke: stencilgate_cache_hits_total = ${HITS:-0}, want >= 1" >&2
  exit 1
fi

echo "fleet-smoke: OK (cache hit without backend, bitwise-identical grids, raw /grid bytes, tenant 429, metrics live)"
