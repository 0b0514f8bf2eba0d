#!/usr/bin/env bash
# net_smoke.sh — end-to-end distributed-transport smoke test.
#
# Brings up two stencild processes on loopback joined into a 2-rank netcomm
# mesh, submits the same coalesced job twice to rank 0 — once distributed
# (ranks:2, spec broadcast over the mesh, follower executing it) and once
# single-process — and asserts the two grid fingerprints are bitwise
# identical. Also checks that /healthz reports the mesh and /metrics serves
# the stencild_net_* wire families. Requires curl and jq.
set -euo pipefail

HTTP0=127.0.0.1:18431
HTTP1=127.0.0.1:18432
MESH=127.0.0.1:19441,127.0.0.1:19442
BIN="${STENCILD:-/tmp/net-smoke-stencild}"

if [ ! -x "$BIN" ]; then
  go build -o "$BIN" ./cmd/stencild
fi

cleanup() {
  kill "${PID0:-}" "${PID1:-}" 2>/dev/null || true
  wait 2>/dev/null || true
}
trap cleanup EXIT

"$BIN" -listen "$HTTP0" -rank 0 -ranks "$MESH" &
PID0=$!
"$BIN" -listen "$HTTP1" -rank 1 -ranks "$MESH" &
PID1=$!

# Wait for both daemons: healthz answers 200 "ok" only once HTTP is up AND
# every mesh rank is connected.
for addr in "$HTTP0" "$HTTP1"; do
  for i in $(seq 1 100); do
    if [ "$(curl -s "http://$addr/healthz" | head -n 1)" = ok ]; then
      break
    fi
    if [ "$i" = 100 ]; then
      echo "net-smoke: $addr never became healthy" >&2
      exit 1
    fi
    sleep 0.2
  done
done
curl -s "http://$HTTP0/healthz"

SPEC='"n":240,"tile":24,"nodes":4,"steps":20,"coalesce":"step","seed":7,"workers":1'

submit_and_wait() { # $1 = spec json; prints the job's grid_sha256
  local id state
  id=$(curl -sf "http://$HTTP0/v1/jobs" -d "$1" | jq -r .id)
  for i in $(seq 1 150); do
    state=$(curl -sf "http://$HTTP0/v1/jobs/$id" | jq -r .state)
    case "$state" in
      done) break ;;
      failed|cancelled)
        echo "net-smoke: job $id $state: $(curl -s "http://$HTTP0/v1/jobs/$id" | jq -r .error)" >&2
        exit 1 ;;
    esac
    if [ "$i" = 150 ]; then
      echo "net-smoke: job $id stuck in $state" >&2
      exit 1
    fi
    sleep 0.2
  done
  curl -sf "http://$HTTP0/v1/jobs/$id/result" | jq -r .grid_sha256
}

DIST_SHA=$(submit_and_wait "{$SPEC,\"ranks\":2}")
SINGLE_SHA=$(submit_and_wait "{$SPEC}")

echo "net-smoke: distributed grid $DIST_SHA"
echo "net-smoke: single-proc  grid $SINGLE_SHA"
if [ -z "$DIST_SHA" ] || [ "$DIST_SHA" != "$SINGLE_SHA" ]; then
  echo "net-smoke: FINGERPRINT MISMATCH — distributed run is not bitwise identical" >&2
  exit 1
fi

# A skewed decomposition (5 tile rows over a 2x2 node grid, 9/6/6/4 tiles
# per node, 15 of 25 on rank 0) run distributed under the static block
# placement must fingerprint identically to the same job run single-process.
SKEW_SPEC='"variant":"wf","wavefront":4,"n":240,"tile":48,"nodes":4,"steps":8,"seed":7,"workers":1'
SKEW_SHA=$(submit_and_wait "{$SKEW_SPEC,\"ranks\":2}")
SKEW_SINGLE=$(submit_and_wait "{$SKEW_SPEC}")
echo "net-smoke: skewed distributed grid $SKEW_SHA"
echo "net-smoke: skewed single-proc  grid $SKEW_SINGLE"
if [ -z "$SKEW_SHA" ] || [ "$SKEW_SHA" != "$SKEW_SINGLE" ]; then
  echo "net-smoke: SKEWED FINGERPRINT MISMATCH — distributed run is not bitwise identical" >&2
  exit 1
fi

# Ranks run the static placement only: a spec carrying the retired "steal"
# field is an unknown field, refused at admission with 400.
CODE=$(curl -s -o /dev/null -w '%{http_code}' "http://$HTTP0/v1/jobs" -d "{$SKEW_SPEC,\"ranks\":2,\"steal\":\"greedy\"}")
if [ "$CODE" != 400 ]; then
  echo "net-smoke: a spec with a steal field answered $CODE, want 400" >&2
  exit 1
fi

# The follower registered the broadcast in its own job table.
if [ "$(curl -sf "http://$HTTP1/v1/jobs" | jq '.jobs | length')" -lt 1 ]; then
  echo "net-smoke: follower job table is empty" >&2
  exit 1
fi

# Wire metrics are live on both ranks. (Fetch once per rank: grep -q closing
# the pipe mid-transfer would make curl fail under pipefail.)
for addr in "$HTTP0" "$HTTP1"; do
  page=$(curl -sf "http://$addr/metrics")
  for fam in stencild_net_frames_total stencild_net_bytes_total stencild_net_ranks_connected; do
    if ! grep -q "^$fam" <<<"$page"; then
      echo "net-smoke: $addr/metrics is missing $fam" >&2
      exit 1
    fi
  done
done

echo "net-smoke: OK (2-rank mesh, bitwise-identical grids, wire metrics live)"
