#!/usr/bin/env bash
# Gates a benchmark result set (`bash benchmark/run.sh -all -o FILE`) against
# the committed baseline on what is exact: no failed operation, no pack
# allocation, no dropped message, and every deterministic counter of the
# traced runs equal to the baseline's — desim.makespan_s included: it is
# virtual time, as deterministic as a count. Timings are printed, never gated.
set -euo pipefail
new="${1:?usage: bench_gate.sh results.json [baseline.json]}"
base="${2:-$(dirname "$0")/../benchmark/results/baseline.json}"
zero='["grid.pack_allocs","runtime.dropped"]'
exact='["core.tasks","core.cross_deps","core.cross_bytes","ptg.bundles","runtime.messages",
  "runtime.bytes_sent","netcomm.frames_solve","netcomm.wire_bytes_solve","desim.messages",
  "desim.makespan_s"]'

jq -r '.runs[] | select(.trace != true) | .metrics as $m
  | "\(.workload): solve_s_p50 \($m.solve_s_p50.value) s, alloc \($m.alloc_mb_per_solve.value) MB/solve, jobs/s \($m.jobs_per_s.value)"' "$new"

bad=$(jq -r --slurpfile b "$base" --argjson zero "$zero" --argjson exact "$exact" '
  ($b[0].runs | map(select(.trace == true) | {(.workload): .metrics}) | add) as $want
  | .runs[] | . as $r
  | (select(.failed != 0) | "\(.workload): \(.failed) of \(.attempted) operations failed"),
    (select(.trace == true)
     | ($zero[] | select($r.metrics[.].value != 0)
        | "\($r.workload): \(.) = \($r.metrics[.].value), want 0"),
       ($exact[] | select($r.metrics[.].value != $want[$r.workload][.].value)
        | "\($r.workload): \(.) = \($r.metrics[.].value), baseline \($want[$r.workload][.].value)"))
' "$new")
if [ -n "$bad" ]; then
	echo "$bad"
	echo "bench gate: FAIL"
	exit 1
fi
echo "bench gate: ok (failed = 0, exact counters equal to $(basename "$base"))"
