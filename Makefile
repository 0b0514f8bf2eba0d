GO ?= go

.PHONY: all build vet test race bench-smoke benchmark serve check

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Tier-1 gate (see ROADMAP.md): full build (examples included), vet, tests.
test:
	$(GO) build ./... ./examples/... && $(GO) vet ./... && $(GO) test ./...

race:
	$(GO) test -race ./...

# Short benchmark pass over the hot-path microbenchmarks: exercises the
# zero-alloc and fast-kernel paths and the graph build at three benchmark
# workload shapes, without paper-scale runtimes.
bench-smoke:
	$(GO) test -run '^$$' -bench 'MsgRoundTrip|Kernel|PackBytes|UnpackBytes|BuildGraph' \
		-benchtime 100x -benchmem \
		./internal/core/ ./internal/stencil/ ./internal/grid/

# The repo's one benchmark (BENCHMARK.json, benchmark/README.md): all five
# workloads end to end and traced, result set in benchmark/out/results.json.
# Gate a result set on its exact counters with scripts/bench_gate.sh.
benchmark:
	bash benchmark/run.sh -all

# Run the stencil-as-a-service daemon locally.
serve:
	$(GO) run ./cmd/stencild -listen :8421 -maxjobs 2 -queue 64

check: vet test race bench-smoke
