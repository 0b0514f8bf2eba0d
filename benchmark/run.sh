#!/usr/bin/env bash
# Builds the benchmark inside the checkout (compiler cache and the go command's
# own config and counter files included, so a run writes nowhere else) and runs
# it from this directory. Arguments go to the program: see README.md.
set -euo pipefail
cd "$(dirname "$0")"
build="$(cd .. && pwd)/.bench_build"
GOCACHE="$build/gocache" XDG_CONFIG_HOME="$build/config" GOFLAGS=-buildvcs=false \
	go build -o "$build/benchmark" .
exec "$build/benchmark" "$@"
