#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ (build cache
# included, so nothing is written outside the checkout) and runs it with
# the given arguments. Run from the repository root:
#
#   bash bench/run.sh --workload bulk4 --seed 1 --seconds 10 --trace 0
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/gocache"
GOCACHE="$build/gocache" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly \
	go build -C bench -o "$build/tack-bench" .
# Let the machine go idle first: what ran just before (the build, the
# previous run) otherwise shows in this run's CPU cost; see settle in main.go.
[ "${1:-}" = compare ] || sleep 3
exec "$build/tack-bench" "$@"
