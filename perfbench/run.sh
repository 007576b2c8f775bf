#!/usr/bin/env bash
# Builds the benchmark from the checkout that contains this script and
# runs it, passing every argument through:
#
#   bash perfbench/run.sh --workload estimate-hit --seed 1 --seconds 15 --trace 0
#
# Build outputs, the Go build cache and traces stay under .bench_build
# in the checkout, so a run writes nothing outside it.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/traces"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" -trace-dir "$build/traces" "$@"
