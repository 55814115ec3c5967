#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs one workload.
#
#   bash benchmark/run.sh --workload suite|sweep|serve --seed N --seconds S --trace 0|1
#
# Run from the root of a checkout. Every file the build and the run write
# lands under .bench_build/ in that checkout: the Go build cache, the
# binary, and the traced runs' span logs.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/benchmark"
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-mod=readonly

(cd "$root/benchmark" && go build -o "$out/sisyphus-bench" .) >&2

exec "$out/sisyphus-bench" -root "$root" -out "$out" "$@"
