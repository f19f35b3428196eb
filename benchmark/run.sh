#!/usr/bin/env bash
# Builds the benchmark from the checkout it is started in and runs it.
# Everything the Go tool writes (build cache, temporary files, the binary)
# goes under .bench_build/ in that checkout, so a run leaves nothing outside
# it. In a directory without the repo's go.mod the build fails and this exits
# non-zero without printing a result.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
go build -buildvcs=false -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
