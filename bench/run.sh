#!/usr/bin/env bash
# Builds the harness from source and runs it with the given arguments:
#
#	bash bench/run.sh --workload search-indexed --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run leave behind (the Go build cache, the
# binary, snapshot files, span dumps) goes to bench/.bench_build, so a run
# writes nothing outside its checkout. The harness runs with bench/ as its
# working directory.
set -euo pipefail
cd "$(dirname "$0")"
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local
go build -o "$out/bench" .
exec "$out/bench" "$@"
