#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload:
#
#   bash perfbench/run.sh --workload census-sym --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything the build and the run
# write stays under .bench_build/ in the current directory: the Go build
# cache, the binary, per-run result records and traces.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=-buildvcs=false

(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
