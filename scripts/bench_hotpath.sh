#!/usr/bin/env sh
# Runs the simulator hot-path benchmarks (internal/sim BenchmarkSimStep:
# per-step cost with fingerprinting off/on, plus the allocs/op guard)
# and distills them into BENCH_hotpath.json at the repo root. Both kinds
# of process run on the one runner and land side by side: the
# unprefixed rows step Programs (each step hands the result to the
# Program's host goroutine over a channel), the
# "machine,fingerprint=..." rows step Machines (a plain call), so the
# file records what the Machine form saves per step. Each record
# carries the host's CPU count: per-step numbers are meaningful on any
# box, but parallel-speedup expectations are not portable off
# multi-core hosts.
#
#   scripts/bench_hotpath.sh [--force] [benchtime]     # default 100x
set -eu

cd "$(dirname "$0")/.."
. scripts/bench_env.sh
bench_filter_args "$@" && eval "set -- $bench_args"
benchtime="${1:-100x}"
bench_guard BENCH_hotpath.json

raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

go test -run '^$' -bench 'BenchmarkSimStep' -benchtime "$benchtime" \
	./internal/sim/ | tee "$raw"

awk -v cpus="$cpus" -v numcpu="$num_cpu" '
BEGIN { print "["; first = 1 }
$1 ~ /^BenchmarkSimStep\// {
	name = $1; sub(/-[0-9]+$/, "", name)
	ns = ""; step = ""; allocs = ""
	for (i = 2; i <= NF; i++) {
		if ($(i) == "ns/op")     ns = $(i - 1)
		if ($(i) == "ns/step")   step = $(i - 1)
		if ($(i) == "allocs/op") allocs = $(i - 1)
	}
	if (ns == "") next
	if (!first) print ","
	first = 0
	printf "  {\"name\": \"%s\", \"ns_per_op\": %s, \"ns_per_step\": %s, \"allocs_per_op\": %s, \"cpus\": %s, \"num_cpu\": %s}", \
		name, ns, step, allocs, cpus, numcpu
}
END { print ""; print "]" }
' "$raw" > BENCH_hotpath.json

echo "wrote BENCH_hotpath.json ($(grep -c '"name"' BENCH_hotpath.json) entries)"
