#!/usr/bin/env sh
# Runs the supervision-overhead benchmark (BenchmarkResilience in
# internal/explore) and distills it into BENCH_resilience.json at the
# repo root: one record per benchmark plus a paired overhead summary per
# workload. The supervised run must stay within 5% of the plain pooled
# census baseline (the acceptance bound); the script exits non-zero
# when it does not.
#
#   scripts/bench_resilience.sh [--force] [benchtime]     # default 3x
set -eu

cd "$(dirname "$0")/.."
. scripts/bench_env.sh
bench_filter_args "$@" && eval "set -- $bench_args"
benchtime="${1:-3x}"
bench_guard BENCH_resilience.json

raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

go test -run '^$' -bench 'BenchmarkResilience' -benchtime "$benchtime" \
	./internal/explore/ | tee "$raw"

awk -v cpus="$cpus" -v numcpu="$num_cpu" '
BEGIN { printf "{\n  \"cpus\": %s,\n  \"num_cpu\": %s,\n", cpus, numcpu; print "  \"benchmarks\": ["; first = 1 }
$1 ~ /^BenchmarkResilience\// {
	name = $1; sub(/-[0-9]+$/, "", name)
	ns = ""; runs = ""
	for (i = 2; i <= NF; i++) {
		if ($(i) == "ns/op")  ns = $(i - 1)
		if ($(i) == "runs/s") runs = $(i - 1)
	}
	if (ns == "") next
	if (!first) print ","
	first = 0
	printf "    {\"name\": \"%s\", \"ns_per_op\": %s, \"runs_per_sec\": %s}", name, ns, runs
	# Pair rows by workload: .../plain then .../supervised.
	wl = name
	sub(/^BenchmarkResilience\//, "", wl)
	if (sub(/\/plain$/, "", wl))      plain[wl] = ns
	else if (sub(/\/supervised$/, "", wl)) sup[wl] = ns
	order[wl] = 1
}
END {
	print ""; print "  ],"
	print "  \"overhead\": ["
	firstw = 1; bad = 0
	for (wl in order) {
		if (!(wl in plain) || !(wl in sup)) continue
		pct = (sup[wl] - plain[wl]) * 100.0 / plain[wl]
		if (pct > 5.0) bad = 1
		if (!firstw) print ","
		firstw = 0
		printf "    {\"workload\": \"%s\", \"plain_ns_per_op\": %s, \"supervised_ns_per_op\": %s, \"overhead_pct\": %.2f}", wl, plain[wl], sup[wl], pct
	}
	print ""; print "  ]"
	print "}"
	exit bad
}
' "$raw" > BENCH_resilience.json || {
	cat BENCH_resilience.json
	echo "bench_resilience: supervised overhead exceeds the 5% bound" >&2
	exit 1
}

echo "wrote BENCH_resilience.json ($(grep -c '"name"' BENCH_resilience.json) entries)"
