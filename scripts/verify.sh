#!/usr/bin/env sh
# Tier-1 verification: build, vet, full test suite, plus race-detector
# runs of the concurrency-bearing packages (the parallel exploration
# engine and the simulator it drives). Run from the repo root.
set -eu

cd "$(dirname "$0")/.."

echo "== go build ./..."
go build ./...

echo "== go vet ./..."
go vet ./...

echo "== go test ./..."
go test ./...

echo "== go test -race ./internal/explore/... ./internal/sim/... ./internal/faults/... ./internal/election/... ./internal/consensus/... ./internal/runctx/..."
go test -race ./internal/explore/... ./internal/sim/... ./internal/faults/... ./internal/election/... ./internal/consensus/... ./internal/runctx/...

echo "== census daemon under the race detector (admission, dedup, recovery, kill -9 chaos)"
go test -race -count=1 ./internal/censusd/

echo "== distributed-census client/worker under the race detector"
go test -race -count=1 ./internal/distcensus/

echo "== supervisor tests under the race detector (chaos, watchdog, cancellation, checkpoint, pooled censuses)"
go test -race -count=1 -run 'Supervis|Chaos|Watchdog|Cancel|Checkpoint|Backoff|WorkerPanic|Pooled|Saturates' \
	./internal/explore/

echo "== reduction paths under the race detector (symmetry folding, sleep-set credit, forced donation)"
go test -race -count=1 -run 'TestReducedCensusMatchesUnreduced|TestSymmetryRefuses|TestCanonicalHashPermutationInvariant' \
	./internal/explore/ ./internal/sim/

echo "== reduction smoke: reduced census must match unreduced bit-for-bit (fast tier)"
go test -count=1 -run 'TestReducedCensusMatchesUnreduced' ./internal/explore/

echo "== machine-engine census smoke: direct dispatch vs -goroutines must agree byte for byte"
mjson="$(mktemp)"
gjson="$(mktemp)"
go run ./cmd/explore -protocol cas -k 4 -n 2 -crashes 1 -prune -symmetry \
	-workers 1 -bivalence=false -json > "$mjson"
go run ./cmd/explore -protocol cas -k 4 -n 2 -crashes 1 -prune -symmetry \
	-workers 1 -bivalence=false -json -goroutines > "$gjson"
if ! cmp -s "$mjson" "$gjson"; then
	echo "verify: FAIL — machine-engine census differs from the goroutine engine:" >&2
	diff "$mjson" "$gjson" >&2 || true
	exit 1
fi
go run ./cmd/explore -protocol swap -n 3 -crashes 1 -symmetry \
	-workers 1 -bivalence=false -json > "$mjson"
go run ./cmd/explore -protocol swap -n 3 -crashes 1 -symmetry \
	-workers 1 -bivalence=false -json -goroutines > "$gjson"
if ! cmp -s "$mjson" "$gjson"; then
	echo "verify: FAIL — swap-witness machine census differs from the goroutine engine:" >&2
	diff "$mjson" "$gjson" >&2 || true
	exit 1
fi
rm -f "$mjson" "$gjson"

echo "== pooled census smoke: an unpruned census on two workers must match one worker byte for byte, violation schedules included"
w1json="$(mktemp)"
w2json="$(mktemp)"
go run ./cmd/explore -protocol rw3 -bivalence=false -json -workers 1 > "$w1json"
go run ./cmd/explore -protocol rw3 -bivalence=false -json -workers 2 > "$w2json"
if ! cmp -s "$w1json" "$w2json"; then
	echo "verify: FAIL — the two-worker census differs from the one-worker census:" >&2
	diff "$w1json" "$w2json" >&2 || true
	exit 1
fi
rm -f "$w1json" "$w2json"

echo "== fingerprint audit census: incremental plain+canonical hashes cross-checked against from-scratch recomputes on every step"
go run ./cmd/explore -protocol cas -k 4 -n 3 -crashes 1 -symmetry -verifyfp \
	-workers 1 -maxruns 200000 -bivalence=false >/dev/null

echo "== benchmark smoke (-benchtime 1x: every benchmark still runs)"
go test -run '^$' -bench 'BenchmarkSimStep' -benchtime 1x ./internal/sim/ >/dev/null
go test -run '^$' -bench 'BenchmarkExplore' -benchtime 1x ./internal/explore/ >/dev/null
go test -run '^$' -bench 'BenchmarkWrapOverhead|BenchmarkFaultCensus' -benchtime 1x ./internal/faults/ >/dev/null

echo "== fault-injection smoke census (degrading compare&swap, 1 crash + 1 object fault)"
go run ./cmd/explore -protocol casdeg -k 3 -n 2 -crashes 1 -objfaults 1 \
	-prune -workers -1 -maxruns 200000 -bivalence=false

echo "== chaos smoke: supervised census survives injected kills and stalls, then resumes clean"
ck="$(mktemp -u)"
go run ./cmd/explore -protocol casdeg -k 3 -n 2 -crashes 1 -objfaults 1 \
	-prune -workers 4 -maxruns 200000 -bivalence=false \
	-checkpoint "$ck" -retries 5 -stall-timeout 2s \
	-chaos-kills 2 -chaos-stalls 1 -chaos-stall-for 20ms -chaos-seed 7
go run ./cmd/explore -protocol casdeg -k 3 -n 2 -crashes 1 -objfaults 1 \
	-prune -workers 4 -maxruns 200000 -bivalence=false \
	-checkpoint "$ck" -resume
rm -f "$ck"

echo "== daemon chaos smoke: kill -9 the census daemon mid-run, restart, assert bit-identical results"
scripts/daemon_chaos.sh

echo "== distributed chaos smoke: kill -9 a worker mid-lease and the coordinator mid-run, assert bit-identical results and stale rejection"
scripts/dist_chaos.sh

echo "== timeout smoke: a cancelled census must exit non-zero (and zero with -allow-partial)"
if go run ./cmd/explore -protocol cas -k 5 -n 4 -crashes 1 -maxruns 100000000 \
	-workers 4 -timeout 2s -bivalence=false >/dev/null 2>&1; then
	echo "verify: FAIL — cancelled census exited zero without -allow-partial" >&2
	exit 1
fi
go run ./cmd/explore -protocol cas -k 5 -n 4 -crashes 1 -maxruns 100000000 \
	-workers 4 -timeout 2s -bivalence=false -allow-partial >/dev/null

if [ -n "${VERIFY_BENCH_BASE:-}" ]; then
	echo "== opt-in benchmark regression gate vs $VERIFY_BENCH_BASE"
	scripts/bench_compare.sh "$VERIFY_BENCH_BASE"
fi

echo "verify: OK"
