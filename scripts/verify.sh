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

echo "== gofmt -l (tracked Go files)"
unformatted="$(gofmt -l $(git ls-files '*.go'))"
if [ -n "$unformatted" ]; then
	echo "verify: FAIL — gofmt would reformat:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== go test ./..."
go test ./...

echo "== go test -race ./internal/explore/... ./internal/sim/... ./internal/faults/... ./internal/election/... ./internal/consensus/... ./internal/runctx/..."
go test -race ./internal/explore/... ./internal/sim/... ./internal/faults/... ./internal/election/... ./internal/consensus/... ./internal/runctx/...

echo "== census daemon under the race detector (admission, dedup, recovery, kill -9 chaos)"
go test -race -count=1 ./internal/censusd/

echo "== distributed-census client/worker under the race detector"
go test -race -count=1 ./internal/distcensus/

echo "== supervisor tests under the race detector (chaos, watchdog, cancellation, checkpoint, pooled censuses, root ledger, leased subtrees, the remote seat's claim rule)"
go test -race -count=1 -run 'Supervis|Chaos|Watchdog|Cancel|Checkpoint|Backoff|WorkerPanic|Pooled|Saturates|Ledger|RetriedDonor|StealRetry|Subtree|DistPlan|RemoteSeat' \
	./internal/explore/

echo "== reduction paths under the race detector (symmetry folding, sleep-set credit, forced donation, spec and audit refusals, subgroup specs)"
go test -race -count=1 -run 'TestReducedCensusMatchesUnreduced|TestSymmetryRefuses|TestCanonicalHashPermutationInvariant|Refusals|Subgroup' \
	./internal/explore/ ./internal/sim/

echo "== symmetry spec fuzzing: NewCanonicalizer must accept exactly the permutation groups"
go test -run '^$' -fuzz '^FuzzNewCanonicalizer$' -fuzztime 10s ./internal/sim/

# Seeds are whole checkpoint files, so minimizing a new input could take
# the fuzzer's default minute; a 2 s cap keeps the 10 s spent fuzzing.
echo "== checkpoint fuzzing: LoadCheckpoint never panics, credits only roots of the plan, and a resume from it never panics"
go test -run '^$' -fuzz '^FuzzLoadCheckpoint$' -fuzztime 10s -fuzzminimizetime 2s ./internal/explore/

echo "== request fuzzing: Normalize never panics, and a request it accepts is canonical, identity-stable and builds"
go test -run '^$' -fuzz '^FuzzRequestNormalize$' -fuzztime 10s ./internal/censusd/

echo "== symmetry at n=6: the reduced census of cas k=7 n=6 must count what plain pruning counts"
n6json="$(go run ./cmd/explore -protocol cas -k 7 -n 6 -crashes 1 -symmetry -sleepsets \
	-maxruns 4611686018427387904 -bivalence=false -json)"
for want in '"complete": 26435341132200000' '"violation_runs": 0' '"exhaustive": true' '"symmetry_on": true'; do
	if ! printf '%s\n' "$n6json" | grep -qF "$want"; then
		echo "verify: FAIL — the n=6 symmetry census lacks $want:" >&2
		printf '%s\n' "$n6json" >&2
		exit 1
	fi
done

echo "== prose census of cas k=6 n=5: the valence pass runs under the census's reducers and must finish"
timeout 60 go run ./cmd/explore -protocol cas -k 6 -n 5 -crashes 1 -symmetry -sleepsets \
	-maxruns 4611686018427387904 -bivalence=false >/dev/null

echo "== transposition table under the race detector: concurrent publishes, hits, growth and eviction"
go test -race -count=10 -run 'TestPruneTableConcurrent' ./internal/explore/

echo "== reduction smoke: reduced census must match unreduced bit-for-bit (fast tier)"
go test -count=1 -run 'TestReducedCensusMatchesUnreduced' ./internal/explore/

echo "== machine census oracle: in-place DFS censuses must match censuses folded from the replay walker"
go test -count=1 -run 'TestMachineCensusMatchesGoroutine' ./internal/explore/

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

echo "== perfbench determinism smoke and pin gate: every workload at tiny sizes must run and count right"
(cd perfbench && go test -count=1 ./...)

echo "== fingerprint audit census: incremental plain+canonical hashes cross-checked against from-scratch recomputes on every step"
go run ./cmd/explore -protocol cas -k 4 -n 3 -crashes 1 -symmetry -verifyfp \
	-workers 1 -maxruns 200000 -bivalence=false >/dev/null

echo "== benchmark smoke (-benchtime 1x: every benchmark still runs)"
go test -run '^$' -bench 'BenchmarkSimStep' -benchtime 1x ./internal/sim/ >/dev/null
go test -run '^$' -bench 'BenchmarkExplore|BenchmarkPruneTable' -benchtime 1x -benchmem ./internal/explore/ >/dev/null
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

echo "== width-1 chaos smoke: a one-worker census is supervised too, and retries injected kills to the unsupervised census"
census1="go run ./cmd/explore -protocol casdeg -k 3 -n 2 -crashes 1 -objfaults 1 -prune -workers 1 -bivalence=false -json"
plain1="$($census1)"
chaos1="$($census1 -retries 5 -chaos-kills 2 -chaos-seed 9)"
if ! printf '%s\n' "$chaos1" | jq -e '.supervision.kills >= 1' >/dev/null ||
	[ "$(printf '%s\n' "$chaos1" | jq -S 'del(.supervision)')" != "$(printf '%s\n' "$plain1" | jq -S 'del(.supervision)')" ]; then
	echo "verify: FAIL — the one-worker chaos census killed nothing or differs from the unsupervised census:" >&2
	printf '%s\n' "$chaos1" >&2
	exit 1
fi

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
