package explore_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/consensus"
	"repro/internal/election"
	"repro/internal/explore"
	"repro/internal/objects"
	"repro/internal/sim"
)

// The benchmark instances are the paper's Claim-row shapes: leader
// election / consensus over one compare&swap-(k) register with a crash
// budget, exactly the censuses the election and hierarchy experiments
// run at scale. Each instance is benchmarked as a full census — every
// terminal run enumerated and checked — under four engines:
//
//	replay-walker    one system execution per tree node (VisitReplay,
//	                 the original engine, kept as the §5.2 baseline)
//	path-engine      one system execution per terminal run (Visit)
//	pruned           path engine + state-fingerprint transposition
//	                 table (Run with WithPrune)
//	pruned-parallel  pruning + subtree fan-out to GOMAXPROCS workers
//
// The "runs/s" metric counts enumerated terminal runs per second of
// wall clock; for the pruned engines, pruned subtrees still credit
// their runs, so the metric is schedules *accounted for* per second —
// the quantity a census consumer cares about.
type benchInstance struct {
	name  string
	b     explore.Builder
	opts  explore.Options
	check func(*sim.Result) error
}

func electionInstance(k, n, crashes int) benchInstance {
	ids := make([]sim.Value, n)
	for i := range ids {
		ids[i] = i
	}
	spec := election.DirectSymmetric(n)
	return benchInstance{
		name: fmt.Sprintf("direct-cas/k=%d/n=%d/crashes=%d", k, n, crashes),
		b: func() *sim.System {
			sys := sim.NewSystem()
			cas := objects.NewCAS("cas", k)
			sys.Add(cas)
			for _, p := range election.DirectCAS(cas, n) {
				sys.Spawn(p)
			}
			// Only the symmetry engines consult the declaration; the
			// baseline engines run the identical system regardless.
			sys.DeclareSymmetry(spec)
			return sys
		},
		opts:  explore.Options{MaxCrashes: crashes},
		check: func(res *sim.Result) error { return election.CheckElection(res, ids) },
	}
}

// electionMachineInstance is the same election workload on the
// sim.Machine port (DirectCASMachines): System.Run auto-selects the
// direct-dispatch runner and the engines backtrack in place, so the
// gap between a machine row and its goroutine twin is the tentpole
// speedup, gated per-engine by scripts/bench_compare.sh. New rows vs a
// pre-machine base ref need the one-time BENCH_COMPARE_ALLOW_NEW=1.
func electionMachineInstance(k, n, crashes int) benchInstance {
	ids := make([]sim.Value, n)
	for i := range ids {
		ids[i] = i
	}
	spec := election.DirectSymmetric(n)
	return benchInstance{
		name: fmt.Sprintf("direct-cas-machine/k=%d/n=%d/crashes=%d", k, n, crashes),
		b: func() *sim.System {
			sys := sim.NewSystem()
			cas := objects.NewCAS("cas", k)
			sys.Add(cas)
			for _, m := range election.DirectCASMachines(cas, k, n) {
				sys.SpawnMachine(m)
			}
			sys.DeclareSymmetry(spec)
			return sys
		},
		opts:  explore.Options{MaxCrashes: crashes},
		check: func(res *sim.Result) error { return election.CheckElection(res, ids) },
	}
}

// consensusMachineInstance is the canonical symmetric CAS-consensus
// census on the machine port (CASMachines + CASSymmetric): a full
// process-permutation group over per-process announce cells plus a
// shared value-carrying register. Its symmetry-engine rows are the
// census-level evidence for the incremental canonical fingerprint
// cache — every transposition-table probe under WithSymmetry reads
// StateHashCanon, so canonical-hash cost lands in the
// bench_compare.sh >10% regression gate through these rows.
func consensusMachineInstance(k, n, crashes int) benchInstance {
	props := make([]sim.Value, n)
	for i := range props {
		props[i] = 100 + i
	}
	spec := consensus.CASSymmetric(n)
	return benchInstance{
		name: fmt.Sprintf("cas-consensus-machine/k=%d/n=%d/crashes=%d", k, n, crashes),
		b: func() *sim.System {
			sys := sim.NewSystem()
			cas := objects.NewCAS("cas", k)
			sys.Add(cas)
			for _, m := range consensus.CASMachines(sys, cas, props) {
				sys.SpawnMachine(m)
			}
			sys.DeclareSymmetry(spec)
			return sys
		},
		opts: explore.Options{MaxCrashes: crashes},
		check: func(res *sim.Result) error {
			if err := consensus.CheckAgreement(res); err != nil {
				return err
			}
			return consensus.CheckValidity(res, props)
		},
	}
}

func benchInstances() []benchInstance {
	return []benchInstance{
		electionInstance(5, 3, 1),
		electionInstance(5, 4, 0),
		electionInstance(5, 4, 1),
		electionMachineInstance(5, 4, 1),
		consensusMachineInstance(4, 3, 1),
	}
}

// censusVia runs a full checked census through one of the two visit
// engines (the non-pruning paths), mirroring what Run's legacy path
// does so the engines are compared on identical work.
func censusVia(visit func(explore.Builder, explore.Options, func(explore.Outcome) bool) (int, bool),
	in benchInstance) int {
	runs, _ := visit(in.b, in.opts, func(o explore.Outcome) bool {
		if !o.Result.Halted {
			_ = in.check(o.Result)
		}
		return true
	})
	return runs
}

func BenchmarkExplore(b *testing.B) {
	engines := []struct {
		name string
		runs func(benchInstance) int
	}{
		{"replay-walker", func(in benchInstance) int { return censusVia(explore.VisitReplay, in) }},
		{"path-engine", func(in benchInstance) int { return censusVia(explore.Visit, in) }},
		{"pruned", func(in benchInstance) int {
			c := explore.Run(in.b, in.opts.With(explore.WithPrune()), in.check)
			return c.Complete + c.Incomplete
		}},
		// Pinned to 4 workers rather than GOMAXPROCS so the shared
		// table and steal pool are exercised even on single-core hosts
		// (where -1 would resolve to 1 worker and silently bench the
		// sequential path); the cpus field in BENCH_explore.json says
		// how much genuine parallelism backed the recorded numbers.
		{"pruned-parallel", func(in benchInstance) int {
			c := explore.Run(in.b, in.opts.With(explore.WithPrune(), explore.WithWorkers(4)), in.check)
			return c.Complete + c.Incomplete
		}},
		// The reduction engines fold the schedule space before probing
		// the table: symmetry canonicalizes fingerprints under the
		// declared process permutations, sleep sets credit independent-
		// step commutations, "reduced" composes both. Counts stay
		// bit-identical (TestReducedCensusMatchesUnreduced); what drops
		// is the number of replayed executions behind each credited run.
		{"pruned-symmetry", func(in benchInstance) int {
			c := explore.Run(in.b, in.opts.With(explore.WithSymmetry()), in.check)
			return c.Complete + c.Incomplete
		}},
		{"pruned-reduced", func(in benchInstance) int {
			c := explore.Run(in.b, in.opts.With(explore.WithSymmetry(), explore.WithSleepSets()), in.check)
			return c.Complete + c.Incomplete
		}},
		{"pruned-parallel-reduced", func(in benchInstance) int {
			c := explore.Run(in.b, in.opts.With(explore.WithSymmetry(), explore.WithSleepSets(),
				explore.WithWorkers(4)), in.check)
			return c.Complete + c.Incomplete
		}},
	}
	for _, in := range benchInstances() {
		for _, eng := range engines {
			b.Run(in.name+"/"+eng.name, func(b *testing.B) {
				total := 0
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					total += eng.runs(in)
				}
				b.StopTimer()
				if total == 0 {
					b.Fatal("census enumerated zero runs")
				}
				b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "runs/s")
			})
		}
	}
}

// BenchmarkResilience measures the supervision tax of the work-stealing
// pool: the same unpruned parallel census (the BENCH_explore election
// workload) run plain and with the supervisor fully armed — retry
// budget, deterministic backoff, and the heartbeat stall watchdog at a
// timeout no healthy item ever hits. No chaos is injected: this is the
// cost of the machinery alone (a heartbeat closure per simulator step,
// the watchdog's claim sampling, claim bookkeeping).
// scripts/bench_resilience.sh pairs the two rows per workload and
// enforces the <5% overhead acceptance bound.
func BenchmarkResilience(b *testing.B) {
	supervised := explore.WithSupervision(explore.Supervise{
		MaxAttempts:  3,
		StallTimeout: 2 * time.Second,
	})
	for _, in := range []benchInstance{
		electionInstance(5, 3, 1),
		electionInstance(5, 4, 0),
	} {
		for _, mode := range []struct {
			name  string
			tunes []explore.Tune
		}{
			{"plain", nil},
			{"supervised", []explore.Tune{supervised}},
		} {
			b.Run(in.name+"/"+mode.name, func(b *testing.B) {
				opts := in.opts.With(explore.WithWorkers(-1)).With(mode.tunes...)
				total := 0
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					c := explore.Run(in.b, opts, in.check)
					if !c.Exhaustive {
						b.Fatal("benchmark census not exhaustive")
					}
					total += c.Complete + c.Incomplete
				}
				b.StopTimer()
				b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "runs/s")
			})
		}
	}
}
