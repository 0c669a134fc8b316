// Benchmarks regenerate the paper's quantitative claims (EXPERIMENTS.md
// records claim vs. measured). The paper is a theory extended abstract
// with no measurement tables; each benchmark below corresponds to one
// claim row of DESIGN.md §4 and reports the claim's quantity as a
// benchmark metric alongside the usual time/op.
//
//	go test -bench=. -benchmem
package repro_test

import (
	"fmt"
	"testing"

	"repro/internal/agents"
	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/election"
	"repro/internal/explore"
	"repro/internal/hardware"
	"repro/internal/hierarchy"
	"repro/internal/objects"
	"repro/internal/registers"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/universal"
)

// BenchmarkE1Reduction: Claim 1 / Theorem 1 — the emulation of an
// algorithm over compare&swap-(k) by m = (k−1)!+1 read/write emulators
// decides at most (k−1)! distinct values. Metrics: distinct decisions,
// the (k−1)! bound, and total shared steps.
func BenchmarkE1Reduction(b *testing.B) {
	for _, tc := range []struct{ k, n int }{{3, 112}, {4, 168}, {5, 500}} {
		k, n := tc.k, tc.n
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			var distinct, steps int
			for i := 0; i < b.N; i++ {
				r := core.NewReduction(core.Config{K: k, Quota: 3, A: core.FirstValueA(k, n)})
				res, err := r.System().Run(sim.Config{
					Scheduler: sim.Random(int64(i)), MaxTotalSteps: 1 << 23, DisableTrace: true,
				})
				if err != nil {
					b.Fatal(err)
				}
				rep := r.Analyze(res)
				if len(rep.Errors) != 0 {
					b.Fatalf("emulator errors: %v", rep.Errors)
				}
				if rep.Distinct > rep.MaxLabels {
					b.Fatalf("census violated: %d > %d", rep.Distinct, rep.MaxLabels)
				}
				if err := r.Audit(); err != nil {
					b.Fatal(err)
				}
				distinct += rep.Distinct
				steps += res.TotalSteps
			}
			b.ReportMetric(float64(distinct)/float64(b.N), "distinct-decisions")
			b.ReportMetric(float64(core.MaxLabels(k)), "bound-(k-1)!")
			b.ReportMetric(float64(steps)/float64(b.N), "shared-steps")
		})
	}
}

// BenchmarkE2Labels: group splitting — biased contention splits the
// emulators into multiple first-use groups, never beyond (k−1)!.
func BenchmarkE2Labels(b *testing.B) {
	k := 3
	m := core.MaxLabels(k) + 1
	var groups int
	for i := 0; i < b.N; i++ {
		r := core.NewReduction(core.Config{K: k, Quota: 5, A: core.BiasedA(k, m, 60)})
		res, err := r.System().Run(sim.Config{
			Scheduler: sim.Random(int64(i)), MaxTotalSteps: 1 << 23, DisableTrace: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		rep := r.Analyze(res)
		if rep.Groups > rep.MaxLabels {
			b.Fatalf("groups %d exceed %d", rep.Groups, rep.MaxLabels)
		}
		groups += rep.Groups
	}
	b.ReportMetric(float64(groups)/float64(b.N), "groups")
	b.ReportMetric(float64(core.MaxLabels(k)), "bound-(k-1)!")
}

// BenchmarkE3BurnsBound: register-alone election capacity is exactly
// k−1 — all schedules agree at n = k−1 (checked exhaustively).
func BenchmarkE3BurnsBound(b *testing.B) {
	for _, k := range []int{3, 4, 5} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			ids := make([]sim.Value, k-1)
			for i := range ids {
				ids[i] = i
			}
			var runs int
			for i := 0; i < b.N; i++ {
				builder := func() *sim.System {
					sys := sim.NewSystem()
					cas := objects.NewCAS("cas", k)
					sys.Add(cas)
					for _, p := range election.DirectCAS(cas, k-1) {
						sys.Spawn(p)
					}
					return sys
				}
				c := explore.Run(builder, explore.Options{MaxRuns: 100000}, func(res *sim.Result) error {
					return election.CheckElection(res, ids)
				})
				if len(c.Violations) != 0 {
					b.Fatal("election violated")
				}
				runs += c.Complete
			}
			b.ReportMetric(float64(k-1), "capacity")
			b.ReportMetric(float64(runs)/float64(b.N), "schedules-verified")
		})
	}
}

// BenchmarkE4CapacitySweep: with read/write registers the permutation
// protocol elects Capacity(k) ≈ e·(k−1)! processes — the O(k!) shape of
// the paper's companion algorithm — verified end to end per iteration.
func BenchmarkE4CapacitySweep(b *testing.B) {
	for _, k := range []int{3, 4, 5} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			n := election.Capacity(k)
			ids := make([]sim.Value, n)
			for i := range ids {
				ids[i] = fmt.Sprintf("p%d", i)
			}
			var steps int
			for i := 0; i < b.N; i++ {
				sys := sim.NewSystem()
				cas := objects.NewCAS("cas", k)
				sys.Add(cas)
				for _, p := range election.Permutation(sys, cas, ids) {
					sys.Spawn(p)
				}
				res, err := sys.Run(sim.Config{
					Scheduler: sim.Random(int64(i)), MaxTotalSteps: 1 << 24, DisableTrace: true,
				})
				if err != nil {
					b.Fatal(err)
				}
				if err := election.CheckElection(res, ids); err != nil {
					b.Fatal(err)
				}
				steps += res.TotalSteps
			}
			b.ReportMetric(float64(n), "capacity")
			b.ReportMetric(float64(k-1), "register-alone-capacity")
			b.ReportMetric(float64(steps)/float64(b.N), "shared-steps")
		})
	}
}

// BenchmarkE5AgentGame: Lemma 1.1 — random play never exceeds the m^k
// move bound and always satisfies the potential law.
func BenchmarkE5AgentGame(b *testing.B) {
	for _, mk := range []struct{ m, k int }{{2, 3}, {3, 4}, {4, 5}} {
		b.Run(fmt.Sprintf("m=%d,k=%d", mk.m, mk.k), func(b *testing.B) {
			var best int
			for i := 0; i < b.N; i++ {
				g, start, err := agents.RandomRun(mk.m, mk.k, int64(i), 100000)
				if err != nil {
					b.Fatal(err)
				}
				if g.Moves() > agents.MoveBound(mk.m, mk.k) {
					b.Fatal("move bound violated")
				}
				if err := g.VerifyPotentialLaw(start); err != nil {
					b.Fatal(err)
				}
				if g.Moves() > best {
					best = g.Moves()
				}
			}
			b.ReportMetric(float64(best), "best-moves")
			b.ReportMetric(float64(agents.MoveBound(mk.m, mk.k)), "bound-m^k")
		})
	}
}

// BenchmarkE6Hierarchy: consensus-number witnesses — test&set solves 2,
// fails 3; read/write fails 2.
func BenchmarkE6Hierarchy(b *testing.B) {
	cells := []struct {
		name   string
		check  func(n, maxRuns int, tunes ...explore.Tune) hierarchy.Witness
		n      int
		solves bool
	}{
		{"rw-2", hierarchy.CheckRW, 2, false},
		{"tas-2", hierarchy.CheckTAS, 2, true},
		{"tas-3", hierarchy.CheckTAS, 3, false},
		{"queue-2", hierarchy.CheckQueue, 2, true},
	}
	for _, cell := range cells {
		b.Run(cell.name, func(b *testing.B) {
			var runs int
			for i := 0; i < b.N; i++ {
				w := cell.check(cell.n, 100000)
				if w.Solves != cell.solves {
					b.Fatalf("%s/%d: solves=%v, want %v", w.Object, w.N, w.Solves, cell.solves)
				}
				runs += w.Runs
			}
			b.ReportMetric(float64(runs)/float64(b.N), "schedules")
		})
	}
}

// BenchmarkE7HistoryTree: ComputeHistory and the excess-graph stability
// checks over a real emulation's final state.
func BenchmarkE7HistoryTree(b *testing.B) {
	r := core.NewReduction(core.Config{K: 3, Quota: 6, A: core.CyclingA(3, 90, 4)})
	res, err := r.System().Run(sim.Config{Scheduler: sim.RoundRobin(), MaxTotalSteps: 1 << 23, DisableTrace: true})
	if err != nil || res.Halted {
		b.Fatalf("setup: %v halted=%v", err, res.Halted)
	}
	v := r.FinalView()
	labels := v.MaximalLabels()
	b.ResetTimer()
	var histLen int
	for i := 0; i < b.N; i++ {
		for _, l := range labels {
			h := core.ComputeHistory(v, l)
			histLen += len(h.Seq)
			g := core.NewExcessGraph(v, l, h)
			for _, comp := range g.SCCs([]objects.Symbol{0, 1, 2}, 1) {
				g.IsStable(comp, 3, r.Config().M)
			}
		}
	}
	b.ReportMetric(float64(histLen)/float64(b.N), "history-symbols")
}

// BenchmarkE8Rebalance: the Figure 5 release path — cycling workloads
// accumulate unmatched transitions and recycle suspended v-processes.
func BenchmarkE8Rebalance(b *testing.B) {
	var released int
	for i := 0; i < b.N; i++ {
		r := core.NewReduction(core.Config{K: 3, Quota: 6, A: core.CyclingA(3, 90, 4)})
		res, err := r.System().Run(sim.Config{Scheduler: sim.RoundRobin(), MaxTotalSteps: 1 << 23, DisableTrace: true})
		if err != nil || res.Halted {
			b.Fatalf("%v halted=%v", err, res.Halted)
		}
		if err := r.Audit(); err != nil {
			b.Fatal(err)
		}
		v := r.FinalView()
		for _, l := range v.MaximalLabels() {
			for _, c := range core.ReleasedCount(v, l) {
				released += c
			}
		}
	}
	b.ReportMetric(float64(released)/float64(b.N), "releases")
}

// BenchmarkE9Universal: universality and its size limit — throughput of
// the universal counter at n = k−1 and the ops a bounded cell budget
// affords.
func BenchmarkE9Universal(b *testing.B) {
	for _, k := range []int{3, 4, 5} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			n := k - 1
			var ops int
			for i := 0; i < b.N; i++ {
				sys := sim.NewSystem()
				u, err := universal.NewUniversal(sys, "ctr", spec.CounterSpec{}, n, k, 0)
				if err != nil {
					b.Fatal(err)
				}
				for p := 0; p < n; p++ {
					sess := u.NewSession()
					sys.Spawn(func(e *sim.Env) (sim.Value, error) {
						for j := 0; j < 5; j++ {
							if _, err := sess.Invoke(e, universal.Op{Kind: "add", Args: []sim.Value{1}}); err != nil {
								return nil, err
							}
						}
						return nil, nil
					})
				}
				res, err := sys.Run(sim.Config{Scheduler: sim.Random(int64(i)), DisableTrace: true})
				if err != nil {
					b.Fatal(err)
				}
				for p := 0; p < n; p++ {
					if res.Errors[p] != nil {
						b.Fatal(res.Errors[p])
					}
				}
				ops += n * 5
			}
			b.ReportMetric(float64(ops)/float64(b.N), "ops")
			b.ReportMetric(float64(n), "max-processes")
		})
	}
}

// BenchmarkE10WaitFree: worst-case steps per process across the
// wait-free protocols under crash injection.
func BenchmarkE10WaitFree(b *testing.B) {
	var worst int
	for i := 0; i < b.N; i++ {
		sys := sim.NewSystem()
		cas := objects.NewCAS("cas", 5)
		sys.Add(cas)
		props := []sim.Value{10, 20, 30, 40}
		for _, p := range consensus.CASProtocol(sys, cas, props) {
			sys.Spawn(p)
		}
		res, err := sys.Run(sim.Config{
			Scheduler:    sim.Random(int64(i)),
			Faults:       sim.RandomCrashes(int64(i), 0.1, 2),
			DisableTrace: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := consensus.CheckAgreement(res); err != nil {
			b.Fatal(err)
		}
		for p, steps := range res.Steps {
			if !res.Crashed[p] && steps > worst {
				worst = steps
			}
		}
	}
	b.ReportMetric(float64(worst), "worst-steps-per-proc")
}

// BenchmarkAblationGateVsAtomic (DESIGN.md §5.1): the deterministic
// gate scheduler vs. raw goroutines on sync/atomic — the price of
// reproducibility.
func BenchmarkAblationGateVsAtomic(b *testing.B) {
	const n = 4
	b.Run("sim-gate", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sys := sim.NewSystem()
			cas := objects.NewCAS("cas", n+1)
			sys.Add(cas)
			for _, p := range election.DirectCAS(cas, n) {
				sys.Spawn(p)
			}
			if _, err := sys.Run(sim.Config{DisableTrace: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("raw-atomic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			out := hardware.DirectElection(hardware.NewCAS(n+1), n)
			for _, w := range out[1:] {
				if w != out[0] {
					b.Fatal("raw election disagreed")
				}
			}
		}
	})
}

// BenchmarkAblationSnapshot (DESIGN.md §5.3): the linearizable
// double-collect scan vs. the broken single collect.
func BenchmarkAblationSnapshot(b *testing.B) {
	run := func(b *testing.B, unsafe bool) {
		for i := 0; i < b.N; i++ {
			sys := sim.NewSystem()
			snap := registers.NewSnapshot(sys, "s", 3, 0)
			for p := 0; p < 2; p++ {
				sys.Spawn(func(e *sim.Env) (sim.Value, error) {
					for v := 1; v <= 3; v++ {
						snap.Update(e, v)
					}
					return nil, nil
				})
			}
			sys.Spawn(func(e *sim.Env) (sim.Value, error) {
				for j := 0; j < 4; j++ {
					if unsafe {
						snap.UnsafeSingleCollect(e)
					} else {
						snap.Scan(e)
					}
				}
				return nil, nil
			})
			if _, err := sys.Run(sim.Config{Scheduler: sim.Random(int64(i)), DisableTrace: true}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("double-collect", func(b *testing.B) { run(b, false) })
	b.Run("single-collect-unsound", func(b *testing.B) { run(b, true) })
}

// BenchmarkAblationQuota (DESIGN.md §5.4): suspension quota vs. stall
// rate — too small a quota cannot pay for history transitions.
func BenchmarkAblationQuota(b *testing.B) {
	for _, quota := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("quota=%d", quota), func(b *testing.B) {
			var failures int
			for i := 0; i < b.N; i++ {
				r := core.NewReduction(core.Config{
					K: 3, Quota: quota, A: core.FirstValueA(3, 80), MaxIterations: 2000,
				})
				res, err := r.System().Run(sim.Config{
					Scheduler: sim.Random(int64(i)), MaxTotalSteps: 1 << 23, DisableTrace: true,
				})
				if err != nil {
					b.Fatal(err)
				}
				rep := r.Analyze(res)
				failures += len(rep.Errors)
				if err := r.Audit(); err != nil {
					b.Fatal(err) // even stalls must never fabricate transitions
				}
			}
			b.ReportMetric(float64(failures)/float64(b.N), "stalled-emulators")
		})
	}
}
