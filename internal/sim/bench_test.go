package sim_test

import (
	"fmt"
	"strconv"
	"testing"

	"repro/internal/objects"
	"repro/internal/registers"
	"repro/internal/sim"
)

// symLoopSpec declares the process symmetry of the symLoop workload:
// full symmetric group, ID-valued announce cells and CAS symbols
// renamed through the permutation, per-process cells renamed by name.
func symLoopSpec(n int) *sim.Symmetry {
	return &sim.Symmetry{
		Perms: sim.FullPerms(n),
		RenameValue: func(v sim.Value, perm []sim.ProcID) sim.Value {
			switch x := v.(type) {
			case int:
				if x >= 0 && x < n {
					return int(perm[x])
				}
			case objects.Symbol:
				if x != objects.Bottom && int(x) <= n {
					return objects.Symbol(int(perm[int(x)-1]) + 1)
				}
			}
			return v
		},
		RenameObject: func(name string, perm []sim.ProcID) string {
			if len(name) > 2 && name[1] == '[' {
				i, err := strconv.Atoi(name[2 : len(name)-1])
				if err == nil {
					return fmt.Sprintf("%c[%d]", name[0], perm[i])
				}
			}
			return name
		},
		RenameOutcome: func(key string, perm []sim.ProcID) string {
			return sim.RenameIntKey(key, func(i int) int { return int(perm[i]) })
		},
	}
}

// symLoop is the symmetric steady-state workload behind the canon
// benchmark rows, shaped like the protocol censuses that use the canon
// keyspace (an announce array, a feedback array, one shared oracle —
// cf. the degrading-election and hierarchy-witness protocols): n
// processes, each round writing the process's own announce and
// feedback cells, then CAS-ing the shared register (failing after the
// first round), then reading it — 4 shared steps per round, each
// touching one of 2n+1 objects.
func symLoop(rounds, n int) *sim.System {
	sys := sim.NewSystem()
	cas := objects.NewCAS("c", n+1)
	sys.Add(cas)
	ann := registers.NewArray(sys, "a", n, nil)
	fb := registers.NewArray(sys, "b", n, nil)
	sys.SpawnN(n, func(id sim.ProcID) sim.Program {
		return func(e *sim.Env) (sim.Value, error) {
			own, fbOwn := ann.Reg(int(id)), fb.Reg(int(id))
			for r := 0; r < rounds; r++ {
				own.Write(e, int(id))
				fbOwn.Write(e, int(id))
				e.Apply2(cas, objects.OpCAS, objects.Bottom, objects.Symbol(int(id)+1))
				e.Apply0(cas, sim.OpRead)
			}
			return int(id), nil
		}
	})
	sys.DeclareSymmetry(symLoopSpec(n))
	return sys
}

// symLoopMachine is symLoop's process as a resumable state machine.
type symLoopMachine struct {
	own    *registers.SWMR
	fb     *registers.SWMR
	cas    *objects.CAS
	id     int
	rounds int
	r, pc  int
}

func (m *symLoopMachine) Pending() sim.MachineOp {
	switch m.pc {
	case 0:
		return sim.MachineOp{Obj: m.own, Op: sim.OpWrite, NArgs: 1,
			Args: [2]sim.Value{m.id}}
	case 1:
		return sim.MachineOp{Obj: m.fb, Op: sim.OpWrite, NArgs: 1,
			Args: [2]sim.Value{m.id}}
	case 2:
		return sim.MachineOp{Obj: m.cas, Op: objects.OpCAS, NArgs: 2,
			Args: [2]sim.Value{objects.Bottom, objects.Symbol(m.id + 1)}}
	default:
		return sim.MachineOp{Obj: m.cas, Op: sim.OpRead}
	}
}

func (m *symLoopMachine) Finish(sim.Value) (bool, sim.Value, error) {
	if m.pc < 3 {
		m.pc++
		return false, nil, nil
	}
	m.pc = 0
	m.r++
	if m.r == m.rounds {
		return true, m.id, nil
	}
	return false, nil, nil
}

func (m *symLoopMachine) Save(s *sim.Snap) {
	s.Int(m.r)
	s.Int(m.pc)
}

func (m *symLoopMachine) Restore(r *sim.SnapReader) {
	m.r = r.Int()
	m.pc = r.Int()
}

// symLoopMachines is symLoop with machine-backed processes.
func symLoopMachines(rounds, n int) *sim.System {
	sys := sim.NewSystem()
	cas := objects.NewCAS("c", n+1)
	sys.Add(cas)
	ann := registers.NewArray(sys, "a", n, nil)
	fb := registers.NewArray(sys, "b", n, nil)
	for id := 0; id < n; id++ {
		sys.SpawnMachine(&symLoopMachine{
			own: ann.Reg(id), fb: fb.Reg(id), cas: cas, id: id, rounds: rounds,
		})
	}
	sys.DeclareSymmetry(symLoopSpec(n))
	return sys
}

// symLoopCanon builds the Canonicalizer for symLoop's shape once, so
// benchmark iterations pay only the per-run slice headers.
func symLoopCanon(b testing.TB, n int) *sim.Canonicalizer {
	probe := symLoop(1, n)
	canon, err := sim.NewCanonicalizer(probe, probe.SymmetrySpec())
	if err != nil {
		b.Fatal(err)
	}
	return canon
}

// BenchmarkSimStep prices one granted shared step of the runner in the
// exploration configuration (reused Scratch, tracing off), for
// Programs (the unprefixed rows: each step hands its result to the
// Program's host goroutine and waits for the next operation, two
// channel operations) and Machines (the "machine," rows: a plain call),
// across the fingerprint modes:
//
//	fingerprint=off    no observation hashing
//	fingerprint=on     per-step result fold + incremental plain cache
//	fingerprint=canon  symmetric workload (|G| = 3! = 6), the
//	                   canonical fingerprint READ at every decision
//	                   point — the census usage pattern — served from
//	                   the incrementally patched per-permutation cache
//	canon-scratch      same reads answered by a full |G|-fold recompute
//	                   (the pre-incremental StateHashCanon), kept as
//	                   the comparison row for the ≥|G|/2× criterion
//
// scripts/bench_hotpath.sh records every row into BENCH_hotpath.json;
// the allocs/op column is the same guard as TestSimStepAllocFree /
// TestMachineStepAllocFree, visible in the recorded numbers.
func BenchmarkSimStep(b *testing.B) {
	type row struct {
		name    string
		machine bool
		fp      bool
		canon   string // "" plain, "incr" cached, "scratch" full refold
	}
	rows := []row{
		// The Program rows keep their original names so recorded
		// baselines stay comparable; machine/canon rows are new names.
		{name: "fingerprint=off"},
		{name: "fingerprint=on", fp: true},
		{name: "fingerprint=canon", fp: true, canon: "incr"},
		{name: "machine,fingerprint=off", machine: true},
		{name: "machine,fingerprint=on", machine: true, fp: true},
		{name: "machine,fingerprint=canon", machine: true, fp: true, canon: "incr"},
		{name: "machine,fingerprint=canon-scratch", machine: true, fp: true, canon: "scratch"},
	}
	const rounds = 64
	const symN = 3
	for _, r := range rows {
		b.Run(r.name, func(b *testing.B) {
			sc := sim.NewScratch()
			var canon *sim.Canonicalizer
			if r.canon != "" {
				canon = symLoopCanon(b, symN)
			}
			var sys *sim.System
			rr := 0
			// The canon rows read the canonical fingerprint at every
			// decision point, which is how a symmetry-reduced census
			// consumes it; the plain rows use the bare scheduler.
			var sched sim.Scheduler = sim.SchedulerFunc(func(ready []sim.ProcID, _ int) sim.ProcID {
				switch r.canon {
				case "incr":
					sys.StateHashCanon()
				case "scratch":
					sys.StateHashCanonScratch()
				}
				rr++
				return ready[rr%len(ready)]
			})
			steps := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				switch {
				case r.canon != "" && r.machine:
					sys = symLoopMachines(rounds, symN)
				case r.canon != "":
					sys = symLoop(rounds, symN)
				case r.machine:
					sys = casLoopMachines(rounds)
				default:
					sys = casLoop(rounds)
				}
				res, err := sys.Run(sim.Config{
					Scheduler:    sched,
					Fingerprint:  r.fp,
					Canon:        canon,
					DisableTrace: true,
					Scratch:      sc,
				})
				if err != nil {
					b.Fatal(err)
				}
				steps += res.TotalSteps
			}
			b.StopTimer()
			if steps == 0 {
				b.Fatal("no steps executed")
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(steps), "ns/step")
		})
	}
}
