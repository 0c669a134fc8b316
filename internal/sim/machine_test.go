package sim_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/objects"
	"repro/internal/registers"
	"repro/internal/sim"
)

// casLoopMachine is the machine twin of casLoop's Program: the same
// CAS/read round pattern, expressed as a resumable state machine.
type casLoopMachine struct {
	cas    *objects.CAS
	id     int
	rounds int
	r, pc  int
}

func (m *casLoopMachine) Pending() sim.MachineOp {
	if m.pc == 0 {
		return sim.MachineOp{
			Obj: m.cas, Op: objects.OpCAS, NArgs: 2,
			Args: [2]sim.Value{objects.Bottom, objects.Symbol(m.id + 1)},
		}
	}
	return sim.MachineOp{Obj: m.cas, Op: sim.OpRead}
}

func (m *casLoopMachine) Finish(sim.Value) (bool, sim.Value, error) {
	if m.pc == 0 {
		m.pc = 1
		return false, nil, nil
	}
	m.pc = 0
	m.r++
	if m.r == m.rounds {
		return true, m.id, nil
	}
	return false, nil, nil
}

func (m *casLoopMachine) Save(s *sim.Snap) {
	s.Int(m.r)
	s.Int(m.pc)
}

func (m *casLoopMachine) Restore(r *sim.SnapReader) {
	m.r = r.Int()
	m.pc = r.Int()
}

// casLoopMachines is casLoop with machine-backed processes: identical
// objects, op sequence and decisions, so runs must be bit-identical.
func casLoopMachines(rounds int) *sim.System {
	sys := sim.NewSystem()
	cas := objects.NewCAS("c", 4)
	sys.Add(cas)
	for id := 0; id < 2; id++ {
		sys.SpawnMachine(&casLoopMachine{cas: cas, id: id, rounds: rounds})
	}
	return sys
}

// finalRun is a finished run: its Result and the fingerprint of the
// final state.
type finalRun struct {
	*sim.Result
	fp   uint64
	fpOK bool
}

// sameResult asserts the observable fields and final fingerprints of
// two runs are identical (errors compared by rendering).
func sameResult(t *testing.T, label string, a, b finalRun) {
	t.Helper()
	if a.TotalSteps != b.TotalSteps || a.Halted != b.Halted {
		t.Fatalf("%s: totals differ: (%d,%v) vs (%d,%v)", label, a.TotalSteps, a.Halted, b.TotalSteps, b.Halted)
	}
	if a.fp != b.fp || a.fpOK != b.fpOK {
		t.Fatalf("%s: fingerprints differ: %x/%v vs %x/%v", label, a.fp, a.fpOK, b.fp, b.fpOK)
	}
	for i := range a.Values {
		if fmt.Sprint(a.Values[i]) != fmt.Sprint(b.Values[i]) ||
			fmt.Sprint(a.Errors[i]) != fmt.Sprint(b.Errors[i]) ||
			a.Crashed[i] != b.Crashed[i] || a.Steps[i] != b.Steps[i] {
			t.Fatalf("%s: proc %d differs: (%v,%v,%v,%d) vs (%v,%v,%v,%d)", label, i,
				a.Values[i], a.Errors[i], a.Crashed[i], a.Steps[i],
				b.Values[i], b.Errors[i], b.Crashed[i], b.Steps[i])
		}
	}
}

// casLoopMixed is casLoop with process 0 a Program and process 1 a
// Machine: both kinds of process on the one runner in one run.
func casLoopMixed(rounds int) *sim.System {
	sys := sim.NewSystem()
	cas := objects.NewCAS("c", 4)
	sys.Add(cas)
	sys.Spawn(func(e *sim.Env) (sim.Value, error) {
		for r := 0; r < rounds; r++ {
			e.Apply2(cas, objects.OpCAS, objects.Bottom, objects.Symbol(1))
			e.Apply0(cas, sim.OpRead)
		}
		return 0, nil
	})
	sys.SpawnMachine(&casLoopMachine{cas: cas, id: 1, rounds: rounds})
	return sys
}

// TestMachineRunMatchesGoroutine runs the same protocol as Machines,
// as hand-written Programs, and as a mix of the two, under several
// schedules, fault plans and budgets. All three must agree on every
// observable field including the state fingerprint.
func TestMachineRunMatchesGoroutine(t *testing.T) {
	cases := []struct {
		name  string
		sched func() sim.Scheduler
		plan  func(t *testing.T) sim.FaultPlan
		limit int
		// total is MaxTotalSteps; every row that sets it sets the run's
		// exact length, so the run must still end complete.
		total int
	}{
		{name: "roundrobin", sched: func() sim.Scheduler { return &rrSched{} }},
		{name: "random", sched: func() sim.Scheduler { return sim.Random(42) }},
		{name: "crash", sched: func() sim.Scheduler { return &rrSched{} },
			plan: func(*testing.T) sim.FaultPlan { return sim.CrashAt(map[int][]sim.ProcID{3: {0}}) }},
		{name: "steplimit", sched: func() sim.Scheduler { return &rrSched{} }, limit: 5},
		{name: "halt", sched: func() sim.Scheduler {
			return sim.Replay([]sim.ProcID{0, 1, 0, 1, 0})
		}},
		// 2 processes × 6 rounds × 2 operations = 24 steps.
		{name: "exact-total-budget", sched: func() sim.Scheduler { return &rrSched{} }, total: 24},
		// A completed run ends before the fault plan is asked again.
		{name: "no-empty-crash-query", sched: func() sim.Scheduler { return sim.Random(7) },
			plan: func(t *testing.T) sim.FaultPlan {
				return sim.FaultPlanFunc(func(ready []sim.ProcID, step int) []sim.ProcID {
					if len(ready) == 0 {
						t.Errorf("CrashNow called with an empty ready set at step %d", step)
					}
					return nil
				})
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(sys *sim.System) finalRun {
				cfg := sim.Config{
					Scheduler:       tc.sched(),
					Fingerprint:     true,
					DisableTrace:    true,
					MaxStepsPerProc: tc.limit,
					MaxTotalSteps:   tc.total,
				}
				if tc.plan != nil {
					cfg.Faults = tc.plan(t)
				}
				res, err := sys.Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				fp, ok := sys.StateHash()
				return finalRun{res, fp, ok}
			}
			machines := run(casLoopMachines(6))
			programs := run(casLoop(6))
			mixed := run(casLoopMixed(6))
			sameResult(t, "machines vs programs", machines, programs)
			sameResult(t, "machines vs mixed", machines, mixed)
			if tc.total > 0 && machines.Halted {
				t.Fatalf("run of exactly MaxTotalSteps=%d steps reported halted (ready %v)",
					tc.total, machines.ReadyAtHalt)
			}
		})
	}
}

// TestProgramRunsLeaveNoGoroutines ends Program runs every way a run
// can end and checks that each one unwinds every host goroutine.
func TestProgramRunsLeaveNoGoroutines(t *testing.T) {
	ownerViolation := func() *sim.System {
		sys := sim.NewSystem()
		reg := registers.NewSWMR("r", 0, nil)
		sys.Add(reg)
		sys.SpawnN(3, func(id sim.ProcID) sim.Program {
			return func(e *sim.Env) (sim.Value, error) {
				reg.Write(e, int(id)) // only process 0 owns r
				reg.Read(e)
				return int(id), nil
			}
		})
		return sys
	}
	cases := []struct {
		name    string
		build   func() *sim.System
		cfg     sim.Config
		wantErr bool
	}{
		{name: "complete", build: func() *sim.System { return casLoop(6) }},
		{name: "halt", build: func() *sim.System { return casLoop(6) },
			cfg: sim.Config{Scheduler: sim.Replay([]sim.ProcID{0, 1, 0})}},
		{name: "crash", build: func() *sim.System { return casLoop(6) },
			cfg: sim.Config{Faults: sim.CrashAt(map[int][]sim.ProcID{3: {0, 1}})}},
		{name: "steplimit", build: func() *sim.System { return casLoop(6) },
			cfg: sim.Config{MaxStepsPerProc: 5}},
		{name: "total-budget", build: func() *sim.System { return casLoop(6) },
			cfg: sim.Config{MaxTotalSteps: 7}},
		{name: "rejected-op", build: ownerViolation},
		{name: "scheduler-misuse", build: func() *sim.System { return casLoop(6) },
			cfg:     sim.Config{Scheduler: sim.SchedulerFunc(func([]sim.ProcID, int) sim.ProcID { return 7 })},
			wantErr: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			_, err := tc.build().Run(tc.cfg)
			if (err != nil) != tc.wantErr {
				t.Fatalf("Run error = %v, want error: %v", err, tc.wantErr)
			}
			// A host goroutine signals the runner just before it returns,
			// so give the scheduler a moment to retire it.
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > base {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines after the run, %d before", runtime.NumGoroutine(), base)
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}

// stepIdxSched is a stateless scheduler (a pure function of the ready
// set and step count), so an execution restored from a snapshot
// continues under the same decisions without scheduler state to rewind.
type stepIdxSched struct{}

func (stepIdxSched) Next(ready []sim.ProcID, step int) sim.ProcID {
	return ready[step%len(ready)]
}

// TestMachineSnapshotRestore checks the backtracking primitive at the
// sim level: snapshot the initial state, run to completion, restore,
// run again — both completions must be bit-identical.
func TestMachineSnapshotRestore(t *testing.T) {
	sys := casLoopMachines(6)
	me, err := sys.StartMachines(sim.Config{
		Scheduler:    stepIdxSched{},
		Fingerprint:  true,
		DisableTrace: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var snap sim.Snap
	me.Snapshot(&snap) // initial state at offset (0,0)
	res1, err := me.Run()
	if err != nil {
		t.Fatal(err)
	}
	fp1, _ := sys.StateHash()
	v1 := fmt.Sprint(res1.Values)

	// Restore the initial snapshot and re-run: identical completion.
	me.Restore(snap.ReaderAt(0, 0))
	res2, err := me.Run()
	if err != nil {
		t.Fatal(err)
	}
	if fp2, _ := sys.StateHash(); fp2 != fp1 || fmt.Sprint(res2.Values) != v1 {
		t.Fatalf("restored run differs: %x %v vs %x %v", fp2, res2.Values, fp1, v1)
	}
}

// TestMachineStepAllocFree is TestSimStepAllocFree for the direct-
// dispatch path: with a reused Scratch, fingerprinting on and tracing
// off, an additional machine step must allocate NOTHING. Same
// differential method — 256 extra steps, delta must be zero.
func TestMachineStepAllocFree(t *testing.T) {
	// Three fingerprint regimes: lazy (fingerprint on but never read
	// mid-run, the plain-census configuration), "on" (the incremental
	// plain cache read at every decision point), and "canon" (a
	// symmetric system with the per-permutation cache read at every
	// decision point). Steady-state steps must allocate nothing in all
	// of them — the fingerprint vectors are Scratch-backed and fixed
	// size, so extra steps only recompute into existing buffers.
	modes := []struct {
		name  string
		canon bool
		read  bool
	}{
		{name: "lazy"},
		{name: "on", read: true},
		{name: "canon", canon: true, read: true},
	}
	for _, mode := range modes {
		t.Run(mode.name, func(t *testing.T) {
			sc := sim.NewScratch()
			var canon *sim.Canonicalizer
			if mode.canon {
				probe := symLoopMachines(1, 3)
				var err error
				canon, err = sim.NewCanonicalizer(probe, probe.SymmetrySpec())
				if err != nil {
					t.Fatal(err)
				}
			}
			var sys *sim.System
			rr := 0
			sched := sim.SchedulerFunc(func(ready []sim.ProcID, _ int) sim.ProcID {
				if mode.read {
					if mode.canon {
						sys.StateHashCanon()
					} else if _, ok := sys.StateHash(); !ok {
						t.Fatal("fingerprint unavailable mid-run")
					}
				}
				rr++
				return ready[rr%len(ready)]
			})
			allocs := func(rounds int) float64 {
				return testing.AllocsPerRun(20, func() {
					if mode.canon {
						sys = symLoopMachines(rounds, 3)
					} else {
						sys = casLoopMachines(rounds)
					}
					_, err := sys.Run(sim.Config{
						Scheduler:    sched,
						Fingerprint:  true,
						Canon:        canon,
						DisableTrace: true,
						Scratch:      sc,
					})
					if err != nil {
						t.Fatal(err)
					}
				})
			}
			// Min-of-two measurements, and a fail threshold of 2: under
			// -race the runtime's type-switch/assert cache builds and
			// GC-timed fmt-pool refills add a few rounds-INDEPENDENT
			// stray allocations per block, which AllocsPerRun's integer
			// division can turn into a spurious 1.0 delta. Any real
			// steady-state allocation is per step (+768/run here) or at
			// least per round (+64/run) — orders of magnitude above the
			// threshold.
			min2 := func(rounds int) float64 {
				a, b := allocs(rounds), allocs(rounds)
				if b < a {
					return b
				}
				return a
			}
			short := min2(32)
			long := min2(96)
			if delta := long - short; delta >= 2 {
				t.Fatalf("extra machine steps allocate %.1f objects, want 0 (short=%.1f long=%.1f)",
					delta, short, long)
			}
		})
	}
}

// TestMachineSnapshotRestoreAllocFree is the same differential guard for
// in-place backtracking: a Snapshot+Restore pair at every decision
// point — what an explorer does before and after each edge — must
// allocate nothing once the arena has grown. Restoring the snapshot
// just taken leaves the execution unchanged, so the runs are the
// ordinary casLoop/symLoop runs plus 256 extra pairs.
func TestMachineSnapshotRestoreAllocFree(t *testing.T) {
	for _, canon := range []bool{false, true} {
		t.Run(fmt.Sprintf("canon=%v", canon), func(t *testing.T) {
			sc := sim.NewScratch()
			var c *sim.Canonicalizer
			if canon {
				probe := symLoopMachines(1, 3)
				var err error
				if c, err = sim.NewCanonicalizer(probe, probe.SymmetrySpec()); err != nil {
					t.Fatal(err)
				}
			}
			var (
				me   *sim.MachineExec
				snap sim.Snap
				rr   int
			)
			sched := sim.SchedulerFunc(func(ready []sim.ProcID, _ int) sim.ProcID {
				snap.Reset()
				me.Snapshot(&snap)
				me.Restore(snap.ReaderAt(0, 0))
				rr++
				return ready[rr%len(ready)]
			})
			allocs := func(rounds int) float64 {
				return testing.AllocsPerRun(20, func() {
					sys := casLoopMachines(rounds)
					if canon {
						sys = symLoopMachines(rounds, 3)
					}
					var err error
					me, err = sys.StartMachines(sim.Config{
						Scheduler: sched, Fingerprint: true, Canon: c, DisableTrace: true, Scratch: sc,
					})
					if err != nil {
						t.Fatal(err)
					}
					if _, err := me.Run(); err != nil {
						t.Fatal(err)
					}
				})
			}
			// Min-of-two with a threshold of 2, as in TestMachineStepAllocFree.
			min2 := func(rounds int) float64 { return min(allocs(rounds), allocs(rounds)) }
			short, long := min2(32), min2(96)
			if delta := long - short; delta >= 2 {
				t.Fatalf("extra snapshot/restore pairs allocate %.1f objects, want 0 (short=%.1f long=%.1f)",
					delta, short, long)
			}
		})
	}
}

// TestMachineSnapshotMidRun snapshots at an interior decision point
// (from inside the scheduler, where the state is quiescent), runs to
// completion, restores, and completes again under the same stateless
// schedule: the two completions must agree bit-for-bit.
func TestMachineSnapshotMidRun(t *testing.T) {
	var (
		me   *sim.MachineExec
		snap sim.Snap
		took bool
	)
	snapAt := sim.SchedulerFunc(func(ready []sim.ProcID, step int) sim.ProcID {
		if step == 7 && !took {
			took = true
			me.Snapshot(&snap)
		}
		return ready[step%len(ready)]
	})
	sys := casLoopMachines(6)
	var err error
	me, err = sys.StartMachines(sim.Config{
		Scheduler:    snapAt,
		Fingerprint:  true,
		DisableTrace: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	res1, err := me.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !took {
		t.Fatal("snapshot point never reached")
	}
	fp1, _ := sys.StateHash()
	v1 := fmt.Sprint(res1.Values)
	me.Restore(snap.ReaderAt(0, 0))
	res2, err := me.Run()
	if err != nil {
		t.Fatal(err)
	}
	if fp2, _ := sys.StateHash(); fp2 != fp1 || fmt.Sprint(res2.Values) != v1 {
		t.Fatalf("mid-run restore diverged: %x %v vs %x %v", fp2, res2.Values, fp1, v1)
	}
}
