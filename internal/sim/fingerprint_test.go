package sim_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/consensus"
	"repro/internal/faults"
	"repro/internal/objects"
	"repro/internal/sim"
)

// buildSymCASMachines is buildSymCAS on the sim.Machine port, so the
// incremental canon vectors are exercised on the direct-dispatch path
// (including through Snapshot/Restore in the backtracking test below).
func buildSymCASMachines(k, n int) func() *sim.System {
	spec := consensus.CASSymmetric(n)
	props := make([]sim.Value, n)
	for i := range props {
		props[i] = 100 + i
	}
	return func() *sim.System {
		sys := sim.NewSystem()
		cas := objects.NewCAS("cas", k)
		sys.Add(cas)
		for _, m := range consensus.CASMachines(sys, cas, props) {
			sys.SpawnMachine(m)
		}
		sys.DeclareSymmetry(spec)
		return sys
	}
}

// buildFaultyCAS wraps the CAS loop's register in the fault proxy so
// injected object faults (state resets, garbled answers, permanent
// object death) hit the incremental object components.
func buildFaultyCAS(rounds int) func() *sim.System {
	return func() *sim.System {
		sys := sim.NewSystem()
		fc := faults.Wrap(objects.NewCAS("c", 4))
		sys.Add(fc)
		sys.SpawnN(2, func(id sim.ProcID) sim.Program {
			return func(e *sim.Env) (sim.Value, error) {
				for r := 0; r < rounds; r++ {
					e.Apply2(fc, objects.OpCAS, objects.Bottom, objects.Symbol(int(id)+1))
					e.Apply0(fc, sim.OpRead)
				}
				return int(id), nil
			}
		})
		return sys
	}
}

// TestIncrementalFingerprintMatchesRecompute is the soundness gate of
// the incremental fingerprint cache: across randomized schedules,
// random crash injections, object-fault injections and symmetry
// canonicalization, for Programs and Machines, the incrementally
// maintained fingerprints must equal a from-scratch recompute at EVERY
// decision point. Config.VerifyFingerprints performs the comparison inside
// StateHash/StateHashCanon and panics on divergence; the scheduler here
// forces a read at every decision so no dirty-flush path goes
// unchecked. Run under -race via scripts/verify.sh.
func TestIncrementalFingerprintMatchesRecompute(t *testing.T) {
	type family struct {
		name  string
		build func() *sim.System
		canon bool
		fault bool
	}
	families := []family{
		{name: "cas-loop-program", build: func() *sim.System { return casLoop(6) }},
		{name: "cas-loop-machine", build: func() *sim.System { return casLoopMachines(6) }},
		{name: "faulty-cas-program", build: buildFaultyCAS(6), fault: true},
		{name: "sym-consensus-program", build: buildSymCAS(4, 3), canon: true},
		{name: "sym-consensus-machine", build: buildSymCASMachines(4, 3), canon: true},
	}
	modes := []sim.FaultMode{sim.FaultOmission, sim.FaultReset, sim.FaultGarble, sim.FaultCrash}
	for _, fam := range families {
		t.Run(fam.name, func(t *testing.T) {
			var canon *sim.Canonicalizer
			if fam.canon {
				probe := fam.build()
				var err error
				canon, err = sim.NewCanonicalizer(probe, probe.SymmetrySpec())
				if err != nil {
					t.Fatalf("NewCanonicalizer: %v", err)
				}
			}
			rng := rand.New(rand.NewSource(0xfb0a + int64(len(fam.name))))
			for trial := 0; trial < 40; trial++ {
				sys := fam.build()
				// Read both keyspaces at every decision point; with
				// VerifyFingerprints on, each read cross-checks the
				// cache against a from-scratch recompute.
				sched := sim.SchedulerFunc(func(ready []sim.ProcID, _ int) sim.ProcID {
					if _, ok := sys.StateHash(); !ok {
						t.Fatal("fingerprint unavailable mid-run")
					}
					sys.StateHashCanon()
					return ready[rng.Intn(len(ready))]
				})
				cfg := sim.Config{
					Scheduler:          sched,
					Fingerprint:        true,
					Canon:              canon,
					VerifyFingerprints: true,
					DisableTrace:       true,
				}
				if trial%2 == 1 {
					cfg.Faults = sim.RandomCrashes(int64(trial), 0.05, 1)
				}
				if fam.fault {
					inject := map[int]sim.FaultMode{
						rng.Intn(16): modes[trial%len(modes)],
					}
					cfg.ObjectFaults = sim.FaultAtSteps(inject)
				}
				if _, err := sys.Run(cfg); err != nil {
					t.Fatalf("trial %d: %v", trial, err)
				}
				// Final states verify too (buildResult's read above ran
				// unchecked paths only if the run took zero steps).
				if _, ok := sys.StateHash(); !ok {
					t.Fatalf("trial %d: final fingerprint unavailable", trial)
				}
				sys.StateHashCanon()
			}
		})
	}
}

// TestFingerprintSnapshotRestore drives the in-place backtracking
// primitive with VerifyFingerprints armed on a SYMMETRIC machine
// system: snapshot mid-run, finish, restore, finish again — every
// post-restore decision point re-verifies the incremental plain AND
// canon vectors against from-scratch recomputes, pinning that Restore
// rolls the whole cache (canon vectors included) back with the state.
func TestFingerprintSnapshotRestore(t *testing.T) {
	build := buildSymCASMachines(4, 3)
	probe := build()
	canon, err := sim.NewCanonicalizer(probe, probe.SymmetrySpec())
	if err != nil {
		t.Fatalf("NewCanonicalizer: %v", err)
	}
	for _, snapStep := range []int{0, 3, 7} {
		t.Run(fmt.Sprintf("snap-at-%d", snapStep), func(t *testing.T) {
			var (
				me   *sim.MachineExec
				snap sim.Snap
				took bool
			)
			sys := build()
			sched := sim.SchedulerFunc(func(ready []sim.ProcID, step int) sim.ProcID {
				sys.StateHashCanon() // verified read at every decision
				if step == snapStep && !took {
					took = true
					me.Snapshot(&snap)
				}
				return ready[step%len(ready)]
			})
			me, err = sys.StartMachines(sim.Config{
				Scheduler:          sched,
				Fingerprint:        true,
				Canon:              canon,
				VerifyFingerprints: true,
				DisableTrace:       true,
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
				t.Fatalf("restored run differs: %x %v vs %x %v",
					fp2, res2.Values, fp1, v1)
			}
		})
	}
}
