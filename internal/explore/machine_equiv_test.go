package explore_test

import (
	"fmt"
	"testing"

	"repro/internal/censusd"
	"repro/internal/consensus"
	"repro/internal/election"
	"repro/internal/explore"
	"repro/internal/faults"
	"repro/internal/objects"
	"repro/internal/registers"
	"repro/internal/sim"
)

// TestMachineCensusMatchesGoroutine is the soundness matrix for the
// in-place machine DFS: every protocol census — run counts, outcome
// histograms, violation counts — must equal the census folded from
// VisitReplay, which rebuilds the system for every tree node and shares
// neither snapshots nor the prober with the engine, across the reducer
// and fault dimensions, sequentially and under forced-donation work
// stealing. Run under -race in the tier-1 suite.
func TestMachineCensusMatchesGoroutine(t *testing.T) {
	explore.ForceDonation(t)
	type protocol struct {
		name string
		// The oracle walks b under opts; census, when set, is the
		// production entry point for the same protocol, otherwise the
		// census is explore.Run over b.
		b      explore.Builder
		opts   explore.Options
		check  func(*sim.Result) error
		census func(tunes ...explore.Tune) *explore.Census
	}
	// registry resolves a protocol exactly as cmd/explore does.
	crashes := 1
	registry := func(name string, req censusd.Request, census func(...explore.Tune) *explore.Census) protocol {
		req.Crashes = &crashes
		if err := req.Normalize(); err != nil {
			t.Fatal(err)
		}
		b, props, err := req.Build()
		if err != nil {
			t.Fatal(err)
		}
		return protocol{name: name, b: b, opts: req.Options(), check: req.Check(props), census: census}
	}
	ids := []sim.Value{0, 1, 2}
	props := []sim.Value{100, 101}
	protocols := []protocol{
		{
			name: "election-direct-cas",
			b: func() *sim.System {
				sys := sim.NewSystem()
				cas := objects.NewCAS("cas", 4)
				sys.Add(cas)
				for _, m := range election.DirectCASMachines(cas, 4, 3) {
					sys.SpawnMachine(m)
				}
				return sys
			},
			opts:  explore.Options{MaxCrashes: 1},
			check: func(res *sim.Result) error { return election.CheckElection(res, ids) },
			census: func(tunes ...explore.Tune) *explore.Census {
				return election.CensusDirect(4, 3, 0, tunes...)
			},
		},
		registry("consensus-cas", censusd.Request{Protocol: "cas", K: 3, N: 2},
			func(tunes ...explore.Tune) *explore.Census { return consensus.CensusCAS(3, 2, 0, tunes...) }),
		registry("consensus-queue", censusd.Request{Protocol: "queue2"},
			func(tunes ...explore.Tune) *explore.Census { return consensus.CensusQueue(0, tunes...) }),
		registry("consensus-stickybit", censusd.Request{Protocol: "sticky", N: 3},
			func(tunes ...explore.Tune) *explore.Census { return consensus.CensusStickyBit(3, 0, tunes...) }),
		// Object-fault enumeration over the fault-wrapped degrading CAS:
		// the machine port must take the same degradation branches on the
		// same injected-fault placements.
		{
			name: "consensus-casdeg-faults",
			b: func() *sim.System {
				sys := sim.NewSystem()
				obj := faults.Wrap(objects.NewCAS("cas", 3))
				sys.Add(obj)
				for _, m := range consensus.DegradingCASMachines(sys, obj, props) {
					sys.SpawnMachine(m)
				}
				return sys
			},
			opts: explore.Options{
				MaxCrashes:   1,
				ObjectFaults: 1,
				FaultModes:   []sim.FaultMode{sim.FaultCrash, sim.FaultGarble},
			},
			check: func(res *sim.Result) error {
				if err := consensus.CheckAgreement(res); err != nil {
					return err
				}
				return consensus.CheckValidity(res, props)
			},
		},
		// Two cmd/explore instances, their flags as the base options:
		// -protocol cas -k 4 -n 2 -crashes 1 -prune -symmetry and
		// -protocol swap -n 3 -crashes 1 -symmetry (-workers 1).
		registry("cas-k4-n2-crash1-symmetry", censusd.Request{Protocol: "cas", K: 4, N: 2,
			Workers: 1, Prune: true, Symmetry: true}, nil),
		registry("swap-n3-crash1-symmetry", censusd.Request{Protocol: "swap", N: 3,
			Workers: 1, Symmetry: true}, nil),
	}

	configs := []struct {
		name  string
		tunes []explore.Tune
	}{
		{"plain", nil},
		{"reduced", []explore.Tune{explore.WithSymmetry(), explore.WithSleepSets()}},
		{"workers4", []explore.Tune{explore.WithWorkers(4)}},
	}
	for _, p := range protocols {
		t.Run(p.name, func(t *testing.T) {
			if !p.b().Snapshotable() {
				t.Fatal("builder is not snapshotable: the census would not run the in-place DFS")
			}
			want := replayCensus(p.b, p.opts, p.check)
			if !want.Exhaustive {
				t.Fatal("replay walk was capped")
			}
			for _, c := range configs {
				var got *explore.Census
				if p.census != nil {
					got = p.census(c.tunes...)
				} else {
					got = explore.Run(p.b, p.opts.With(c.tunes...), p.check)
				}
				assertCensusEqual(t, c.name, got, want)
			}
		})
	}
}

// replayCensus folds every run VisitReplay visits into the census
// fields assertCensusEqual compares.
func replayCensus(b explore.Builder, opts explore.Options, check func(*sim.Result) error) *explore.Census {
	c := &explore.Census{Outcomes: make(map[string]int)}
	_, c.Exhaustive = explore.VisitReplay(b, opts, func(o explore.Outcome) bool {
		if o.Result.Halted {
			c.Incomplete++
			return true
		}
		c.Complete++
		c.Outcomes[explore.DecisionFingerprint(o.Result)]++
		if check != nil && check(o.Result) != nil {
			c.ViolationRuns++
			if len(c.Violations) < explore.MaxRecordedViolations {
				c.Violations = append(c.Violations, o)
			}
		}
		return true
	})
	return c
}

// TestMachineProgramCensusAgree pins the cross-form claim end to end:
// a census over the hand-written Program protocol (rebuilt for every
// probe) and one over its machine port (on the in-place DFS) count the
// same tree — same totals, same outcome fingerprints.
func TestMachineProgramCensusAgree(t *testing.T) {
	props := []sim.Value{100, 101}
	check := func(res *sim.Result) error {
		if err := consensus.CheckAgreement(res); err != nil {
			return err
		}
		return consensus.CheckValidity(res, props)
	}
	programs := func() *sim.System {
		sys := sim.NewSystem()
		cas := objects.NewCAS("cas", 3)
		sys.Add(cas)
		for _, prog := range consensus.CASProtocol(sys, cas, props) {
			sys.Spawn(prog)
		}
		return sys
	}
	machines := func() *sim.System {
		sys := sim.NewSystem()
		cas := objects.NewCAS("cas", 3)
		sys.Add(cas)
		for _, m := range consensus.CASMachines(sys, cas, props) {
			sys.SpawnMachine(m)
		}
		return sys
	}
	opts := explore.Options{MaxCrashes: 1, Prune: true}
	want := explore.Run(programs, opts, check)
	got := explore.Run(machines, opts, check)
	assertCensusEqual(t, "program-vs-machine", got, want)
}

// TestWitnessMachinePortAgrees pins the hierarchy-witness port: the
// announce / swap-oracle / adopt protocol as a hand-written Program
// census against consensus.WitnessMachines (via SwapMachines's oracle
// shape but on the hierarchy's plain "ann" array), at both arities —
// n = 2 exercises the read-the-other-cell loser branch, n = 3 the
// smallest-announced scan.
func TestWitnessMachinePortAgrees(t *testing.T) {
	for _, n := range []int{2, 3} {
		props := make([]sim.Value, n)
		for i := range props {
			props[i] = 100 + i
		}
		check := func(res *sim.Result) error {
			if err := consensus.CheckAgreement(res); err != nil {
				return err
			}
			return consensus.CheckValidity(res, props)
		}
		programs := func() *sim.System {
			sys := sim.NewSystem()
			sw := objects.NewSwap("s", nil)
			sys.Add(sw)
			ann := registers.NewArray(sys, "ann", n, nil)
			sys.SpawnN(n, func(id sim.ProcID) sim.Program {
				return func(e *sim.Env) (sim.Value, error) {
					ann.Write(e, props[id])
					if sw.Swap(e, int(id)) == nil {
						return props[id], nil
					}
					if n == 2 {
						return ann.Read(e, 1-int(id)), nil
					}
					best := sim.Value(nil)
					for _, v := range ann.Collect(e) {
						if v == nil {
							continue
						}
						if best == nil || fmt.Sprint(v) < fmt.Sprint(best) {
							best = v
						}
					}
					return best, nil
				}
			})
			return sys
		}
		machines := func() *sim.System {
			sys := sim.NewSystem()
			sw := objects.NewSwap("s", nil)
			sys.Add(sw)
			ms := consensus.WitnessMachines(sys, "ann", props,
				func(i int) sim.MachineOp {
					return sim.MachineOp{Obj: sw, Op: objects.OpSwap, NArgs: 1, Args: [2]sim.Value{i}}
				},
				func(v sim.Value) bool { return v == nil })
			for _, m := range ms {
				sys.SpawnMachine(m)
			}
			return sys
		}
		opts := explore.Options{MaxCrashes: 1, Prune: true}
		want := explore.Run(programs, opts, check)
		got := explore.Run(machines, opts, check)
		assertCensusEqual(t, fmt.Sprintf("swap-witness/n=%d", n), got, want)
	}
}

// TestDegradeElectionMachinePortAgrees pins the degrading-election
// port under object-fault enumeration: election.DegradingCAS (Program,
// rebuilt for every probe) and election.DegradingCASMachines (in-place DFS)
// must census the same tree, degradation branches included.
func TestDegradeElectionMachinePortAgrees(t *testing.T) {
	const k, n = 3, 2
	ids := make([]sim.Value, n)
	for i := range ids {
		ids[i] = i
	}
	check := func(res *sim.Result) error { return election.CheckElection(res, ids) }
	programs := func() *sim.System {
		sys := sim.NewSystem()
		obj := faults.Wrap(objects.NewCAS("cas", k))
		sys.Add(obj)
		for _, p := range election.DegradingCAS(sys, obj, n) {
			sys.Spawn(p)
		}
		return sys
	}
	machines := func() *sim.System {
		sys := sim.NewSystem()
		obj := faults.Wrap(objects.NewCAS("cas", k))
		sys.Add(obj)
		for _, m := range election.DegradingCASMachines(sys, obj, n) {
			sys.SpawnMachine(m)
		}
		return sys
	}
	opts := explore.Options{
		MaxCrashes:   1,
		ObjectFaults: 1,
		FaultModes:   []sim.FaultMode{sim.FaultCrash, sim.FaultGarble},
		Prune:        true,
	}
	want := explore.Run(programs, opts, check)
	got := explore.Run(machines, opts, check)
	assertCensusEqual(t, "degrading-election", got, want)
}
