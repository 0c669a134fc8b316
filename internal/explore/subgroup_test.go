package explore_test

import (
	"testing"

	"repro/internal/consensus"
	"repro/internal/explore"
	"repro/internal/objects"
	"repro/internal/sim"
)

// TestSubgroupSymmetryMatchesUnreduced runs the CAS consensus census
// (k=4, n=3, one crash) under a spec whose group is a proper subgroup
// of S_3. The canonicalizer must accept it and fold only the declared
// permutations, and the census must count exactly what the unreduced
// walk counts.
func TestSubgroupSymmetryMatchesUnreduced(t *testing.T) {
	props := []sim.Value{100, 101, 102}
	groups := []struct {
		name  string
		perms [][]sim.ProcID
	}{
		{"transposition", [][]sim.ProcID{{0, 1, 2}, {1, 0, 2}}},
		{"cyclic", [][]sim.ProcID{{0, 1, 2}, {1, 2, 0}, {2, 0, 1}}},
	}
	check := func(res *sim.Result) error {
		if err := consensus.CheckAgreement(res); err != nil {
			return err
		}
		return consensus.CheckValidity(res, props)
	}
	builder := func(spec *sim.Symmetry) explore.Builder {
		return func() *sim.System {
			sys := sim.NewSystem()
			cas := objects.NewCAS("cas", 4)
			sys.Add(cas)
			for _, m := range consensus.CASMachines(sys, cas, props) {
				sys.SpawnMachine(m)
			}
			sys.DeclareSymmetry(spec)
			return sys
		}
	}
	want := explore.Run(builder(nil), explore.Options{MaxCrashes: 1}, check)
	for _, g := range groups {
		t.Run(g.name, func(t *testing.T) {
			spec := *consensus.CASSymmetric(3)
			spec.Perms = g.perms
			b := builder(&spec)
			for _, opts := range []explore.Options{
				{MaxCrashes: 1, Symmetry: true},
				{MaxCrashes: 1, Symmetry: true, SleepSets: true},
			} {
				got := explore.Run(b, opts, check)
				assertCensusEqual(t, g.name, got, want)
				st := got.Prune
				if st == nil || !st.SymmetryOn {
					t.Fatalf("symmetry off under a subgroup spec: %+v", st)
				}
				if st.SymmetryHits == 0 {
					t.Fatal("symmetry on but zero canonical hits")
				}
			}
		})
	}
}
