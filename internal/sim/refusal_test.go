package sim_test

import (
	"strings"
	"testing"

	"repro/internal/consensus"
	"repro/internal/election"
	"repro/internal/objects"
	"repro/internal/sim"
)

// plainReg is an object with a plain state fold but no symmetry-aware
// one: a system holding it cannot be canonicalized.
type plainReg struct{ v sim.Value }

func (r *plainReg) Name() string { return "plain" }
func (r *plainReg) Apply(_ sim.ProcID, _ sim.OpKind, _ []sim.Value) (sim.Value, error) {
	return r.v, nil
}
func (r *plainReg) FoldState(h sim.Hash) sim.Hash { return h.FoldValue(r.v) }

// withPerms is the CAS consensus spec for n=3 with its permutation set
// replaced.
func withPerms(perms ...[]sim.ProcID) *sim.Symmetry {
	spec := *consensus.CASSymmetric(3)
	spec.Perms = perms
	return &spec
}

// TestCanonicalizerRefusals drives every refusal of NewCanonicalizer
// and pins its error text, plus two proper subgroups of S_3 that must
// be accepted: a set smaller than n! is checked for closure pair by
// pair.
func TestCanonicalizerRefusals(t *testing.T) {
	id3 := []sim.ProcID{0, 1, 2}
	cycle := []sim.ProcID{1, 2, 0}
	cycle2 := []sim.ProcID{2, 0, 1}
	swap01 := []sim.ProcID{1, 0, 2}
	casSys := buildSymCAS(4, 3)
	cases := []struct {
		name string
		sys  func() *sim.System
		spec *sim.Symmetry
		want string // "" means accepted
	}{
		{name: "nil-spec", sys: casSys, spec: nil,
			want: "sim: symmetry: empty permutation set"},
		{name: "empty-set", sys: casSys, spec: withPerms(),
			want: "sim: symmetry: empty permutation set"},
		{name: "no-processes", sys: sim.NewSystem, spec: withPerms(id3),
			want: "sim: symmetry: system has no processes"},
		{name: "wrong-length", sys: casSys, spec: withPerms(id3, []sim.ProcID{1, 0}),
			want: "sim: symmetry: permutation 1 has length 2, system has 3 processes"},
		{name: "not-a-bijection", sys: casSys, spec: withPerms(id3, []sim.ProcID{0, 0, 2}),
			want: "sim: symmetry: permutation 1 ([0 0 2]) is not a bijection of 0..2"},
		{name: "out-of-range", sys: casSys, spec: withPerms(id3, []sim.ProcID{0, 3, 1}),
			want: "sim: symmetry: permutation 1 ([0 3 1]) is not a bijection of 0..2"},
		{name: "duplicate", sys: casSys, spec: withPerms(id3, swap01, swap01),
			want: "sim: symmetry: duplicate permutation [1 0 2]"},
		{name: "identity-not-first", sys: casSys, spec: withPerms(swap01, id3),
			want: "sim: symmetry: Perms[0] must be the identity, got [1 0 2]"},
		{name: "not-closed", sys: casSys, spec: withPerms(id3, cycle),
			want: "sim: symmetry: permutation set not closed under composition ([1 2 0]∘[1 2 0] missing)"},
		{name: "no-perm-state-folder",
			sys: func() *sim.System {
				sys := sim.NewSystem()
				sys.Add(&plainReg{})
				sys.SpawnN(2, func(sim.ProcID) sim.Program {
					return func(*sim.Env) (sim.Value, error) { return nil, nil }
				})
				return sys
			},
			spec: &sim.Symmetry{Perms: sim.FullPerms(2)},
			want: `sim: symmetry: object "plain" does not implement PermStateFolder`},
		{name: "rename-onto-non-object", sys: casSys,
			spec: func() *sim.Symmetry {
				spec := withPerms(sim.FullPerms(3)...)
				spec.RenameObject = func(string, []sim.ProcID) string { return "nope" }
				return spec
			}(),
			want: `sim: symmetry: RenameObject maps "cas" to "nope", which is not an object of the system`},
		{name: "rename-not-injective", sys: casSys,
			spec: func() *sim.Symmetry {
				spec := withPerms(sim.FullPerms(3)...)
				spec.RenameObject = func(string, []sim.ProcID) string { return "cas" }
				return spec
			}(),
			want: `sim: symmetry: RenameObject is not a bijection (two objects map to "cas")`},
		{name: "accept-transposition-subgroup", sys: casSys, spec: withPerms(id3, swap01)},
		{name: "accept-cyclic-subgroup", sys: casSys, spec: withPerms(id3, cycle, cycle2)},
		{name: "accept-full-group", sys: casSys, spec: withPerms(sim.FullPerms(3)...)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := sim.NewCanonicalizer(tc.sys(), tc.spec)
			if tc.want == "" {
				if err != nil {
					t.Fatalf("refused a group: %v", err)
				}
				if c.NumPerms() != len(tc.spec.Perms) {
					t.Fatalf("NumPerms = %d, want %d", c.NumPerms(), len(tc.spec.Perms))
				}
				return
			}
			if err == nil {
				t.Fatalf("accepted; want refusal %q", tc.want)
			}
			if err.Error() != tc.want {
				t.Fatalf("refusal = %q, want %q", err.Error(), tc.want)
			}
		})
	}
}

// lossyDecision is a decision value whose state fold forgets it, so two
// runs can fold equal while deciding differently.
type lossyDecision struct{ v int }

func (lossyDecision) FoldValue(h sim.Hash) sim.Hash { return h }

// fetchAddProcs builds a two-process system over one fetch&add counter
// (which holds no process identity). Process i performs ops[i]
// fetch&adds and decides decide(i, last result).
func fetchAddProcs(ops [2]int, decide func(id, prev int) sim.Value, spec *sim.Symmetry) func() *sim.System {
	return func() *sim.System {
		sys := sim.NewSystem()
		fa := objects.NewFetchAdd("fa", 0)
		sys.Add(fa)
		sys.SpawnN(2, func(id sim.ProcID) sim.Program {
			return func(e *sim.Env) (sim.Value, error) {
				prev := 0
				for i := 0; i < ops[id]; i++ {
					prev = fa.FetchAdd(e, 1)
				}
				return decide(int(id), prev), nil
			}
		})
		sys.DeclareSymmetry(spec)
		return sys
	}
}

// TestAuditSymmetryRefusals drives every refusal branch of
// AuditSymmetry with a spec that passes structural validation but
// breaks the equivariance contract in one specific way.
func TestAuditSymmetryRefusals(t *testing.T) {
	swap := &sim.Symmetry{Perms: sim.FullPerms(2)}
	direct := election.DirectSymmetric(3)
	noOutcome := *direct
	noOutcome.RenameOutcome = nil
	identityOutcome := *direct
	identityOutcome.RenameOutcome = func(key string, _ []sim.ProcID) string { return key }
	directWith := func(spec *sim.Symmetry) func() *sim.System {
		return func() *sim.System {
			sys := buildSymDirect(4, 3)()
			sys.DeclareSymmetry(spec)
			return sys
		}
	}
	cases := []struct {
		name  string
		build func() *sim.System
		want  string // substring of the refusal; "" means accepted
	}{
		{name: "renamed-pick-not-ready",
			build: fetchAddProcs([2]int{2, 1}, func(int, int) sim.Value { return 0 }, swap),
			want:  "renamed pick not ready"},
		{name: "state-fold-mismatch",
			build: func() *sim.System {
				sys := sim.NewSystem()
				sw := objects.NewSwap("sw", nil)
				sys.Add(sw)
				sys.SpawnN(2, func(id sim.ProcID) sim.Program {
					return func(e *sim.Env) (sim.Value, error) {
						e.Apply1(sw, objects.OpSwap, 7+int(id))
						return 0, nil
					}
				})
				sys.DeclareSymmetry(swap)
				return sys
			},
			want: "state fold mismatch"},
		{name: "rename-value-decision-mismatch",
			build: fetchAddProcs([2]int{1, 1}, func(id, prev int) sim.Value {
				return lossyDecision{10*id + prev}
			}, swap),
			want: "RenameValue maps decisions"},
		{name: "decisions-change-without-rename-outcome",
			build: directWith(&noOutcome),
			want:  "decisions are permutation-sensitive"},
		{name: "rename-outcome-mismatch",
			build: directWith(&identityOutcome),
			want:  "RenameOutcome maps"},
		{name: "accept-declared-spec", build: directWith(direct)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			probe := tc.build()
			c, err := sim.NewCanonicalizer(probe, probe.SymmetrySpec())
			if err != nil {
				t.Fatalf("NewCanonicalizer: %v", err)
			}
			err = sim.AuditSymmetry(tc.build, c, 3, 64)
			if tc.want == "" {
				if err != nil {
					t.Fatalf("audit refused a symmetric spec: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("audit accepted; want a refusal containing %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("refusal = %q, want it to contain %q", err.Error(), tc.want)
			}
		})
	}
}
