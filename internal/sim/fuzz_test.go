package sim_test

import (
	"testing"

	"repro/internal/objects"
	"repro/internal/sim"
)

// maxFuzzPerms caps the decoded permutation list (|S_4| = 24), so the
// pairwise closure check stays cheap per input.
const maxFuzzPerms = 30

// decodePerms reads a fuzz input as a process count n in 1..4 (first
// byte) and a list of candidate permutations, n bytes each; a trailing
// partial chunk becomes a short permutation. IDs are taken mod n+1, so
// the out-of-range ID n can appear.
func decodePerms(data []byte) (int, [][]sim.ProcID) {
	if len(data) == 0 {
		return 1, nil
	}
	n := int(data[0])%4 + 1
	var perms [][]sim.ProcID
	for rest := data[1:]; len(rest) > 0 && len(perms) < maxFuzzPerms; {
		m := min(n, len(rest))
		p := make([]sim.ProcID, m)
		for i, b := range rest[:m] {
			p[i] = sim.ProcID(int(b) % (n + 1))
		}
		perms = append(perms, p)
		rest = rest[m:]
	}
	return n, perms
}

// isGroupOracle decides by brute force, sharing no code with
// NewCanonicalizer, whether perms is a permutation group on n points
// listed without repeats and identity first.
func isGroupOracle(n int, perms [][]sim.ProcID) bool {
	if len(perms) == 0 {
		return false
	}
	isPerm := func(p []sim.ProcID) bool {
		if len(p) != n {
			return false
		}
		for v := 0; v < n; v++ {
			count := 0
			for _, x := range p {
				if int(x) == v {
					count++
				}
			}
			if count != 1 {
				return false
			}
		}
		return true
	}
	equal := func(a, b []sim.ProcID) bool {
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	for i, p := range perms {
		if !isPerm(p) {
			return false
		}
		for _, q := range perms[:i] {
			if equal(p, q) {
				return false
			}
		}
	}
	for i, x := range perms[0] {
		if int(x) != i {
			return false
		}
	}
	for _, a := range perms {
		for _, b := range perms {
			ab := make([]sim.ProcID, n)
			for i := range ab {
				ab[i] = a[b[i]]
			}
			found := false
			for _, c := range perms {
				if equal(ab, c) {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
	}
	return true
}

// FuzzNewCanonicalizer checks that NewCanonicalizer accepts a
// permutation list exactly when the brute-force oracle calls it a
// group, and that an accepted group keeps every listed permutation.
// The seed corpus is in testdata/fuzz/FuzzNewCanonicalizer.
func FuzzNewCanonicalizer(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		n, perms := decodePerms(data)
		sys := sim.NewSystem()
		sys.Add(objects.NewCAS("cas", n+1))
		sys.SpawnN(n, func(sim.ProcID) sim.Program {
			return func(*sim.Env) (sim.Value, error) { return nil, nil }
		})
		c, err := sim.NewCanonicalizer(sys, &sim.Symmetry{Perms: perms})
		want := isGroupOracle(n, perms)
		if (err == nil) != want {
			t.Fatalf("n=%d perms=%v: NewCanonicalizer error = %v, oracle says group = %v", n, perms, err, want)
		}
		if err == nil && c.NumPerms() != len(perms) {
			t.Fatalf("n=%d: NumPerms = %d, want %d", n, c.NumPerms(), len(perms))
		}
	})
}
