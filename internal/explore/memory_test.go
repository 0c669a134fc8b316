package explore_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/censusd"
	"repro/internal/explore"
	"repro/internal/sim"
)

// casBuilder is the cas protocol's builder, as censusd and cmd/explore
// build it.
func casBuilder(t *testing.T, k, n int) explore.Builder {
	t.Helper()
	req := censusd.Request{Protocol: "cas", K: k, N: n}
	if err := req.Normalize(); err != nil {
		t.Fatal(err)
	}
	b, _, err := req.Build()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestOutcomeIDRenamesMatchRenameOutcome: the memoized ID renames the
// table uses must agree with the spec's string RenameOutcome for every
// one of the 120 permutations of the cas n=5 spec, in both directions,
// on every decision key the protocol can produce — also when the memo
// is extended by keys interned after it was first built.
func TestOutcomeIDRenamesMatchRenameOutcome(t *testing.T) {
	probe := casBuilder(t, 6, 5)()
	spec := probe.SymmetrySpec()
	canon, err := sim.NewCanonicalizer(probe, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Perms) != 120 {
		t.Fatalf("cas n=5 spec has %d permutations, want 120", len(spec.Perms))
	}
	// Every multiset of one to five decisions among 100..104.
	var keys []string
	var gen func(vals []int, from int)
	gen = func(vals []int, from int) {
		if len(vals) > 0 {
			keys = append(keys, fmt.Sprint(vals))
		}
		if len(vals) == 5 {
			return
		}
		for v := from; v < 105; v++ {
			gen(append(vals, v), v)
		}
	}
	gen(nil, 100)
	rename := explore.OutcomeIDRenamer(canon)
	for _, upto := range []int{len(keys) / 3, len(keys)} {
		for k, perm := range spec.Perms {
			inv := make([]sim.ProcID, len(perm))
			for i, p := range perm {
				inv[p] = sim.ProcID(i)
			}
			for _, back := range []bool{false, true} {
				p := perm
				if back {
					p = inv
				}
				got := rename(keys[:upto], k, back)
				for i, key := range keys[:upto] {
					if want := spec.RenameOutcome(key, p); got[i] != want {
						t.Fatalf("perm %d %v (inverse %v): ID rename of %s = %s, RenameOutcome = %s",
							k, perm, back, key, got[i], want)
					}
				}
			}
		}
	}
}

// TestPrunedValenceMatchesUnpruned: Valence and BivalencePath read off
// pruned censuses must agree with the unpruned walks on the engine
// matrix and on a symmetric cas instance. Where MaxRuns binds, the
// pruned valence may only see more.
func TestPrunedValenceMatchesUnpruned(t *testing.T) {
	type vcase struct {
		name string
		b    explore.Builder
		opts explore.Options
	}
	var cases []vcase
	for _, tc := range engineMatrix() {
		cases = append(cases, vcase{tc.name, tc.b, tc.opts})
	}
	cases = append(cases, vcase{"cas-k4-n3", casBuilder(t, 4, 3), explore.Options{}})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := explore.Valence(tc.b, tc.opts, nil)
			wantPath, wantStill := explore.BivalencePath(tc.b, tc.opts, 6)
			for _, tunes := range [][]explore.Tune{
				{explore.WithPrune()},
				{explore.WithPrune(), explore.WithSleepSets()},
				{explore.WithSymmetry(), explore.WithSleepSets()},
				{explore.WithPrune(), explore.WithPruneBudget(16)},
			} {
				opts := tc.opts.With(tunes...)
				got := explore.Valence(tc.b, opts, nil)
				if tc.opts.MaxRuns != 0 {
					for _, fp := range want {
						if !contains(got, fp) {
							t.Fatalf("capped pruned valence %v (tunes %d) misses %s of the unpruned %v", got, len(tunes), fp, want)
						}
					}
					continue
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("pruned valence %v (tunes %d), unpruned %v", got, len(tunes), want)
				}
				path, still := explore.BivalencePath(tc.b, opts, 6)
				if still != wantStill || !reflect.DeepEqual(path, wantPath) {
					t.Fatalf("pruned bivalence path %s (still %v, tunes %d), unpruned %s (still %v)",
						explore.FormatSchedule(path), still, len(tunes), explore.FormatSchedule(wantPath), wantStill)
				}
			}
		})
	}
}

func contains(set []string, s string) bool {
	for _, x := range set {
		if x == s {
			return true
		}
	}
	return false
}

// TestLostPublishes: a publish refused because another worker stored
// the key first is counted. A sequential census never loses one; a
// pooled census stores or loses at most one publish per miss, since
// only a frame that missed can publish.
func TestLostPublishes(t *testing.T) {
	b := casdegBuilder(t)
	opts := explore.Options{MaxCrashes: 1, ObjectFaults: 1, FaultModes: allFaultModes}.With(explore.WithPrune())
	if st := explore.Run(b, opts, nil).Prune; st.LostPublishes != 0 || st.Stores != st.Misses {
		t.Fatalf("sequential census: %+v, want no lost publishes and a store per miss", st)
	}
	check := func(label string) {
		t.Helper()
		for i := 0; i < 3; i++ {
			st := explore.Run(b, opts.With(explore.WithWorkers(2)), nil).Prune
			if st.Stores+st.LostPublishes > st.Misses {
				t.Fatalf("%s: stores %d + lost publishes %d exceed misses %d", label, st.Stores, st.LostPublishes, st.Misses)
			}
		}
	}
	check("pooled")
	explore.ForceDonation(t)
	check("pooled, forced donation")
}

// casdegBuilder is consensus over the degrading compare&swap-(3) among
// two processes, as censusd builds it.
func casdegBuilder(t *testing.T) explore.Builder {
	t.Helper()
	req := censusd.Request{Protocol: "casdeg", K: 3, N: 2, ObjFaults: 1}
	if err := req.Normalize(); err != nil {
		t.Fatal(err)
	}
	b, _, err := req.Build()
	if err != nil {
		t.Fatal(err)
	}
	return b
}
