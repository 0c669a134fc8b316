package explore_test

import (
	"context"
	"testing"

	"repro/internal/consensus"
	"repro/internal/election"
	"repro/internal/explore"
	"repro/internal/objects"
	"repro/internal/sim"
)

// TestOrbitSkipsSymmetricRoots: a parallel symmetric census must skip
// symmetric frontier roots at generation time — OrbitSkips > 0 on the
// fully symmetric protocols — while every census number stays
// bit-identical to the plain unreduced walk (the orbit credit is the
// same renamed-summary translation a table hit performs, applied
// before the root is ever enqueued).
func TestOrbitSkipsSymmetricRoots(t *testing.T) {
	protocols := []struct {
		name string
		run  func(tunes ...explore.Tune) *explore.Census
	}{
		{"election-direct-cas", func(tunes ...explore.Tune) *explore.Census {
			return election.CensusDirect(4, 3, 0, tunes...)
		}},
		{"consensus-cas", func(tunes ...explore.Tune) *explore.Census {
			return consensus.CensusCAS(3, 2, 0, tunes...)
		}},
		// The queue census is deliberately absent: its post-prefix
		// states carry order-sensitive queue contents, so frontier
		// roots rarely share an orbit — bit-identity for it is pinned
		// by TestReducedCensusMatchesUnreduced instead.
	}
	for _, p := range protocols {
		t.Run(p.name, func(t *testing.T) {
			want := p.run() // plain replay walk: ground truth
			got := p.run(explore.WithSymmetry(), explore.WithWorkers(4))
			assertCensusEqual(t, "orbit", got, want)
			st := got.Prune
			if st == nil || !st.SymmetryOn {
				t.Fatalf("symmetric parallel census has no active symmetry stats: %+v", st)
			}
			if st.OrbitSkips == 0 {
				t.Fatal("fully symmetric frontier produced zero orbit skips")
			}
			t.Logf("orbit skips: %d (hits %d, sym hits %d)", st.OrbitSkips, st.Hits, st.SymmetryHits)
		})
	}
}

// symmetricCASBuilder is a 2-process CAS consensus builder with its
// symmetry spec declared — the smallest protocol whose frontier has
// nontrivial orbits — for the seated orbit tests below.
func symmetricCASBuilder() explore.Builder {
	props := []sim.Value{100, 101}
	spec := consensus.CASSymmetric(2)
	return func() *sim.System {
		sys := sim.NewSystem()
		cas := objects.NewCAS("cas", 3)
		sys.Add(cas)
		for _, m := range consensus.CASMachines(sys, cas, props) {
			sys.SpawnMachine(m)
		}
		sys.DeclareSymmetry(spec)
		return sys
	}
}

// TestDistPlanOrbitSkips: under a resolved symmetry spec the roots a
// remote seat leases must shrink to orbit representatives, and the
// census folded from only their delivered summaries must still
// reproduce the full census bit for bit — orbit-aware generation where
// the coordinator's transposition table sees none of the walks.
func TestDistPlanOrbitSkips(t *testing.T) {
	b := symmetricCASBuilder()
	opts := explore.Options{MaxCrashes: 1, Workers: 2}
	want := explore.Run(b, opts, nil)

	symOpts := opts
	symOpts.Symmetry = true
	var plain, reps int
	seated(t, b, opts, nil, func(seat *explore.RemoteSeat, leases []explore.Claim) {
		plain = len(leases)
		deliverAll(t, b, opts, nil, "")(seat, leases)
	})
	got := seated(t, b, symOpts, nil, func(seat *explore.RemoteSeat, leases []explore.Claim) {
		reps = len(leases)
		deliverAll(t, b, symOpts, nil, "")(seat, leases)
	})
	if reps >= plain {
		t.Fatalf("the orbit plan leased %d roots, the plain plan %d — no generation-time skips", reps, plain)
	}
	assertCensusCountsEqual(t, "orbit-dist", got, want)
	if got.Prune == nil || got.Prune.OrbitSkips == 0 {
		t.Fatalf("orbit census reported no skips: %+v", got.Prune)
	}
	t.Logf("leased roots %d -> %d, orbit skips %d", plain, reps, got.Prune.OrbitSkips)
}

// TestDistPlanOrbitRepFailure: a twin whose representative was lost
// must degrade exactly like the representative itself — a coverage
// deficit, never a silently wrong count and never a spurious
// cancellation.
func TestDistPlanOrbitRepFailure(t *testing.T) {
	b := symmetricCASBuilder()
	opts := explore.Options{MaxCrashes: 1, Workers: 2, Symmetry: true}
	want := explore.Run(b, opts, nil)
	var lost explore.RootSummary
	c := seated(t, b, opts, nil, func(seat *explore.RemoteSeat, leases []explore.Claim) {
		var err error
		if lost, _, err = explore.ExploreSubtree(context.Background(), b, opts, nil, leases[0].Prefix, explore.Checkpoint{}, nil); err != nil {
			t.Fatal(err)
		}
		lose(t, seat, leases[0])
		deliverAll(t, b, opts, nil, "")(seat, leases[1:])
	})
	if c.Exhaustive || c.Cancelled {
		t.Fatalf("failed-rep census: exhaustive=%v cancelled=%v, want false/false", c.Exhaustive, c.Cancelled)
	}
	if len(c.Errors) != 1 {
		t.Fatalf("failed-rep census recorded %d errors, want 1", len(c.Errors))
	}
	// The deficit is the rep's subtree and its twins', not the rep's alone.
	if deficit := want.Complete - c.Complete; deficit <= lost.Complete {
		t.Fatalf("failed-rep census is short %d complete runs, the lost rep's own subtree %d: its twins were credited",
			deficit, lost.Complete)
	}
}
