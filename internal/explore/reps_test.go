package explore_test

import (
	"errors"
	"testing"

	"repro/internal/explore"
	"repro/internal/sim"
)

// TestPooledCensusRecordsSequentialReps: with a donation forced at
// every backtrack, an unpruned 4-worker census must record the same
// violation schedules as the sequential census, in the same order: the
// first MaxRecordedViolations that Visit delivers in DFS order,
// whichever items found them and in whatever order those items
// resolved. The cases put violations deep in crash and fault branches,
// spread over several roots, and enumerate fault modes in a
// non-numeric order.
func TestPooledCensusRecordsSequentialReps(t *testing.T) {
	explore.ForceDonation(t)
	// Violations only where process 0 crashed: late in every node's
	// child order, so the first few sit in different subtrees.
	crashedZero := func(res *sim.Result) error {
		if res.Crashed[0] && len(res.DistinctDecisions()) > 1 {
			return errors.New("disagreement after a crash of process 0")
		}
		return nil
	}
	nameOrder := []sim.FaultMode{sim.FaultCrash, sim.FaultGarble, sim.FaultOmission, sim.FaultReset}
	for _, tc := range []struct {
		name  string
		b     explore.Builder
		opts  explore.Options
		check func(*sim.Result) error
	}{
		{"oneShot-3x3-crash0", oneShot(3, 3), explore.Options{MaxCrashes: 1}, crashedZero},
		{"oneShot-4x2-crash0", oneShot(4, 2), explore.Options{MaxCrashes: 1}, crashedZero},
		{"faulty-le3-crash1-fault1", faultyElection(3),
			explore.Options{MaxCrashes: 1, ObjectFaults: 1, FaultModes: nameOrder}, disagreement},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := explore.Run(tc.b, tc.opts, tc.check)
			if want.ViolationRuns <= explore.MaxRecordedViolations {
				t.Fatalf("only %d violations: too few to test the selection", want.ViolationRuns)
			}
			var first []string
			explore.Visit(tc.b, tc.opts, func(o explore.Outcome) bool {
				if !o.Result.Halted && tc.check(o.Result) != nil {
					first = append(first, explore.FormatSchedule(o.Schedule))
				}
				return len(first) < explore.MaxRecordedViolations
			})
			got := explore.Run(tc.b, tc.opts.With(explore.WithWorkers(4)), tc.check)
			if got.Complete != want.Complete || got.ViolationRuns != want.ViolationRuns || !got.Exhaustive {
				t.Fatalf("pooled census %d complete, %d violations, exhaustive=%v; sequential %d, %d",
					got.Complete, got.ViolationRuns, got.Exhaustive, want.Complete, want.ViolationRuns)
			}
			for label, c := range map[string]*explore.Census{"sequential": want, "pooled": got} {
				if len(c.Violations) != len(first) {
					t.Fatalf("%s census recorded %d violations, want %d", label, len(c.Violations), len(first))
				}
				for i, v := range c.Violations {
					if s := explore.FormatSchedule(v.Schedule); s != first[i] {
						t.Fatalf("%s violation %d is %s, DFS order has %s", label, i, s, first[i])
					}
				}
			}
		})
	}
}
