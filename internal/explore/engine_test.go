package explore_test

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/explore"
	"repro/internal/faults"
	"repro/internal/objects"
	"repro/internal/registers"
	"repro/internal/sim"
)

// The engine cross-check matrix: every (builder, options) pair the
// equivalence tests walk. It covers plain interleavings, crash
// branching (budget 1 and 2), object-fault branching (single- and
// multi-mode, alone and combined with crashes, against wrapped and
// unwrapped objects), step limits, depth-bound incomplete runs, and a
// protocol with real violations. The acceptance criterion is
// bit-identical behavior between the path engine (Visit), the replay
// reference engine (VisitReplay), the parallel walk, and the pruned
// census.
type engineCase struct {
	name  string
	b     explore.Builder
	opts  explore.Options
	check func(*sim.Result) error
}

func disagreement(res *sim.Result) error {
	if d := res.DistinctDecisions(); len(d) > 1 {
		return errors.New("disagreement")
	}
	return nil
}

// faultyElection is a degradation-aware leader election over a
// fault-wrapped compare&swap register: processes try the c&s path and,
// if the object has failed, race on a plain fallback register. It is
// the canonical builder for the object-fault matrix entries.
func faultyElection(n int) explore.Builder {
	return func() *sim.System {
		sys := sim.NewSystem()
		cas := faults.Wrap(objects.NewCAS("c", n+1))
		fb := registers.NewMWMR("fb", nil)
		sys.Add(cas)
		sys.Add(fb)
		sys.SpawnN(n, func(id sim.ProcID) sim.Program {
			return func(e *sim.Env) (sim.Value, error) {
				prev, ok := faults.TryApply(e, cas, objects.OpCAS, objects.Bottom, objects.Symbol(int(id)+1))
				if ok {
					if prev == objects.Bottom {
						return int(id), nil
					}
					return int(prev.(objects.Symbol)) - 1, nil
				}
				if v := fb.Read(e); v != nil {
					return v, nil
				}
				fb.Write(e, int(id))
				return int(id), nil
			}
		})
		return sys
	}
}

var allFaultModes = []sim.FaultMode{sim.FaultCrash, sim.FaultOmission, sim.FaultReset, sim.FaultGarble}

func engineMatrix() []engineCase {
	spinner := func() *sim.System {
		sys := sim.NewSystem()
		r := registers.NewMWMR("spin", 0)
		sys.Add(r)
		sys.SpawnN(2, func(id sim.ProcID) sim.Program {
			return func(e *sim.Env) (sim.Value, error) {
				for {
					r.Read(e)
				}
			}
		})
		return sys
	}
	return []engineCase{
		{name: "oneShot-2x2", b: oneShot(2, 2)},
		{name: "oneShot-3x2", b: oneShot(3, 2)},
		{name: "oneShot-2x3-crash1", b: oneShot(2, 3), opts: explore.Options{MaxCrashes: 1}},
		{name: "oneShot-2x2-crash2", b: oneShot(2, 2), opts: explore.Options{MaxCrashes: 2}},
		{name: "oneShot-2x3-steplimit", b: oneShot(2, 3), opts: explore.Options{MaxStepsPerProc: 2}},
		{name: "tas-consensus", b: tasConsensus([2]int{10, 20}), check: disagreement},
		{name: "tas-consensus-crash1", b: tasConsensus([2]int{10, 20}), opts: explore.Options{MaxCrashes: 1}, check: disagreement},
		{name: "rw-consensus", b: rwConsensusAttempt, check: disagreement},
		{name: "rw-consensus-crash1", b: rwConsensusAttempt, opts: explore.Options{MaxCrashes: 1}, check: disagreement},
		{name: "spinner-depth10", b: spinner, opts: explore.Options{MaxDepth: 10}},
		{name: "oneShot-3x2-capped", b: oneShot(3, 2), opts: explore.Options{MaxRuns: 25}},
		{name: "faulty-le2-fault1", b: faultyElection(2),
			opts: explore.Options{ObjectFaults: 1}, check: disagreement},
		{name: "faulty-le2-allmodes", b: faultyElection(2),
			opts: explore.Options{ObjectFaults: 1, FaultModes: allFaultModes}, check: disagreement},
		{name: "faulty-le2-crash1-fault1", b: faultyElection(2),
			opts: explore.Options{MaxCrashes: 1, ObjectFaults: 1, FaultModes: allFaultModes}, check: disagreement},
		{name: "faulty-le3-fault1", b: faultyElection(3),
			opts: explore.Options{ObjectFaults: 1}, check: disagreement},
		// Fault budget against a system with no Faultable object: fault
		// branches degrade to healthy steps, and every engine must agree
		// on that too.
		{name: "oneShot-2x2-fault1-unwrapped", b: oneShot(2, 2),
			opts: explore.Options{ObjectFaults: 1, FaultModes: allFaultModes}},
	}
}

// outcomeKey renders every field of an outcome a caller can observe,
// so sequence equality means bit-identical exploration behavior.
func outcomeKey(o explore.Outcome) string {
	r := o.Result
	errs := make([]string, len(r.Errors))
	for i, err := range r.Errors {
		if err != nil {
			errs[i] = err.Error()
		}
	}
	return fmt.Sprintf("sched=%s halted=%v ready=%v vals=%v errs=%v crashed=%v steps=%v total=%d",
		explore.FormatSchedule(o.Schedule), r.Halted, r.ReadyAtHalt,
		r.Values, errs, r.Crashed, r.Steps, r.TotalSteps)
}

func collect(t *testing.T, visitFn func(explore.Builder, explore.Options, func(explore.Outcome) bool) (int, bool),
	b explore.Builder, opts explore.Options) ([]string, int, bool) {
	t.Helper()
	var keys []string
	runs, exhaustive := visitFn(b, opts, func(o explore.Outcome) bool {
		keys = append(keys, outcomeKey(o))
		return true
	})
	return keys, runs, exhaustive
}

// TestVisitMatchesVisitReplay: the path engine must reproduce the
// replay reference engine's visit sequence run for run.
func TestVisitMatchesVisitReplay(t *testing.T) {
	for _, tc := range engineMatrix() {
		t.Run(tc.name, func(t *testing.T) {
			want, wantRuns, wantEx := collect(t, explore.VisitReplay, tc.b, tc.opts)
			got, gotRuns, gotEx := collect(t, explore.Visit, tc.b, tc.opts)
			if gotRuns != wantRuns || gotEx != wantEx {
				t.Fatalf("Visit runs=%d exhaustive=%v, VisitReplay runs=%d exhaustive=%v",
					gotRuns, gotEx, wantRuns, wantEx)
			}
			if !reflect.DeepEqual(got, want) {
				for i := range want {
					if i >= len(got) || got[i] != want[i] {
						t.Fatalf("outcome %d diverges:\n  path:   %s\n  replay: %s", i, got[i], want[i])
					}
				}
				t.Fatalf("path engine visited %d outcomes, replay %d", len(got), len(want))
			}
		})
	}
}

// TestPrunedCensusMatchesUnpruned: transposition pruning (sequential
// and parallel) must reproduce the unpruned census exactly — run
// counts, outcome histogram, violation count, exhaustiveness.
func TestPrunedCensusMatchesUnpruned(t *testing.T) {
	for _, tc := range engineMatrix() {
		if tc.opts.MaxRuns != 0 {
			continue // capped censuses cap by credited runs under pruning: not comparable
		}
		t.Run(tc.name, func(t *testing.T) {
			want := explore.Run(tc.b, tc.opts, tc.check)
			for _, tunes := range [][]explore.Tune{
				{explore.WithPrune()},
				{explore.WithPrune(), explore.WithWorkers(4)},
				// A starved entry budget forces constant eviction; counts
				// must not move.
				{explore.WithPrune(), explore.WithPruneBudget(16)},
				{explore.WithPrune(), explore.WithPruneBudget(16), explore.WithWorkers(4)},
			} {
				got := explore.Run(tc.b, tc.opts.With(tunes...), tc.check)
				if got.Complete != want.Complete || got.Incomplete != want.Incomplete ||
					got.ViolationRuns != want.ViolationRuns || got.Exhaustive != want.Exhaustive {
					t.Fatalf("pruned census (tunes %d) = %d/%d viol=%d ex=%v, unpruned = %d/%d viol=%d ex=%v",
						len(tunes), got.Complete, got.Incomplete, got.ViolationRuns, got.Exhaustive,
						want.Complete, want.Incomplete, want.ViolationRuns, want.Exhaustive)
				}
				if !censusOutcomesEqual(got.Outcomes, want.Outcomes) {
					t.Fatalf("pruned outcome histogram %v, unpruned %v", got.Outcomes, want.Outcomes)
				}
				if (len(got.Violations) == 0) != (len(want.Violations) == 0) {
					t.Fatalf("pruned recorded %d violations, unpruned %d", len(got.Violations), len(want.Violations))
				}
			}
		})
	}
}

func censusOutcomesEqual(a, b map[string]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// TestParallelCensusMatchesSequential: workers without pruning also
// reproduce the census exactly (on the work-stealing pool).
func TestParallelCensusMatchesSequential(t *testing.T) {
	for _, tc := range engineMatrix() {
		t.Run(tc.name, func(t *testing.T) {
			want := explore.Run(tc.b, tc.opts, tc.check)
			got := explore.Run(tc.b, tc.opts.With(explore.WithWorkers(4)), tc.check)
			if got.Complete != want.Complete || got.Incomplete != want.Incomplete ||
				got.ViolationRuns != want.ViolationRuns || got.Exhaustive != want.Exhaustive ||
				!censusOutcomesEqual(got.Outcomes, want.Outcomes) {
				t.Fatalf("parallel census diverges:\n got: %+v\nwant: %+v", got, want)
			}
			// Without pruning the walk order is exactly sequential, so
			// even the recorded representatives must match.
			if len(got.Violations) != len(want.Violations) {
				t.Fatalf("parallel recorded %d violations, sequential %d", len(got.Violations), len(want.Violations))
			}
			for i := range got.Violations {
				if explore.FormatSchedule(got.Violations[i].Schedule) != explore.FormatSchedule(want.Violations[i].Schedule) {
					t.Fatalf("violation %d schedule diverges", i)
				}
			}
		})
	}
}

// TestHuntDeterminism: the randomized hunter is part of the public
// exploration surface; same seed + builder must give the identical
// tried count and outcome, so engine work can't silently change hunt
// semantics.
func TestHuntDeterminism(t *testing.T) {
	type huntResult struct {
		sched string
		tried int
		found bool
	}
	hunt := func(b explore.Builder, opts explore.Options, trials int, seed int64) huntResult {
		out, tried := explore.Hunt(b, opts, trials, seed, disagreement)
		r := huntResult{tried: tried, found: out != nil}
		if out != nil {
			r.sched = explore.FormatSchedule(out.Schedule)
		}
		return r
	}
	cases := []struct {
		name   string
		b      explore.Builder
		opts   explore.Options
		trials int
	}{
		{name: "rw-violation", b: rwConsensusAttempt, trials: 500},
		{name: "tas-quiet", b: tasConsensus([2]int{1, 2}), opts: explore.Options{MaxCrashes: 1}, trials: 300},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				a := hunt(tc.b, tc.opts, tc.trials, seed)
				b := hunt(tc.b, tc.opts, tc.trials, seed)
				if a != b {
					t.Fatalf("seed %d: hunt not deterministic: %+v vs %+v", seed, a, b)
				}
			}
		})
	}
}
