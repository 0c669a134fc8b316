package explore_test

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/explore"
	"repro/internal/objects"
	"repro/internal/registers"
	"repro/internal/sim"
)

// oneShot builds n processes that each take `steps` reads of a shared
// register and decide their ID.
func oneShot(n, steps int) explore.Builder {
	return func() *sim.System {
		sys := sim.NewSystem()
		r := registers.NewMWMR("r", 0)
		sys.Add(r)
		sys.SpawnN(n, func(id sim.ProcID) sim.Program {
			return func(e *sim.Env) (sim.Value, error) {
				for i := 0; i < steps; i++ {
					r.Read(e)
				}
				return int(id), nil
			}
		})
		return sys
	}
}

// TestVisitCountsInterleavings: every census path counts exactly the
// closed-form number of interleavings — Visit, Run at one and two
// workers (unpruned, pruned, with sleep sets), a checkpointed census,
// a census whose roots are leased through a remote seat, and
// ExploreSubtree's walk of the whole tree (a nil prefix).
func TestVisitCountsInterleavings(t *testing.T) {
	tests := []struct {
		n, steps int
		want     int // number of interleavings = multinomial coefficient
	}{
		{2, 1, 2},  // 2!/(1!1!)
		{2, 2, 6},  // 4!/(2!2!)
		{3, 1, 6},  // 3!
		{2, 3, 20}, // 6!/(3!3!)
	}
	census := func(c *explore.Census) (int, bool) { return c.Complete + c.Incomplete, c.Exhaustive }
	run := func(opts explore.Options) func(*testing.T, explore.Builder) (int, bool) {
		return func(_ *testing.T, b explore.Builder) (int, bool) { return census(explore.Run(b, opts, nil)) }
	}
	paths := []struct {
		name  string
		count func(*testing.T, explore.Builder) (int, bool)
	}{
		{"visit", func(_ *testing.T, b explore.Builder) (int, bool) {
			return explore.Visit(b, explore.Options{}, func(explore.Outcome) bool { return true })
		}},
		{"run-w1", run(explore.Options{Workers: 1})},
		{"run-w1-prune", run(explore.Options{Workers: 1, Prune: true})},
		{"run-w1-sleepsets", run(explore.Options{Workers: 1, SleepSets: true})},
		{"run-w2", run(explore.Options{Workers: 2})},
		{"run-w2-prune", run(explore.Options{Workers: 2, Prune: true})},
		{"run-w2-sleepsets", run(explore.Options{Workers: 2, SleepSets: true})},
		{"checkpointed-w1", func(t *testing.T, b explore.Builder) (int, bool) {
			c, _, err := explore.RunCheckpointed(b, explore.Options{Workers: 1}, nil,
				explore.Checkpoint{Path: filepath.Join(t.TempDir(), "ck.json")})
			if err != nil {
				t.Fatal(err)
			}
			return census(c)
		}},
		{"seated", func(t *testing.T, b explore.Builder) (int, bool) {
			return census(seated(t, b, explore.Options{}, nil, deliverAll(t, b, explore.Options{}, nil, "")))
		}},
		{"subtree-nil-prefix", func(t *testing.T, b explore.Builder) (int, bool) {
			sum, _, err := explore.ExploreSubtree(context.Background(), b, explore.Options{}, nil, nil, explore.Checkpoint{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			return sum.Complete + sum.Incomplete, !sum.Capped
		}},
	}
	for _, p := range paths {
		for _, tt := range tests {
			runs, exhaustive := p.count(t, oneShot(tt.n, tt.steps))
			if !exhaustive {
				t.Errorf("%s n=%d steps=%d: not exhaustive", p.name, tt.n, tt.steps)
			}
			if runs != tt.want {
				t.Errorf("%s n=%d steps=%d: %d runs, want %d", p.name, tt.n, tt.steps, runs, tt.want)
			}
		}
	}
}

// TestRepeatedFaultModeCountedOnce: a fault mode listed twice is
// enumerated once, so the census equals the one listing it once.
func TestRepeatedFaultModeCountedOnce(t *testing.T) {
	b := faultyElection(2)
	want := explore.Run(b, explore.Options{}.With(explore.WithObjectFaults(1, sim.FaultCrash, sim.FaultOmission)), disagreement)
	got := explore.Run(b, explore.Options{}.With(
		explore.WithObjectFaults(1, sim.FaultCrash, sim.FaultOmission, sim.FaultCrash, sim.FaultOmission)), disagreement)
	assertCensusEqual(t, "repeated modes", got, want)
}

func TestVisitEarlyStop(t *testing.T) {
	runs, exhaustive := explore.Visit(oneShot(2, 2), explore.Options{}, func(explore.Outcome) bool {
		return false // stop immediately
	})
	if runs != 1 || exhaustive {
		t.Errorf("runs=%d exhaustive=%v, want 1,false", runs, exhaustive)
	}
}

func TestMaxRunsCap(t *testing.T) {
	_, exhaustive := explore.Visit(oneShot(3, 3), explore.Options{MaxRuns: 10}, func(explore.Outcome) bool { return true })
	if exhaustive {
		t.Error("capped walk reported exhaustive")
	}
}

func TestCrashBranchingAddsRuns(t *testing.T) {
	base, _ := explore.Visit(oneShot(2, 1), explore.Options{}, func(explore.Outcome) bool { return true })
	withCrash, exhaustive := explore.Visit(oneShot(2, 1), explore.Options{MaxCrashes: 1}, func(explore.Outcome) bool { return true })
	if !exhaustive {
		t.Fatal("crash walk not exhaustive")
	}
	if withCrash <= base {
		t.Errorf("crash branching gave %d runs, base %d", withCrash, base)
	}
}

func TestIncompleteRunsCounted(t *testing.T) {
	spinner := func() *sim.System {
		sys := sim.NewSystem()
		r := registers.NewMWMR("r", 0)
		sys.Add(r)
		sys.Spawn(func(e *sim.Env) (sim.Value, error) {
			for {
				r.Read(e)
			}
		})
		return sys
	}
	c := explore.Run(spinner, explore.Options{MaxDepth: 10}, nil)
	if c.Incomplete != 1 || c.Complete != 0 {
		t.Errorf("census = %+v, want exactly one incomplete run", c)
	}
}

// tasConsensus is 2-process consensus from one test&set bit plus an
// announce array: the winner decides its own value, the loser adopts
// the winner's announcement.
func tasConsensus(vals [2]int) explore.Builder {
	return func() *sim.System {
		sys := sim.NewSystem()
		ts := objects.NewTestAndSet("t")
		sys.Add(ts)
		ann := registers.NewArray(sys, "ann", 2, nil)
		sys.SpawnN(2, func(id sim.ProcID) sim.Program {
			return func(e *sim.Env) (sim.Value, error) {
				ann.Write(e, vals[id])
				if ts.TestAndSet(e) {
					return vals[id], nil
				}
				other := ann.Read(e, 1-int(id))
				return other, nil
			}
		})
		return sys
	}
}

func TestTASConsensusAgreesOnAllSchedules(t *testing.T) {
	c := explore.Run(tasConsensus([2]int{10, 20}), explore.Options{}, func(res *sim.Result) error {
		if d := res.DistinctDecisions(); len(d) > 1 {
			return fmt.Errorf("disagreement: %v", d)
		}
		return nil
	})
	if !c.Exhaustive {
		t.Fatal("walk not exhaustive")
	}
	if len(c.Violations) != 0 {
		t.Errorf("agreement violated: %s", explore.FormatSchedule(c.Violations[0].Schedule))
	}
	// Both outcomes must be reachable: the object decides the race.
	if c.Outcomes["[10 10]"] == 0 || c.Outcomes["[20 20]"] == 0 {
		t.Errorf("outcome census %v, want both [10 10] and [20 20]", c.Outcomes)
	}
}

func TestTASConsensusAgreesUnderOneCrash(t *testing.T) {
	c := explore.Run(tasConsensus([2]int{10, 20}), explore.Options{MaxCrashes: 1}, func(res *sim.Result) error {
		if d := res.DistinctDecisions(); len(d) > 1 {
			return fmt.Errorf("disagreement: %v", d)
		}
		return nil
	})
	if len(c.Violations) != 0 {
		t.Errorf("agreement violated under crash: %s", explore.FormatSchedule(c.Violations[0].Schedule))
	}
}

// rwConsensusAttempt is a doomed 2-process read/write "consensus":
// announce, then adopt the other's value if visible, else keep your
// own. The explorer finds the disagreeing schedule.
func rwConsensusAttempt() *sim.System {
	sys := sim.NewSystem()
	ann := registers.NewArray(sys, "ann", 2, nil)
	sys.SpawnN(2, func(id sim.ProcID) sim.Program {
		return func(e *sim.Env) (sim.Value, error) {
			ann.Write(e, int(id))
			other := ann.Read(e, 1-int(id))
			if other != nil {
				return other, nil
			}
			return int(id), nil
		}
	})
	return sys
}

func TestExplorerFindsRWConsensusViolation(t *testing.T) {
	c := explore.Run(rwConsensusAttempt, explore.Options{}, func(res *sim.Result) error {
		if d := res.DistinctDecisions(); len(d) > 1 {
			return errors.New("disagreement")
		}
		return nil
	})
	if len(c.Violations) == 0 {
		t.Fatalf("no violation found; census:\n%s", explore.DescribeCensus(c))
	}
}

func TestValenceTASConsensus(t *testing.T) {
	b := tasConsensus([2]int{10, 20})
	v := explore.Valence(b, explore.Options{}, nil)
	if len(v) != 2 {
		t.Errorf("initial valence %v, want bivalent", v)
	}
	// After process 0 wins the test&set (its announce then t&s), the
	// outcome is fixed: univalent.
	prefix := []explore.Choice{{Pick: 0}, {Pick: 0}}
	v = explore.Valence(b, explore.Options{}, prefix)
	if len(v) != 1 || v[0] != "[10 10]" {
		t.Errorf("post-win valence %v, want {[10 10]}", v)
	}
}

func TestBivalencePathEndsForTAS(t *testing.T) {
	// A correct strong-object consensus protocol cannot stay bivalent:
	// the greedy bivalence path must terminate well before the bound.
	path, stillBivalent := explore.BivalencePath(tasConsensus([2]int{1, 2}), explore.Options{}, 20)
	if stillBivalent {
		t.Errorf("test&set consensus stayed bivalent for %d steps", len(path))
	}
	if len(path) > 3 {
		t.Errorf("bivalence path length %d, want <= 3 (one step decides)", len(path))
	}
}

func TestChoiceString(t *testing.T) {
	cs := []explore.Choice{{Pick: 0}, {Pick: 2, Crash: true}, {Pick: 1}}
	if got := explore.FormatSchedule(cs); got != "0 2† 1" {
		t.Errorf("FormatSchedule = %q", got)
	}
}
