package explore

import (
	"errors"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/registers"
	"repro/internal/sim"
)

// TestExtendNeverAliases is the regression test for the walker's old
// append(prefix, c) branching: with spare capacity in the parent's
// backing array, two sibling extensions would share (and overwrite)
// the same slot. extend must hand every branch its own array.
func TestExtendNeverAliases(t *testing.T) {
	parent := make([]Choice, 1, 8) // spare capacity: the hazardous case
	parent[0] = Choice{Pick: 0}
	left := extend(parent, Choice{Pick: 1})
	right := extend(parent, Choice{Pick: 2})
	if left[1] != (Choice{Pick: 1}) {
		t.Fatalf("left sibling corrupted: %v", left)
	}
	if right[1] != (Choice{Pick: 2}) {
		t.Fatalf("right sibling corrupted: %v", right)
	}
	// Deep growth of one branch must not touch the other.
	deep := extend(left, Choice{Pick: 3, Crash: true})
	_ = deep
	if right[1] != (Choice{Pick: 2}) {
		t.Fatalf("deep growth of left branch clobbered right: %v", right)
	}
	if cap(left) != len(left) || cap(right) != len(right) {
		t.Fatalf("extend must allocate exactly len+1: cap(left)=%d cap(right)=%d", cap(left), cap(right))
	}
}

// rwAttempt is a local copy of the doomed 2-process read/write
// consensus (announce, adopt-if-visible): the canonical source of real
// violations for white-box checks.
func rwAttempt() *sim.System {
	sys := sim.NewSystem()
	ann := registers.NewArray(sys, "ann", 2, nil)
	sys.SpawnN(2, func(id sim.ProcID) sim.Program {
		return func(e *sim.Env) (sim.Value, error) {
			ann.Write(e, int(id))
			if other := ann.Read(e, 1-int(id)); other != nil {
				return other, nil
			}
			return int(id), nil
		}
	})
	return sys
}

// TestPrunedViolationRepsReplay: every violation a pruned census
// records must be a genuine one — replaying its schedule from the root
// must reproduce a run that fails the check. This is the guard against
// a transposition entry crediting a violation whose stored schedule is
// stale or aliased.
func TestPrunedViolationRepsReplay(t *testing.T) {
	check := func(res *sim.Result) error {
		if d := res.DistinctDecisions(); d != nil && len(d) > 1 {
			return errors.New("disagreement")
		}
		return nil
	}
	opts := Options{MaxCrashes: 1}.withDefaults()
	c := Run(rwAttempt, opts, check)
	if c.ViolationRuns == 0 {
		t.Fatal("unpruned census found no violations; matrix broken")
	}
	pruned := Run(rwAttempt, opts.With(WithPrune()), check)
	if pruned.ViolationRuns != c.ViolationRuns {
		t.Fatalf("pruned ViolationRuns=%d, unpruned=%d", pruned.ViolationRuns, c.ViolationRuns)
	}
	if len(pruned.Violations) == 0 {
		t.Fatal("pruned census recorded no representative violations")
	}
	for i, v := range pruned.Violations {
		res, _ := replayPrefix(rwAttempt, opts, v.Schedule)
		if res.Halted {
			t.Fatalf("violation %d (%s): replay halted, schedule not terminal", i, FormatSchedule(v.Schedule))
		}
		if err := check(res); err == nil {
			t.Fatalf("violation %d (%s): replay does not violate the check", i, FormatSchedule(v.Schedule))
		}
	}
}

// TestFrontierCoversTree: the parallel split frontier must partition
// the terminal runs exactly — leaves plus the union of subtree walks
// reproduce the sequential count.
func TestFrontierCoversTree(t *testing.T) {
	b := rwAttempt
	opts := Options{MaxCrashes: 1}.withDefaults()
	seqRuns, _ := Visit(b, opts, func(Outcome) bool { return true })
	items, ok := frontier(b, opts, 4)
	if !ok {
		t.Fatal("frontier enumeration capped unexpectedly")
	}
	total := 0
	for _, it := range items {
		if it.prefix == nil {
			total++
			continue
		}
		en := &engine{b: b, opts: opts, root: it.prefix, visit: func(Outcome) bool { return true }}
		en.run()
		total += en.runs
	}
	if total != seqRuns {
		t.Fatalf("frontier partition visits %d runs, sequential %d", total, seqRuns)
	}
}

// TestStateHashAtFrontier: mid-run hashing (the resumable-run hook)
// must agree between two executions following the same schedule and
// diverge when the schedules genuinely diverge in state.
func TestStateHashAtFrontier(t *testing.T) {
	hashesAt := func(plan []Choice, at int) (uint64, bool) {
		var fp uint64
		var ok bool
		pos := 0
		sys := rwAttempt()
		sched := func(ready []sim.ProcID, _ int) sim.ProcID {
			if pos == at {
				fp, ok = sys.StateHash()
			}
			if pos >= len(plan) {
				return sim.Halt
			}
			c := plan[pos]
			pos++
			return c.Pick
		}
		_, err := sys.Run(sim.Config{
			Scheduler:    schedulerFunc(sched),
			Fingerprint:  true,
			DisableTrace: true,
		})
		if err != nil {
			t.Fatalf("run failed: %v", err)
		}
		return fp, ok
	}
	plan := []Choice{{Pick: 0}, {Pick: 0}, {Pick: 1}}
	h1, ok1 := hashesAt(plan, 2)
	h2, ok2 := hashesAt(plan, 2)
	if !ok1 || !ok2 {
		t.Fatal("StateHash not available with Fingerprint enabled")
	}
	if h1 != h2 {
		t.Fatalf("same prefix hashed differently: %x vs %x", h1, h2)
	}
	// {0,1} reaches a genuinely different state than {0,0} (proc 1 has
	// announced instead of proc 0 having read).
	other := []Choice{{Pick: 0}, {Pick: 1}, {Pick: 1}}
	h3, _ := hashesAt(other, 2)
	if h3 == h1 {
		t.Fatalf("states of different prefixes collide: %x", h1)
	}
	// The commuting case: {0,1} and {1,0} are different schedules but
	// the two announces commute, so the states — and the hashes — must
	// coincide. This is exactly what the transposition table exploits.
	ha, _ := hashesAt([]Choice{{Pick: 0}, {Pick: 1}, {Pick: 0}}, 2)
	hb, _ := hashesAt([]Choice{{Pick: 1}, {Pick: 0}, {Pick: 0}}, 2)
	if ha != hb {
		t.Fatalf("commuting writes hashed differently: %x vs %x", ha, hb)
	}
}

type schedulerFunc func([]sim.ProcID, int) sim.ProcID

func (f schedulerFunc) Next(ready []sim.ProcID, step int) sim.ProcID { return f(ready, step) }

// wideTree is a 3-process, 9-step no-op system: a bushy tree (1680
// interleavings) for the panic-recovery and checkpoint tests.
func wideTree() *sim.System {
	sys := sim.NewSystem()
	r := registers.NewMWMR("r", 0)
	sys.Add(r)
	sys.SpawnN(3, func(id sim.ProcID) sim.Program {
		return func(e *sim.Env) (sim.Value, error) {
			for i := 0; i < 3; i++ {
				r.Read(e)
			}
			return int(id), nil
		}
	})
	return sys
}

// countingBuilder wraps a builder with an atomic call counter, panicking
// on call number panicAt (0 disables).
func countingBuilder(inner Builder, counter *atomic.Int64, panicAt int64) Builder {
	return func() *sim.System {
		if n := counter.Add(1); panicAt > 0 && n == panicAt {
			panic("injected harness fault")
		}
		return inner()
	}
}

// persistentPanicBuilder panics on EVERY call from callAt on — a fault
// no retry can heal, for exercising the permanent-failure path.
func persistentPanicBuilder(inner Builder, counter *atomic.Int64, callAt int64) Builder {
	return func() *sim.System {
		if counter.Add(1) >= callAt {
			panic("persistent harness fault")
		}
		return inner()
	}
}

// fastRetries keeps the supervisor's retry policy but strips the
// backoff waits so failure-path tests stay fast.
func fastRetries(attempts int, stats *SuperviseStats) Tune {
	return WithSupervision(Supervise{
		MaxAttempts: attempts,
		BackoffBase: time.Microsecond,
		BackoffMax:  time.Microsecond,
		Stats:       stats,
	})
}

// TestWorkerPanicRetried: a one-shot panic on a worker goroutine (here
// from the builder, the first call after frontier enumeration —
// frontier runs on the caller's goroutine, everything after it on
// workers) must be healed by the supervisor's retry: the census comes
// back exhaustive, error-free, and bit-identical to the sequential
// baseline. Both the streaming parallel walk and the pruned parallel
// census retry.
func TestWorkerPanicRetried(t *testing.T) {
	base := Options{Workers: 4}.withDefaults()
	seq := Run(wideTree, Options{}.withDefaults(), nil)
	if !seq.Exhaustive || seq.Complete == 0 {
		t.Fatalf("sequential baseline broken: %+v", seq)
	}
	// Measure the builder calls frontier enumeration consumes; the next
	// call is the first worker probe.
	var fc atomic.Int64
	if _, ok := frontier(countingBuilder(wideTree, &fc, 0), base, base.workerCount()); !ok {
		t.Fatal("frontier capped unexpectedly")
	}
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{name: "parallel-visit", opts: base},
		{name: "pruned-parallel", opts: base.With(WithPrune())},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stats SuperviseStats
			var calls atomic.Int64
			got := Run(countingBuilder(wideTree, &calls, fc.Load()+1),
				tc.opts.With(fastRetries(3, &stats)), nil)
			if len(got.Errors) != 0 {
				t.Fatalf("one-shot panic not healed: errors = %v", got.Errors)
			}
			if !got.Exhaustive {
				t.Fatal("healed census must be exhaustive")
			}
			if got.Complete != seq.Complete || got.Incomplete != seq.Incomplete {
				t.Fatalf("healed census %d/%d, sequential %d/%d",
					got.Complete, got.Incomplete, seq.Complete, seq.Incomplete)
			}
			if stats.Retries.Load() == 0 {
				t.Fatal("supervisor reported no retries for a panicked root")
			}
		})
	}
}

// TestWorkerPanicPermanentFailure: a fault that survives every retry
// costs exactly the affected subtrees: each is reported in FailedRoots
// with its attempt count, Exhaustive flips, and every other subtree
// stays counted.
func TestWorkerPanicPermanentFailure(t *testing.T) {
	base := Options{Workers: 4}.withDefaults()
	seq := Run(wideTree, Options{}.withDefaults(), nil)
	var fc atomic.Int64
	if _, ok := frontier(countingBuilder(wideTree, &fc, 0), base, base.workerCount()); !ok {
		t.Fatal("frontier capped unexpectedly")
	}
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{name: "parallel-visit", opts: base},
		{name: "pruned-parallel", opts: base.With(WithPrune())},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stats SuperviseStats
			var calls atomic.Int64
			got := Run(persistentPanicBuilder(wideTree, &calls, fc.Load()+1),
				tc.opts.With(fastRetries(3, &stats)), nil)
			if len(got.FailedRoots) == 0 {
				t.Fatal("persistent fault produced no FailedRoots")
			}
			if got.Exhaustive {
				t.Fatal("census with lost subtrees claims exhaustiveness")
			}
			for _, f := range got.FailedRoots {
				if f.Attempts != 3 {
					t.Fatalf("failed root %q used %d attempts, want 3", FormatSchedule(f.Prefix), f.Attempts)
				}
				if len(f.Prefix) == 0 || f.Err == "" {
					t.Fatalf("failure lacks prefix or error: %+v", f)
				}
			}
			if got.Complete >= seq.Complete {
				t.Fatalf("census counted %d complete runs despite lost subtrees (sequential %d)",
					got.Complete, seq.Complete)
			}
		})
	}
}

// TestPruneTableEvictionBudget: a starved entry budget must bound the
// table's live size while leaving every census count untouched.
func TestPruneTableEvictionBudget(t *testing.T) {
	check := func(res *sim.Result) error {
		if d := res.DistinctDecisions(); len(d) > 1 {
			return errors.New("disagreement")
		}
		return nil
	}
	opts := Options{MaxCrashes: 1}.withDefaults()
	want := Run(rwAttempt, opts, check)
	for _, budget := range []int{1, 4, 64} {
		got := Run(rwAttempt, opts.With(WithPrune(), WithPruneBudget(budget)), check)
		if got.Complete != want.Complete || got.Incomplete != want.Incomplete ||
			got.ViolationRuns != want.ViolationRuns || got.Exhaustive != want.Exhaustive {
			t.Fatalf("budget %d census %d/%d viol=%d, unpruned %d/%d viol=%d",
				budget, got.Complete, got.Incomplete, got.ViolationRuns,
				want.Complete, want.Incomplete, want.ViolationRuns)
		}
	}
	table := newPruneTable(4)
	en := &engine{b: rwAttempt, opts: opts, acc: newSummary(), check: check, table: table}
	en.run()
	if n := table.size(); n > 4 {
		t.Fatalf("table holds %d entries, budget 4", n)
	}
}

// TestCheckpointResume: a checkpointed census killed mid-run must, on
// resume, credit the recorded roots and land on the exact census an
// uninterrupted run produces.
func TestCheckpointResume(t *testing.T) {
	check := func(res *sim.Result) error {
		if d := res.DistinctDecisions(); len(d) > 1 {
			return errors.New("disagreement")
		}
		return nil
	}
	opts := Options{MaxCrashes: 1, Workers: 2}.withDefaults()
	plain := Run(wideTree, opts, check)
	if plain.ViolationRuns == 0 {
		t.Fatal("baseline found no violations; matrix broken")
	}
	dir := t.TempDir()

	same := func(got *Census, label string) {
		t.Helper()
		if got.Complete != plain.Complete || got.Incomplete != plain.Incomplete ||
			got.ViolationRuns != plain.ViolationRuns || got.Exhaustive != plain.Exhaustive {
			t.Fatalf("%s census %d/%d viol=%d ex=%v, plain %d/%d viol=%d ex=%v",
				label, got.Complete, got.Incomplete, got.ViolationRuns, got.Exhaustive,
				plain.Complete, plain.Incomplete, plain.ViolationRuns, plain.Exhaustive)
		}
	}

	// Uninterrupted checkpointed run == plain run.
	full, stats, err := RunCheckpointed(wideTree, opts, check, Checkpoint{
		Path: filepath.Join(dir, "full.json"), Every: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.TotalRoots == 0 || stats.ResumedRoots != 0 {
		t.Fatalf("stats %+v, want roots > 0 resumed 0", stats)
	}
	same(full, "uninterrupted")

	// Kill after 3 roots...
	path := filepath.Join(dir, "killed.json")
	_, killStats, err := RunCheckpointed(wideTree, opts, check, Checkpoint{
		Path: path, Every: 1, stopAfterRoots: 3,
	})
	if err != errStopped {
		t.Fatalf("stopped run returned err=%v, want errStopped", err)
	}
	if killStats.Saves == 0 {
		t.Fatal("stopped run saved no checkpoint")
	}

	// ...and resume from its file.
	resumed, resStats, err := RunCheckpointed(wideTree, opts, check, Checkpoint{
		Path: path, Resume: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resStats.ResumedRoots < 3 {
		t.Fatalf("resume credited %d roots, want >= 3", resStats.ResumedRoots)
	}
	same(resumed, "resumed")
	// The resumed census's recorded representatives must be genuine:
	// their schedules replay to real violations even when the summary
	// came from the checkpoint file.
	if len(resumed.Violations) == 0 {
		t.Fatal("resumed census recorded no representative violations")
	}
	for i, v := range resumed.Violations {
		res, _ := replayPrefix(wideTree, opts, v.Schedule)
		if res.Halted || check(res) == nil {
			t.Fatalf("violation %d (%s) does not replay to a violation", i, FormatSchedule(v.Schedule))
		}
	}

	// A mismatched checkpoint (different options) is ignored, not
	// half-applied: the run is fresh and still exact.
	otherOpts := Options{MaxCrashes: 0, Workers: 2}.withDefaults()
	fresh, freshStats, err := RunCheckpointed(wideTree, otherOpts, check, Checkpoint{
		Path: path, Resume: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if freshStats.ResumedRoots != 0 {
		t.Fatalf("mismatched checkpoint credited %d roots, want 0", freshStats.ResumedRoots)
	}
	noCrash := Run(wideTree, otherOpts, check)
	if fresh.Complete != noCrash.Complete || fresh.ViolationRuns != noCrash.ViolationRuns {
		t.Fatalf("fresh census %d viol=%d, want %d viol=%d",
			fresh.Complete, fresh.ViolationRuns, noCrash.Complete, noCrash.ViolationRuns)
	}
}
