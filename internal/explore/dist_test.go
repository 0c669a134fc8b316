package explore_test

import (
	"context"
	"fmt"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"repro/internal/explore"
	"repro/internal/registers"
	"repro/internal/sim"
)

// rwAttempt3 is a doomed 3-process read/write "consensus" — announce,
// then adopt the first other announcement seen. Big enough to
// frontier-split and rich in violations under crash branching.
func rwAttempt3() explore.Builder {
	return func() *sim.System {
		sys := sim.NewSystem()
		ann := registers.NewArray(sys, "ann", 3, nil)
		sys.SpawnN(3, func(id sim.ProcID) sim.Program {
			return func(e *sim.Env) (sim.Value, error) {
				ann.Write(e, int(id))
				for j := 0; j < 3; j++ {
					if j != int(id) {
						if other := ann.Read(e, j); other != nil {
							return other, nil
						}
					}
				}
				return int(id), nil
			}
		})
		return sys
	}
}

// seated runs the census of b with a remote seat at its pool that stays
// live, so the pool's own worker leaves every whole root to the seat,
// and plays the remote fleet: once the pool is seated it leases every
// root and hands the leases, in root order, to play, which settles them
// through the seat. A census whose tree ends above the split finishes
// without a lease.
func seated(t *testing.T, b explore.Builder, opts explore.Options, check func(*sim.Result) error,
	play func(seat *explore.RemoteSeat, leases []explore.Claim)) *explore.Census {
	t.Helper()
	type result struct {
		c   *explore.Census
		err error
	}
	seat := explore.NewRemoteSeat(time.Minute, func() bool { return true }, nil)
	done := make(chan result, 1)
	go func() {
		c, _, err := seat.RunCheckpointed(b, opts, check, explore.Checkpoint{})
		done <- result{c, err}
	}()
	var leases []explore.Claim
	var r result
	for r.c == nil && r.err == nil {
		if c, _, ok := seat.Lease("remote", time.Now()); ok {
			leases = append(leases, c)
			continue
		}
		if len(leases) > 0 {
			sort.Slice(leases, func(i, j int) bool { return leases[i].Root < leases[j].Root })
			play(seat, leases)
			select {
			case r = <-done:
			case <-time.After(time.Minute):
				t.Fatal("the seated census never finished")
			}
			break
		}
		select {
		case r = <-done:
		case <-time.After(time.Millisecond):
		}
	}
	if r.err != nil {
		t.Fatal(r.err)
	}
	return r.c
}

// deliver walks lease c as a worker does — ExploreSubtree, with its own
// prune table and, when ckDir is set, a per-item checkpoint — and
// delivers the summary.
func deliver(t *testing.T, seat *explore.RemoteSeat, c explore.Claim, b explore.Builder, opts explore.Options,
	check func(*sim.Result) error, ckDir string) {
	t.Helper()
	var ck explore.Checkpoint
	if ckDir != "" {
		ck = explore.Checkpoint{Path: filepath.Join(ckDir, fmt.Sprintf("item-%d.json", c.Root)), Every: 1, Resume: true}
	}
	sum, _, err := explore.ExploreSubtree(context.Background(), b, opts, check, c.Prefix, ck, nil)
	if err != nil {
		t.Fatalf("root %d: %v", c.Root, err)
	}
	if v := seat.Deliver(c.Root, c.Gen, sum); v != explore.VerdictAccepted {
		t.Fatalf("delivery of root %d: %v", c.Root, v)
	}
}

// deliverAll delivers every lease.
func deliverAll(t *testing.T, b explore.Builder, opts explore.Options, check func(*sim.Result) error,
	ckDir string) func(*explore.RemoteSeat, []explore.Claim) {
	return func(seat *explore.RemoteSeat, leases []explore.Claim) {
		for _, c := range leases {
			deliver(t, seat, c, b, opts, check, ckDir)
		}
	}
}

// lose fails lease c, and every re-lease of its root, until the root is
// lost past the default attempt budget.
func lose(t *testing.T, seat *explore.RemoteSeat, c explore.Claim) {
	t.Helper()
	for attempt := 1; ; attempt++ {
		if v := seat.Fail(c.Root, c.Gen, "lost"); v != explore.VerdictAccepted {
			t.Fatalf("failing root %d: %v", c.Root, v)
		}
		if attempt == explore.DefaultMaxAttempts {
			return
		}
		var ok bool
		if c, _, ok = seat.Lease("remote", time.Now()); !ok {
			t.Fatal("a failed lease was not requeued at once")
		}
	}
}

func assertCensusCountsEqual(t *testing.T, label string, got, want *explore.Census) {
	t.Helper()
	if got.Complete != want.Complete || got.Incomplete != want.Incomplete ||
		got.ViolationRuns != want.ViolationRuns || got.Exhaustive != want.Exhaustive ||
		got.Cancelled != want.Cancelled {
		t.Fatalf("%s: census %d/%d viol=%d ex=%v can=%v, want %d/%d viol=%d ex=%v can=%v",
			label, got.Complete, got.Incomplete, got.ViolationRuns, got.Exhaustive, got.Cancelled,
			want.Complete, want.Incomplete, want.ViolationRuns, want.Exhaustive, want.Cancelled)
	}
	if len(got.Outcomes) != len(want.Outcomes) {
		t.Fatalf("%s: outcomes %v, want %v", label, got.Outcomes, want.Outcomes)
	}
	for k, v := range want.Outcomes {
		if got.Outcomes[k] != v {
			t.Fatalf("%s: outcomes %v, want %v", label, got.Outcomes, want.Outcomes)
		}
	}
	if len(got.Violations) != len(want.Violations) {
		t.Fatalf("%s: %d recorded violation reps, want %d", label, len(got.Violations), len(want.Violations))
	}
}

// TestDistPlanMergeBitIdentical: leasing every root through a remote
// seat and walking it with ExploreSubtree (fresh tables, per-item
// checkpoints) must reproduce the single-process census in every count
// — crash branching, violations, and reduction all included.
func TestDistPlanMergeBitIdentical(t *testing.T) {
	agree := func(res *sim.Result) error {
		if d := res.DistinctDecisions(); len(d) > 1 {
			return fmt.Errorf("disagreement: %v", d)
		}
		return nil
	}
	cases := []struct {
		name  string
		b     explore.Builder
		opts  explore.Options
		check func(*sim.Result) error
	}{
		{"oneShot-3x2", oneShot(3, 2), explore.Options{Workers: 2}, nil},
		{"oneShot-crash", oneShot(3, 2), explore.Options{MaxCrashes: 1, Workers: 2}, nil},
		{"rw3-violations", rwAttempt3(), explore.Options{MaxCrashes: 1, Workers: 2}, agree},
		{"rw3-pruned-sleep", rwAttempt3(), explore.Options{SleepSets: true, Workers: 2}, agree},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := explore.Run(tc.b, tc.opts, tc.check)
			leased := 0
			got := seated(t, tc.b, tc.opts, tc.check, func(seat *explore.RemoteSeat, leases []explore.Claim) {
				leased = len(leases)
				deliverAll(t, tc.b, tc.opts, tc.check, "")(seat, leases)
			})
			if leased == 0 {
				t.Fatal("the seat leased no root")
			}
			assertCensusCountsEqual(t, tc.name, got, want)
			// And with per-item subtree checkpointing switched on.
			got2 := seated(t, tc.b, tc.opts, tc.check, deliverAll(t, tc.b, tc.opts, tc.check, t.TempDir()))
			assertCensusCountsEqual(t, tc.name+"+ck", got2, want)
		})
	}
}

// TestExploreSubtreeCheckpointResume: re-running a work item over its
// finished checkpoint must resume (not re-explore) and return the
// identical summary — the path a killed-then-restarted worker takes.
func TestExploreSubtreeCheckpointResume(t *testing.T) {
	b := oneShot(3, 3)
	opts := explore.Options{Workers: 2}
	prefix := []explore.Choice{{Pick: 0}, {Pick: 0}, {Pick: 0}}
	path := filepath.Join(t.TempDir(), "item.json")
	ck := explore.Checkpoint{Path: path, Every: 1, Resume: true}

	first, stats1, err := explore.ExploreSubtree(context.Background(), b, opts, nil, prefix, ck, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats1.Saves == 0 {
		t.Fatal("first pass saved no checkpoint")
	}
	second, stats2, err := explore.ExploreSubtree(context.Background(), b, opts, nil, prefix, ck, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats2.Resumed == 0 {
		t.Fatalf("second pass resumed nothing: %+v", stats2)
	}
	if first.Complete != second.Complete || first.Incomplete != second.Incomplete ||
		first.Violations != second.Violations {
		t.Fatalf("resume changed the summary: %+v vs %+v", first, second)
	}
}

// TestDistPlanMergeMissingRoot: a root never delivered must surface as
// a cancelled, non-exhaustive census — never as silently-short counts —
// and a root lost past its attempt budget as a coverage deficit.
func TestDistPlanMergeMissingRoot(t *testing.T) {
	b := oneShot(3, 2)
	want := explore.Run(b, explore.Options{Workers: 2}, nil)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := explore.Options{Workers: 2, Context: ctx}
	c := seated(t, b, opts, nil, func(seat *explore.RemoteSeat, leases []explore.Claim) {
		deliverAll(t, b, opts, nil, "")(seat, leases[1:]) // the first root never returns
		cancel()
	})
	if !c.Cancelled || c.Exhaustive {
		t.Fatalf("partial census: cancelled=%v exhaustive=%v, want true/false", c.Cancelled, c.Exhaustive)
	}
	if c.Complete >= want.Complete {
		t.Fatalf("partial census counted %d complete, full census has %d", c.Complete, want.Complete)
	}

	// A failed root instead marks a coverage deficit, not cancellation.
	opts.Context = nil
	c2 := seated(t, b, opts, nil, func(seat *explore.RemoteSeat, leases []explore.Claim) {
		lose(t, seat, leases[0])
		deliverAll(t, b, opts, nil, "")(seat, leases[1:])
	})
	if c2.Cancelled || c2.Exhaustive || len(c2.Errors) != 1 || len(c2.FailedRoots) != 1 {
		t.Fatalf("failed-root census: cancelled=%v exhaustive=%v errors=%v", c2.Cancelled, c2.Exhaustive, c2.Errors)
	}
}

// TestFingerprintOptionsDetectsDivergence: the worker-side guard — the
// fingerprint must be stable across processes for equal options and
// differ when a census-shaping option differs.
func TestFingerprintOptionsDetectsDivergence(t *testing.T) {
	b := oneShot(2, 2)
	opts := explore.Options{MaxCrashes: 1}
	a := explore.FingerprintOptions(b, opts)
	if a != explore.FingerprintOptions(b, opts) {
		t.Fatal("fingerprint not deterministic")
	}
	opts2 := opts
	opts2.MaxCrashes = 0
	if a == explore.FingerprintOptions(b, opts2) {
		t.Fatal("fingerprint ignored MaxCrashes")
	}
	// Tuning (worker count) must NOT shape the fingerprint.
	opts3 := opts
	opts3.Workers = 7
	if a != explore.FingerprintOptions(b, opts3) {
		t.Fatal("fingerprint depends on worker count")
	}
}
