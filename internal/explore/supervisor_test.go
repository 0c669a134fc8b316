package explore

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sim"
)

// Tests for the supervision layer: deterministic backoff, chaos-driven
// kill→resume→complete bit-identity, the stall watchdog, cooperative
// cancellation across every engine, and checkpoint durability/
// tolerance. The invariant under test throughout: supervision changes
// WHEN work happens and how failures are reported, never WHAT a
// successful census counts.

func disagreeCheck(res *sim.Result) error {
	if d := res.DistinctDecisions(); len(d) > 1 {
		return errors.New("disagreement")
	}
	return nil
}

// censusSame asserts every count a census exposes matches, including
// the full outcome histogram — "bit-identical" in the sense the
// acceptance criteria use (representative schedules are the one
// documented exception and are checked separately where relevant).
func censusSame(t *testing.T, label string, got, want *Census) {
	t.Helper()
	if got.Complete != want.Complete || got.Incomplete != want.Incomplete ||
		got.ViolationRuns != want.ViolationRuns || got.Exhaustive != want.Exhaustive {
		t.Fatalf("%s census %d/%d viol=%d ex=%v, want %d/%d viol=%d ex=%v",
			label, got.Complete, got.Incomplete, got.ViolationRuns, got.Exhaustive,
			want.Complete, want.Incomplete, want.ViolationRuns, want.Exhaustive)
	}
	if len(got.Outcomes) != len(want.Outcomes) {
		t.Fatalf("%s outcome histogram has %d fingerprints, want %d", label, len(got.Outcomes), len(want.Outcomes))
	}
	for k, v := range want.Outcomes {
		if got.Outcomes[k] != v {
			t.Fatalf("%s outcome %q counted %d, want %d", label, k, got.Outcomes[k], v)
		}
	}
}

// TestBackoffDeterministic: the retry backoff must be reproducible from
// the seed, stay inside the exponential envelope [d/2, d] with
// d = min(base<<(attempt-2), max), and actually vary with the seed.
func TestBackoffDeterministic(t *testing.T) {
	mk := func(seed int64) *supCfg {
		o := Options{Supervision: &Supervise{
			Seed:        seed,
			BackoffBase: 10 * time.Millisecond,
			BackoffMax:  80 * time.Millisecond,
		}}
		return o.supervise()
	}
	a, b := mk(42), mk(42)
	for root := 0; root < 5; root++ {
		for attempt := 2; attempt <= 7; attempt++ {
			d1, d2 := a.backoff(root, attempt), b.backoff(root, attempt)
			if d1 != d2 {
				t.Fatalf("same seed, root %d attempt %d: %v vs %v", root, attempt, d1, d2)
			}
			env := 10 * time.Millisecond << (attempt - 2)
			if env > 80*time.Millisecond {
				env = 80 * time.Millisecond
			}
			if d1 < env/2 || d1 > env {
				t.Fatalf("root %d attempt %d: backoff %v outside [%v, %v]", root, attempt, d1, env/2, env)
			}
		}
	}
	c := mk(43)
	same := true
	for attempt := 2; attempt <= 7; attempt++ {
		if c.backoff(1, attempt) != a.backoff(1, attempt) {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical jitter at every attempt")
	}
}

// TestChaosKillResumeBitIdentical is the chaos acceptance test: under
// seeded random worker kills and stalls, a checkpointed census killed
// mid-run and then resumed (still under chaos) must land on a census
// bit-identical to an uninterrupted sequential run, with the
// supervisor visibly doing its job (kills injected, retries performed).
func TestChaosKillResumeBitIdentical(t *testing.T) {
	baseline := Run(wideTree, Options{MaxCrashes: 1}.withDefaults(), disagreeCheck)
	if !baseline.Exhaustive || baseline.ViolationRuns == 0 {
		t.Fatalf("sequential baseline broken: %+v", baseline)
	}
	var stats SuperviseStats
	opts := Options{MaxCrashes: 1, Workers: 4}.withDefaults()
	opts.Supervision = &Supervise{
		MaxAttempts:  10,
		BackoffBase:  time.Microsecond,
		BackoffMax:   time.Millisecond,
		Seed:         1,
		StallTimeout: 25 * time.Millisecond,
		Chaos: &ChaosPlan{
			Seed:      7,
			KillRate:  1,
			MaxKills:  6,
			StallRate: 1,
			MaxStalls: 2,
			StallFor:  80 * time.Millisecond,
		},
		Stats: &stats,
	}
	path := filepath.Join(t.TempDir(), "chaos.json")

	// Phase 1: the run is killed after 4 roots, mid-chaos.
	_, killStats, err := RunCheckpointed(wideTree, opts, disagreeCheck, Checkpoint{
		Path: path, Every: 1, stopAfterRoots: 4,
	})
	if err != errStopped {
		t.Fatalf("killed run returned err=%v, want errStopped", err)
	}
	if killStats.Saves == 0 {
		t.Fatal("killed run saved no checkpoint")
	}

	// Phase 2: resume under a fresh chaos budget and run to completion.
	resumed, resStats, err := RunCheckpointed(wideTree, opts, disagreeCheck, Checkpoint{
		Path: path, Every: 1, Resume: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resStats.ResumedRoots == 0 {
		t.Fatal("resume credited no roots")
	}
	if resStats.Warning != "" {
		t.Fatalf("resume warned unexpectedly: %s", resStats.Warning)
	}
	censusSame(t, "kill→resume→complete", resumed, baseline)
	if resumed.Cancelled || len(resumed.Errors) != 0 {
		t.Fatalf("healed census reports cancelled=%v errors=%v", resumed.Cancelled, resumed.Errors)
	}
	if stats.Kills.Load() == 0 {
		t.Fatal("chaos injected no kills")
	}
	if stats.Retries.Load() == 0 {
		t.Fatal("supervisor performed no retries despite injected kills")
	}
}

// TestWatchdogStallRequeue: with chaos stalling every worker's first
// probe well past the watchdog timeout, the watchdog must requeue the
// stalled roots — and the healed census must still be exact.
func TestWatchdogStallRequeue(t *testing.T) {
	want := Run(wideTree, Options{}.withDefaults(), nil)
	var stats SuperviseStats
	sup := Supervise{
		MaxAttempts:  5,
		BackoffBase:  time.Microsecond,
		BackoffMax:   time.Microsecond,
		StallTimeout: 20 * time.Millisecond,
		Chaos: &ChaosPlan{
			Seed:      3,
			StallRate: 1,
			MaxStalls: 4, // every worker's first probe stalls
			StallFor:  150 * time.Millisecond,
		},
		Stats: &stats,
	}
	got := Run(wideTree, Options{Workers: 4, Prune: true}.withDefaults().With(WithSupervision(sup)), nil)
	censusSame(t, "watchdog-healed", got, want)
	if len(got.Errors) != 0 {
		t.Fatalf("healed census has errors: %v", got.Errors)
	}
	if stats.Stalls.Load() == 0 {
		t.Fatal("chaos injected no stalls")
	}
	if stats.Requeues.Load() == 0 {
		t.Fatal("watchdog requeued nothing despite injected stalls")
	}
}

// TestCancelMidRun: a context cancelled mid-walk must stop every engine
// variant promptly, with Census.Cancelled set, Exhaustive false, and
// all already-delivered counts real (bounded above by the baseline).
func TestCancelMidRun(t *testing.T) {
	baseline := Run(wideTree, Options{MaxCrashes: 1}.withDefaults(), nil)
	for _, tc := range []struct {
		name string
		opts Options
		// cancel after this many check calls. Pruned walks call check
		// only on a subtree's FIRST exploration (credits are silent), so
		// they must cancel on the first call to still be mid-walk.
		after int64
		// pruned-parallel merges at root granularity; cancelling on the
		// first check can land before any root resolves, so zero counts
		// are legitimate there.
		wantProgress bool
	}{
		{name: "sequential", opts: Options{MaxCrashes: 1}, after: 50, wantProgress: true},
		{name: "parallel", opts: Options{MaxCrashes: 1, Workers: 4}, after: 50, wantProgress: true},
		{name: "pruned-sequential", opts: Options{MaxCrashes: 1, Prune: true}, after: 1, wantProgress: true},
		{name: "pruned-parallel", opts: Options{MaxCrashes: 1, Prune: true, Workers: 4}, after: 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var seen atomic.Int64
			check := func(*sim.Result) error {
				if seen.Add(1) == tc.after {
					cancel()
				}
				return nil
			}
			opts := tc.opts.withDefaults()
			opts.Context = ctx
			got := Run(wideTree, opts, check)
			if !got.Cancelled {
				t.Fatal("census not marked cancelled")
			}
			if got.Exhaustive {
				t.Fatal("cancelled census claims exhaustiveness")
			}
			if tc.wantProgress && got.Complete == 0 {
				t.Fatal("cancelled census counted nothing; cancellation should be cooperative, not immediate")
			}
			if got.Complete >= baseline.Complete {
				t.Fatalf("cancelled census counted %d complete runs, baseline %d", got.Complete, baseline.Complete)
			}
		})
	}
}

// TestCancelCheckpointResumeBitIdentical: cancelling a checkpointed run
// mid-flight must leave a loadable checkpoint whose resume completes to
// the bit-identical census — the graceful-shutdown contract SIGINT
// relies on.
func TestCancelCheckpointResumeBitIdentical(t *testing.T) {
	baseline := Run(wideTree, Options{MaxCrashes: 1}.withDefaults(), disagreeCheck)
	path := filepath.Join(t.TempDir(), "cancel.json")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var seen atomic.Int64
	half := int64(baseline.Complete / 2)
	checkCancel := func(res *sim.Result) error {
		if seen.Add(1) == half {
			cancel()
		}
		return disagreeCheck(res)
	}
	opts := Options{MaxCrashes: 1, Workers: 4}.withDefaults()
	opts.Context = ctx
	partial, stats, err := RunCheckpointed(wideTree, opts, checkCancel, Checkpoint{Path: path, Every: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !partial.Cancelled {
		t.Fatal("cancelled checkpointed run not marked cancelled")
	}
	if stats.Saves == 0 {
		t.Fatal("cancelled run flushed no checkpoint")
	}
	if partial.Complete == 0 || partial.Complete >= baseline.Complete {
		t.Fatalf("partial census counted %d complete runs, baseline %d", partial.Complete, baseline.Complete)
	}

	fresh := Options{MaxCrashes: 1, Workers: 4}.withDefaults()
	resumed, resStats, err := RunCheckpointed(wideTree, fresh, disagreeCheck, Checkpoint{Path: path, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if resStats.ResumedRoots == 0 {
		t.Fatal("resume after cancellation credited no roots")
	}
	censusSame(t, "cancel→resume", resumed, baseline)
}

// TestCheckpointCorruptTolerated: resuming from a truncated, garbage,
// or mismatched checkpoint must start fresh with a warning — never
// error, never half-apply — and still produce the exact census.
func TestCheckpointCorruptTolerated(t *testing.T) {
	baseline := Run(wideTree, Options{Workers: 2}.withDefaults(), nil)
	for _, tc := range []struct {
		name    string
		payload string
		warns   bool
	}{
		{name: "truncated", payload: `{"key": 12, "done": {`, warns: true},
		{name: "garbage", payload: "not json at all", warns: true},
		{name: "empty", payload: "", warns: true},
		{name: "key-mismatch", payload: `{"key": 1, "done": {}}`, warns: true},
		{name: "missing", payload: "", warns: false}, // file removed below
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "ck.json")
			if tc.name == "missing" {
				// leave the file absent
			} else if err := os.WriteFile(path, []byte(tc.payload), 0o644); err != nil {
				t.Fatal(err)
			}
			c, stats, err := RunCheckpointed(wideTree, Options{Workers: 2}.withDefaults(), nil,
				Checkpoint{Path: path, Resume: true})
			if err != nil {
				t.Fatalf("resume over %s checkpoint errored: %v", tc.name, err)
			}
			if tc.warns && stats.Warning == "" {
				t.Fatalf("%s checkpoint produced no warning", tc.name)
			}
			if !tc.warns && stats.Warning != "" {
				t.Fatalf("fresh start warned: %s", stats.Warning)
			}
			if stats.ResumedRoots != 0 {
				t.Fatalf("%s checkpoint credited %d roots", tc.name, stats.ResumedRoots)
			}
			censusSame(t, tc.name, c, baseline)
		})
	}
}

// TestCheckpointDurableWrite: saveCheckpoint must leave no temp debris
// and survive a reload round-trip (the fsync itself is not observable
// in a test, but the open→write→sync→rename path is).
func TestCheckpointDurableWrite(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ck.json")
	f := &ckFile{Key: 99, Done: map[string]RootSummary{"0": {Complete: 7}}}
	if err := saveCheckpoint(path, f); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temp file left behind: %v", err)
	}
	got, err := loadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Key != 99 || got.Done["0"].Complete != 7 {
		t.Fatalf("round-trip mismatch: %+v", got)
	}
}
