package explore

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/durable/durabletest"
	"repro/internal/sim"
)

// Tests for the policies of the one checkpoint loop as a leased subtree
// meets them: a panicking attempt is retried and a lost sub-root comes
// back as an error, a record no walk of the plan can produce is not
// credited, and a failed save neither stops the walk nor costs the last
// good file.

// leasedPrefix is the work item of the subtree compat file: a subtree
// of wideTree that splits into more than a handful of sub-roots.
var leasedPrefix = []Choice{{Pick: 2}, {Pick: 0}}

// TestExploreSubtreeLostSubRootIsError: a check or builder that panics
// inside a leased subtree is retried under the supervisor's policy, and
// once the attempts run out ExploreSubtree returns an error naming the
// lost sub-root — split (with a checkpoint) or not — instead of letting
// the panic kill the worker. A builder that panics from its first call
// panics in the split too, which then does not split: the error names
// the whole subtree. Under Prune and Symmetry it panics first in the
// symmetry audit, which is an error naming the subtree before any
// attempt.
func TestExploreSubtreeLostSubRootIsError(t *testing.T) {
	opts := Options{MaxCrashes: 1}.With(fastRetries(2, nil))
	checkPanics := func(res *sim.Result) error {
		if DecisionFingerprint(res) == "[0 1 2]" {
			panic("check bug")
		}
		return nil
	}
	var armed atomic.Bool
	builderPanics := func() *sim.System {
		if armed.Load() {
			panic("builder bug")
		}
		return wideTree()
	}
	arm := func() { armed.Store(true) }
	alwaysPanics := func() *sim.System { panic("builder bug") }
	for _, tc := range []struct {
		name  string
		b     Builder
		check func(*sim.Result) error
		beat  func()
		ck    bool
		sym   bool   // explore under Prune and Symmetry
		want  string // the lost subtree's prefix, as the error quotes it
	}{
		{"check-split", wideTree, checkPanics, nil, true, false, `subtree "2 0 `},
		{"check-mono", wideTree, checkPanics, nil, false, false, `subtree "2 0"`},
		{"builder-split", builderPanics, nil, arm, true, false, `subtree "2 0 `},
		{"builder-mono", builderPanics, nil, arm, false, false, `subtree "2 0"`},
		{"first-call-split", alwaysPanics, nil, nil, true, false, `subtree "2 0"`},
		{"first-call-mono", alwaysPanics, nil, nil, false, false, `subtree "2 0"`},
		{"first-call-symmetry", alwaysPanics, nil, nil, true, true, `subtree "2 0"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			armed.Store(false)
			var ck Checkpoint
			if tc.ck {
				ck = Checkpoint{Path: filepath.Join(t.TempDir(), "item.json"), Every: 1, Resume: true}
			}
			opts, lost := opts, "lost after 2 attempts"
			if tc.sym {
				opts.Prune, opts.Symmetry, lost = true, true, "symmetry audit: panic"
			}
			sum, _, err := ExploreSubtree(context.Background(), tc.b, opts, tc.check, leasedPrefix, ck, tc.beat)
			if err == nil {
				t.Fatalf("lost subtree returned no error (summary %+v)", sum)
			}
			msg := err.Error()
			if !strings.Contains(msg, tc.want) || !strings.Contains(msg, lost) || !strings.Contains(msg, " bug") {
				t.Fatalf("error %q does not name the lost sub-root %s and its panic", msg, tc.want)
			}
			if !reflect.DeepEqual(sum, RootSummary{}) {
				t.Fatalf("lost subtree returned a summary: %+v", sum)
			}
		})
	}

}

// TestCheckpointCorruptRepNotCredited: a complete checkpoint under the
// right key in which every record carries a representative the plan
// cannot produce — a garble fault in a fault-free census, which once
// crashed the resume with an index out of range in scheduleOf — credits
// nothing: the resume warns, explores every root again and lands on the
// exact census and subtree summary.
func TestCheckpointCorruptRepNotCredited(t *testing.T) {
	opts := Options{MaxCrashes: 1, Workers: 2}
	garble := func(t *testing.T, path string) {
		t.Helper()
		f, err := loadCheckpoint(path)
		if err != nil {
			t.Fatal(err)
		}
		for k, r := range f.Done {
			r.Reps = [][]Choice{{{Pick: 0, Fault: sim.FaultGarble}}}
			f.Done[k] = r
		}
		if err := saveCheckpoint(path, f); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("run-checkpointed", func(t *testing.T) {
		want := Run(wideTree, opts, disagreeCheck)
		path := filepath.Join(t.TempDir(), "ck.json")
		if _, _, err := RunCheckpointed(wideTree, opts, disagreeCheck, Checkpoint{Path: path}); err != nil {
			t.Fatal(err)
		}
		garble(t, path)
		got, stats, err := RunCheckpointed(wideTree, opts, disagreeCheck, Checkpoint{Path: path, Resume: true})
		if err != nil {
			t.Fatal(err)
		}
		if stats.ResumedRoots != 0 || !strings.Contains(stats.Warning, "not credited") {
			t.Fatalf("resume credited %d corrupt roots (warning %q)", stats.ResumedRoots, stats.Warning)
		}
		censusSame(t, "corrupt-rep", got, want)
		sameReps(t, "corrupt-rep", got, want)
	})

	t.Run("explore-subtree", func(t *testing.T) {
		want, _, err := ExploreSubtree(context.Background(), wideTree, opts, disagreeCheck, leasedPrefix, Checkpoint{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		ck := Checkpoint{Path: filepath.Join(t.TempDir(), "item.json"), Resume: true}
		if _, _, err := ExploreSubtree(context.Background(), wideTree, opts, disagreeCheck, leasedPrefix, ck, nil); err != nil {
			t.Fatal(err)
		}
		garble(t, ck.Path)
		got, stats, err := ExploreSubtree(context.Background(), wideTree, opts, disagreeCheck, leasedPrefix, ck, nil)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Resumed != 0 || stats.Warning == "" {
			t.Fatalf("resume credited %d corrupt sub-roots (warning %q)", stats.Resumed, stats.Warning)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("subtree\n got %+v\nwant %+v", got, want)
		}
	})
}

// TestCheckSummary: the check LoadCheckpoint and the coordinator apply
// to a recorded or delivered summary refuses exactly the records no
// walk of the plan produces.
func TestCheckSummary(t *testing.T) {
	plan := newPlan(wideTree, Options{ObjectFaults: 1, FaultModes: []sim.FaultMode{sim.FaultCrash, sim.FaultOmission}}.withDefaults(), nil, true)
	rep := func(cs ...Choice) RootSummary { return RootSummary{Complete: 1, Violations: 1, Reps: [][]Choice{cs}} }
	for _, tc := range []struct {
		name string
		r    RootSummary
		ok   bool
	}{
		{"valid", rep(Choice{Pick: 0}, Choice{Pick: 2, Crash: true}, Choice{Pick: 1, Fault: sim.FaultOmission}), true},
		{"wide-pick", rep(Choice{Pick: 0xffff}), true},
		{"negative-complete", RootSummary{Complete: -1}, false},
		{"negative-incomplete", RootSummary{Incomplete: -1}, false},
		{"negative-violations", RootSummary{Violations: -1}, false},
		{"negative-outcome", RootSummary{Complete: 1, Outcomes: map[string]int{"[0]": -1}}, false},
		{"negative-pick", rep(Choice{Pick: -1}), false},
		{"pick-past-16-bits", rep(Choice{Pick: 0x10000}), false},
		{"crash-and-fault", rep(Choice{Pick: 0, Crash: true, Fault: sim.FaultCrash}), false},
		{"mode-not-enumerated", rep(Choice{Pick: 0, Fault: sim.FaultGarble}), false},
	} {
		if err := plan.CheckSummary(tc.r); (err == nil) != tc.ok {
			t.Errorf("%s: CheckSummary = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

// TestCheckpointSaveFaults injects a failing create, a short write with
// ENOSPC and a failing fsync into the checkpoint loop's saves. A failed
// mid-run save does not stop the walk, which lands on the exact census
// or summary; a failed final save makes RunCheckpointed and
// ExploreSubtree return an error and no result; and the file under the
// final name still loads as the last successful save.
func TestCheckpointSaveFaults(t *testing.T) {
	opts := Options{MaxCrashes: 1, Workers: 2}
	want := Run(wideTree, opts, disagreeCheck)
	wantSum, _, err := ExploreSubtree(context.Background(), wideTree, opts, disagreeCheck, leasedPrefix, Checkpoint{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	recorded := func(t *testing.T, path string) int {
		t.Helper()
		f, err := loadCheckpoint(path)
		if err != nil {
			t.Fatalf("the last good checkpoint does not load: %v", err)
		}
		return len(f.Done)
	}
	// walks run the subtree or the census with a checkpoint at path and
	// return what it returned: its result, how many roots it had, and its
	// error.
	walks := map[string]func(path string) (any, int, error){
		"subtree": func(path string) (any, int, error) {
			sum, st, err := ExploreSubtree(context.Background(), wideTree, opts, disagreeCheck, leasedPrefix,
				Checkpoint{Path: path, Every: 1}, nil)
			return sum, st.SubRoots, err
		},
		"census": func(path string) (any, int, error) {
			c, st, err := RunCheckpointed(wideTree, opts, disagreeCheck, Checkpoint{Path: path, Every: 1})
			return c, st.TotalRoots, err
		},
	}
	for _, fault := range []string{"create", "enospc", "fsync"} {
		for name, walk := range walks {
			t.Run(fault+"/mid-run/"+name, func(t *testing.T) {
				durabletest.Inject(t, fault, 2, true)
				path := filepath.Join(t.TempDir(), "ck.json")
				got, roots, err := walk(path)
				if err != nil {
					t.Fatalf("a failed mid-run save stopped the walk: %v", err)
				}
				switch got := got.(type) {
				case RootSummary:
					if !reflect.DeepEqual(got, wantSum) {
						t.Fatalf("subtree\n got %+v\nwant %+v", got, wantSum)
					}
				case *Census:
					censusSame(t, fault, got, want)
					sameReps(t, fault, got, want)
				}
				// A later save covered the lost one's roots.
				if n := recorded(t, path); n != roots {
					t.Fatalf("checkpoint records %d of %d roots", n, roots)
				}
			})
			t.Run(fault+"/final/"+name, func(t *testing.T) {
				durabletest.Inject(t, fault, 3, false)
				path := filepath.Join(t.TempDir(), "ck.json")
				got, roots, err := walk(path)
				if err == nil || !reflect.ValueOf(got).IsZero() {
					t.Fatalf("failed final save: err = %v, result %+v; want an error and no result", err, got)
				}
				if n := recorded(t, path); n != 2 || roots <= 2 {
					t.Fatalf("checkpoint records %d of %d roots, want the 2 of the last good save", n, roots)
				}
			})
		}
	}
}

// TestExploreSubtreeTerminalSplit: a leased subtree whose sub-frontier
// holds terminal runs only settles no root, so it reports no sub-roots
// and no saves, and its summary is the monolithic walk's.
func TestExploreSubtreeTerminalSplit(t *testing.T) {
	opts := Options{}
	prefix := []Choice{{Pick: 0}, {Pick: 0}, {Pick: 0}, {Pick: 1}, {Pick: 1}, {Pick: 2}, {Pick: 2}}
	items := subFrontier(context.Background(), wideTree, opts.withDefaults(), prefix)
	if len(items) == 0 {
		t.Fatal("the subtree does not split")
	}
	for _, it := range items {
		if it.prefix != nil {
			t.Fatalf("the split holds a root %s", FormatSchedule(it.prefix))
		}
	}
	want, _, err := ExploreSubtree(context.Background(), wideTree, opts, nil, prefix, Checkpoint{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ck := Checkpoint{Path: filepath.Join(t.TempDir(), "item.json"), Every: 1}
	got, stats, err := ExploreSubtree(context.Background(), wideTree, opts, nil, prefix, ck, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.SubRoots != 0 || stats.Saves != 0 {
		t.Fatalf("terminal split: %d sub-roots, %d saves; want 0 and 0", stats.SubRoots, stats.Saves)
	}
	if !reflect.DeepEqual(got, want) || got.Complete == 0 {
		t.Fatalf("terminal split summary %+v, want the monolithic %+v", got, want)
	}
}

// TestExploreSubtreeSaveInterval: with a save interval a leased walk
// saves only once the last save is that old. A walk that settles every
// sub-root inside the interval writes no checkpoint and returns the
// summary of the same walk saving after every sub-root; stopped inside
// the interval it still flushes exactly the sub-roots it settled, and a
// resume credits them and lands on the same summary.
func TestExploreSubtreeSaveInterval(t *testing.T) {
	opts := Options{MaxCrashes: 1}
	want, wantStats, err := ExploreSubtree(context.Background(), wideTree, opts, disagreeCheck, leasedPrefix,
		Checkpoint{Path: filepath.Join(t.TempDir(), "every.json"), Every: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if wantStats.SubRoots <= 3 || wantStats.Saves != wantStats.SubRoots {
		t.Fatalf("walk without an interval: %d sub-roots, %d saves; want more than 3, and one save each", wantStats.SubRoots, wantStats.Saves)
	}
	hourly := func(path string) Checkpoint {
		return Checkpoint{Path: path, Every: 1, Interval: time.Hour, Resume: true}
	}

	t.Run("finished", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "item.json")
		got, stats, err := ExploreSubtree(context.Background(), wideTree, opts, disagreeCheck, leasedPrefix, hourly(path), nil)
		if err != nil {
			t.Fatal(err)
		}
		if stats.SubRoots != wantStats.SubRoots || stats.Saves != 0 {
			t.Fatalf("%d sub-roots, %d saves; want %d and 0", stats.SubRoots, stats.Saves, wantStats.SubRoots)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("a walk inside its interval left a checkpoint (stat: %v)", err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("subtree\n got %+v\nwant %+v", got, want)
		}
	})

	t.Run("stopped", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "item.json")
		log := newEventLog()
		stopped := hourly(path)
		stopped.stopAfterRoots = 3
		_, stats, err := ExploreSubtree(context.Background(), wideTree,
			Options{MaxCrashes: 1, Supervision: &Supervise{OnEvent: log.record}}, disagreeCheck, leasedPrefix, stopped, nil)
		if err != errStopped {
			t.Fatalf("stopped walk returned err=%v, want errStopped", err)
		}
		if stats.Saves != 1 {
			t.Fatalf("stopped walk saved %d times, want one flush", stats.Saves)
		}
		recorded, err := loadCheckpoint(path)
		if err != nil {
			t.Fatal(err)
		}
		if n := len(recorded.Done); n < 3 || n != len(log.resolved) || n >= stats.SubRoots {
			t.Fatalf("stopped walk recorded %d sub-roots and settled %d of %d, want the same, at least 3 and not all",
				n, len(log.resolved), stats.SubRoots)
		}
		got, resumed, err := ExploreSubtree(context.Background(), wideTree, opts, disagreeCheck, leasedPrefix, hourly(path), nil)
		if err != nil {
			t.Fatal(err)
		}
		if resumed.Resumed != len(recorded.Done) || resumed.Saves != 0 {
			t.Fatalf("resume credited %d of %d recorded sub-roots and saved %d times, want all and 0",
				resumed.Resumed, len(recorded.Done), resumed.Saves)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("resumed subtree\n got %+v\nwant %+v", got, want)
		}
	})
}
