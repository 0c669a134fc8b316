package explore

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestCheckpointFileCompat: checkpoint files written by an earlier
// release must keep resuming. testdata/ holds one RunCheckpointed file
// killed after five roots, one ExploreSubtree file cancelled half-way
// through its item, and the census and subtree summary that release
// computed uninterrupted (want.json). Each resume must credit every
// recorded root and land on exactly those numbers, violation
// representatives included, and rewriting the recorded roots must
// reproduce the file byte for byte.
func TestCheckpointFileCompat(t *testing.T) {
	var want map[string]RootSummary
	if err := json.Unmarshal(mustRead(t, "want.json"), &want); err != nil {
		t.Fatal(err)
	}
	// Resumes rewrite their checkpoint, so each one works on a copy.
	copyFile := func(t *testing.T, name string) string {
		t.Helper()
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, mustRead(t, name), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	opts := Options{MaxCrashes: 1, Workers: 2}

	t.Run("run-checkpointed", func(t *testing.T) {
		c, stats, err := RunCheckpointed(wideTree, opts, disagreeCheck,
			Checkpoint{Path: copyFile(t, "run_checkpointed.json"), Resume: true})
		if err != nil {
			t.Fatal(err)
		}
		if stats.ResumedRoots != 5 || stats.Warning != "" {
			t.Fatalf("resume credited %d roots (warning %q), want 5 and no warning", stats.ResumedRoots, stats.Warning)
		}
		if !c.Exhaustive || c.Cancelled {
			t.Fatalf("resumed census exhaustive=%v cancelled=%v", c.Exhaustive, c.Cancelled)
		}
		got := RootSummary{Complete: c.Complete, Incomplete: c.Incomplete, Outcomes: c.Outcomes, Violations: c.ViolationRuns}
		for _, v := range c.Violations {
			got.Reps = append(got.Reps, v.Schedule)
		}
		if !reflect.DeepEqual(got, want["run_checkpointed"]) {
			t.Fatalf("resumed census\n got %+v\nwant %+v", got, want["run_checkpointed"])
		}
	})

	t.Run("rewrite", func(t *testing.T) {
		src := filepath.Join("testdata", "run_checkpointed.json")
		plan := newPlan(wideTree, opts.withDefaults(), disagreeCheck, true)
		done, warn, err := plan.LoadCheckpoint(src)
		if err != nil || warn != "" {
			t.Fatalf("load: err=%v warning=%q", err, warn)
		}
		out := filepath.Join(t.TempDir(), "rewritten.json")
		if err := plan.save(out, done); err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(out); err != nil || !bytes.Equal(got, mustRead(t, "run_checkpointed.json")) {
			t.Fatalf("rewritten checkpoint differs from the original (err=%v)", err)
		}
	})

	t.Run("legacy-err-record", func(t *testing.T) {
		// Records from before failed roots stopped being persisted carry
		// an err field: they decode, but are never credited.
		var f ckFile
		if err := json.Unmarshal(mustRead(t, "run_checkpointed.json"), &f); err != nil {
			t.Fatal(err)
		}
		r := f.Done["0"]
		r.Err = "panic: lost"
		f.Done["0"] = r
		path := filepath.Join(t.TempDir(), "legacy.json")
		if err := saveCheckpoint(path, &f); err != nil {
			t.Fatal(err)
		}
		plan := newPlan(wideTree, opts.withDefaults(), disagreeCheck, true)
		done, _, err := plan.LoadCheckpoint(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, credited := done[0]; credited || len(done) != len(f.Done)-1 {
			t.Fatalf("legacy err record credited: %d of %d roots resumed", len(done), len(f.Done))
		}
	})

	t.Run("explore-subtree", func(t *testing.T) {
		got, stats, err := ExploreSubtree(context.Background(), wideTree, opts, disagreeCheck,
			[]Choice{{Pick: 2}, {Pick: 0}},
			Checkpoint{Path: copyFile(t, "explore_subtree.json"), Resume: true}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Resumed != 7 || stats.Warning != "" {
			t.Fatalf("resume credited %d sub-roots (warning %q), want 7 and no warning", stats.Resumed, stats.Warning)
		}
		if !reflect.DeepEqual(got, want["explore_subtree"]) {
			t.Fatalf("resumed subtree\n got %+v\nwant %+v", got, want["explore_subtree"])
		}
	})
}

// mustRead reads a file from testdata/.
func mustRead(t *testing.T, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}
