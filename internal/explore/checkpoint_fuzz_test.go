package explore

import (
	"context"
	"os"
	"path/filepath"
	"testing"
)

// FuzzLoadCheckpoint feeds arbitrary bytes to the one resume routine as
// the checkpoint file of a census and of a leased subtree (the seed
// corpus holds the compat files, a truncated file, a wrong-key file, a
// legacy err record and a record with an impossible representative).
// LoadCheckpoint must never panic and must credit only roots of the
// plan, and resuming from whatever it credits must never panic. The
// resume runs the checkpoint loop under a cancelled context, so it
// folds the credited roots into a census and a subtree summary without
// exploring the rest: what the file decides, at a millisecond an input.
func FuzzLoadCheckpoint(f *testing.F) {
	census := newPlan(wideTree, Options{MaxCrashes: 1, Workers: 2}.withDefaults(), disagreeCheck, true)
	sub := subtreePlan(wideTree, census.opts, disagreeCheck, leasedPrefix,
		subFrontier(context.Background(), wideTree, census.opts, leasedPrefix))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	census.opts.Context, sub.opts.Context = ctx, ctx
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "ck.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, p := range []*distPlan{census, sub} {
			done, _, err := p.LoadCheckpoint(path)
			if err != nil {
				continue // the wrong-options refusal
			}
			for i := range done {
				if i < 0 || i >= len(p.items) || p.items[i].prefix == nil {
					t.Fatalf("credited item %d, which is not a root of the plan", i)
				}
			}
			r, _, err := p.checkpointed(nil, Checkpoint{Path: path, Resume: true}, nil, nil)
			if err != nil {
				t.Fatalf("resume: %v", err)
			}
			r.census(p)
			r.total.record(r.ids, p.opts.FaultModes, false)
		}
	})
}
