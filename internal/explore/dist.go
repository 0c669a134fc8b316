package explore

import (
	"context"
	"fmt"

	"repro/internal/sim"
)

// Frontier splitting. A census is a plan of subtree roots walked on the
// work-stealing pool (steal.go) — by its own workers or by remote ones
// at its seat (remote.go), or credited from a checkpoint file
// (checkpoint.go) — and folded back together in DFS root order
// (stealPool.fold). A split plan cuts the tree at a shallow depth into
// an ordered frontier of roots plus the terminal runs that end above
// the split; a one-root plan walks the whole tree, or the subtree under
// one prefix, as a single root. Every census shares the fold, so a
// pooled, resumed or distributed census is bit-identical in every
// count to a one-root walk. Only engine telemetry (prune table hit/miss
// counters) is process-local and not aggregated across processes.

// frontierItem is one entry of the split frontier, in DFS
// order: either a terminal run above the split (leaf) or a subtree
// root's schedule prefix.
type frontierItem struct {
	leaf   *Outcome
	prefix []Choice
}

// frontier enumerates the tree down to a split depth chosen so that
// there are comfortably more roots than workers (≥8× for load balance).
// ok is false when enumeration hit MaxRuns or the context was cancelled
// — newPlan then falls back to a one-root plan, whose one pool item
// owns the cap and cancellation of the whole census.
func frontier(b Builder, opts Options, workers int) ([]frontierItem, bool) {
	for split := 1; ; split++ {
		items, roots, ok := splitAt(opts.Context, b, opts, nil, split)
		if !ok {
			return nil, false
		}
		// Stop growing the split when there is enough parallelism, when
		// the whole tree is above the split (roots == 0), or when the
		// split would swallow the depth budget (deep narrow trees).
		if roots >= 8*workers || roots == 0 || split+1 >= opts.MaxDepth || split >= 24 {
			return items, true
		}
	}
}

// subFrontier splits the subtree rooted at prefix at a shallow depth,
// mirroring frontier's split policy relative to the prefix. nil means
// the subtree is not worth splitting (or enumeration was capped or
// cancelled) and the caller should explore it monolithically.
func subFrontier(ctx context.Context, b Builder, opts Options, prefix []Choice) []frontierItem {
	base := len(prefix)
	for split := 1; ; split++ {
		items, roots, ok := splitAt(ctx, b, opts, prefix, split)
		if !ok || (roots == 0 && split == 1) {
			return nil // capped, cancelled, or a handful of terminal runs
		}
		if roots >= 8 || roots == 0 || base+split+1 >= opts.MaxDepth || split >= 12 {
			return items
		}
	}
}

// splitAt enumerates the subtree under prefix down to split choices
// below it: every schedule still running at that depth becomes a root,
// every run ending above it a leaf.
func splitAt(ctx context.Context, b Builder, opts Options, prefix []Choice, split int) (items []frontierItem, roots int, ok bool) {
	depth := len(prefix) + split
	shallow := opts
	shallow.MaxDepth = depth
	en := &engine{b: b, opts: shallow, root: prefix, ctx: ctx, visit: func(o Outcome) bool {
		if o.Result.Halted && len(o.Schedule) == depth {
			items = append(items, frontierItem{prefix: o.Schedule})
			roots++
		} else {
			// A genuine terminal of the full tree: it completed (or hit
			// MaxStepsPerProc crashes) before the split depth.
			oc := o
			items = append(items, frontierItem{leaf: &oc})
		}
		return true
	}}
	en.run()
	return items, roots, !en.capped && !en.cancelled
}

// RootSummary is the census of one fully explored subtree root, in the
// form that crosses process boundaries and persists in checkpoint
// files: plain counts plus violation representatives flattened to
// schedules. A coordinator checkpoint written from remote results
// resumes into a local run and vice versa.
type RootSummary struct {
	Complete   int            `json:"complete"`
	Incomplete int            `json:"incomplete"`
	Outcomes   map[string]int `json:"outcomes,omitempty"`
	Violations int            `json:"violations"`
	Reps       [][]Choice     `json:"reps,omitempty"`
	Capped     bool           `json:"capped,omitempty"`
	// Err is only ever set in checkpoint records written before failed
	// roots stopped being persisted; such a record is never credited,
	// so a resume retries the root.
	Err string `json:"err,omitempty"`
}

// record flattens a summary into its persisted form: outcome IDs
// become their fingerprints and counts saturate at math.MaxInt.
func (s *summary) record(ids *outcomeIDs, modes []sim.FaultMode, capped bool) RootSummary {
	r := RootSummary{
		Complete: s.complete.int(), Incomplete: s.incomplete.int(),
		Violations: s.violations.int(), Capped: capped,
	}
	if len(s.outs) > 0 {
		r.Outcomes = make(map[string]int, len(s.outs))
		for _, o := range s.outs {
			r.Outcomes[ids.key(o.id)] = o.n.int()
		}
	}
	for _, key := range s.reps {
		r.Reps = append(r.Reps, scheduleOf(key, modes))
	}
	return r
}

// summary rebuilds a summary from its persisted form. The recorded
// representatives stay schedules; censusFrom replays the ones a census
// keeps.
func (r RootSummary) summary(ids *outcomeIDs, modes []sim.FaultMode) *summary {
	s := &summary{complete: wideOf(r.Complete), incomplete: wideOf(r.Incomplete), violations: wideOf(r.Violations)}
	for key, n := range r.Outcomes {
		s.addOutcome(ids.intern(key), wideOf(n))
	}
	for _, sched := range r.Reps {
		s.addRep(dfsKey(sched, modes))
	}
	return s
}

// distPlan is one exploration as the roots the pool walks: a frontier
// split, or one root. Every census runs on one — census daemon jobs
// among them, whose roots remote workers lease through the pool's seat
// (remote.go) — and the checkpoint methods persist its progress in the
// file format RunCheckpointed writes.
type distPlan struct {
	b     Builder
	opts  Options
	check func(*sim.Result) error
	items []frontierItem

	// orbit, when non-nil (symmetry resolved), partitions the roots
	// into symmetry-orbit representatives and twins: Roots() hands out
	// only representatives, and the fold credits each twin its rep's
	// summary renamed into the twin's orientation (orbit.go). The
	// checkpoint key and item indexing are unchanged — a checkpoint
	// written by a non-orbit run resumes exactly, recorded twins
	// included.
	orbit *orbitInfo

	// key fingerprints the exploration for its checkpoint file. A split
	// plan also records its frontier's fingerprint (frontierFP), which
	// stands in for the builder so LoadCheckpoint can refuse the same
	// exploration under other options; a one-root plan has no frontier
	// to stand in, and records zero.
	key        uint64
	optsFP     string
	frontierFP uint64
}

// newPlan is the plan of an exploration under already-resolved options:
// with split, its frontier (orbit-partitioned when symmetry resolved),
// else — and when the frontier enumeration hits MaxRuns or is
// cancelled — the one-root plan of the whole tree.
func newPlan(b Builder, opts Options, check func(*sim.Result) error, split bool) *distPlan {
	if split {
		if items, ok := frontier(b, opts, opts.workerCount()); ok {
			p := planOf(b, opts, check, items)
			p.frontierFP = foldFrontier(fnvOffset, items)
			if opts.canon != nil {
				p.orbit = orbitPartition(b, opts, items)
			}
			return p
		}
	}
	return rootPlan(b, opts, check, []Choice{})
}

// rootPlan is the one-root plan of the subtree under prefix, which must
// be non-nil (the fold reads a nil prefix as a leaf). It runs at width
// 1, so the walk is one pool item and MaxRuns caps all of it.
func rootPlan(b Builder, opts Options, check func(*sim.Result) error, prefix []Choice) *distPlan {
	opts.Workers = 1
	return planOf(b, opts, check, []frontierItem{{prefix: prefix}})
}

// planOf keys a plan of items: the checkpoint key folds the options
// fingerprint, then the items.
func planOf(b Builder, opts Options, check func(*sim.Result) error, items []frontierItem) *distPlan {
	optsFP := optionsFingerprint(opts)
	return &distPlan{
		b: b, opts: opts, check: check, items: items, optsFP: optsFP,
		key: foldFrontier(foldString(fnvOffset, optsFP), items),
	}
}

// Roots lists the indices of the distributable items — frontier
// entries that are subtree roots, not leaves. Under an orbit partition
// (symmetry on) only orbit REPRESENTATIVES are listed: their twins
// need no exploration anywhere, the fold credits them from the rep's
// summary.
func (p *distPlan) Roots() []int {
	var out []int
	for i, it := range p.items {
		if it.prefix == nil {
			continue
		}
		if p.orbit != nil && p.orbit.rep[i] != i {
			continue
		}
		out = append(out, i)
	}
	return out
}

// FingerprintOptions resolves opts against b (defaults plus the
// symmetry audit, which can flip Symmetry off) and returns the
// census-shaping fingerprint. Workers call this to verify a leased
// work item's options agree with their own resolution before
// exploring under them.
func FingerprintOptions(b Builder, opts Options) string {
	opts, _ = opts.resolve(b)
	return optionsFingerprint(opts)
}

// SubtreeStats reports what ExploreSubtree did.
type SubtreeStats struct {
	// SubRoots is the number of sub-frontier roots: 0 both for a
	// monolithic walk and for a split into terminal runs only.
	SubRoots int
	// Resumed is how many sub-roots were credited from the checkpoint.
	Resumed int
	// Saves counts checkpoint writes.
	Saves int
	// Warning is set when Resume found an unusable file.
	Warning string
}

// ExploreSubtree fully explores the subtree rooted at prefix — one
// distributed work item — and returns its summary, bit-identical in
// every count to the same subtree explored inside a local census. It is
// a one-worker pooled census of the subtree (whatever Options.Workers
// says) through the checkpoint loop: with a checkpoint path the subtree
// is split at a sub-frontier whose sub-roots are its pool roots, else
// the prefix is the one root. A symmetry audit that panics (it runs
// the builder) is an error naming the subtree, and a split that panics
// is no split. A panicking attempt is retried under the supervisor's
// policy; a sub-root lost past its attempt budget is an error naming
// it. A nil prefix is the whole tree. beat, when non-nil, is bumped on every engine step (the caller's
// cue to renew its lease: a wedged exploration stops beating and the
// coordinator's lease expiry takes over). A context cancellation (lease
// revoked, shutdown) returns ctx's error after flushing the checkpoint;
// the partial summary is discarded.
func ExploreSubtree(ctx context.Context, b Builder, opts Options, check func(*sim.Result) error, prefix []Choice, ck Checkpoint, beat func()) (RootSummary, SubtreeStats, error) {
	if prefix == nil {
		prefix = []Choice{} // the fold reads a nil prefix as a leaf
	}
	opts = opts.withDefaults()
	var table *pruneTable
	if opts.Prune {
		var err error
		if opts, err = resolveRecovering(b, opts, prefix); err != nil {
			return RootSummary{}, SubtreeStats{}, err
		}
		table = newPruneTable(opts.PruneTableEntries)
	}
	opts.Context, opts.Workers = ctx, 1
	var items []frontierItem
	if ck.Path != "" {
		items = splitRecovering(ctx, b, opts, prefix)
	}
	sub := subtreePlan(b, opts, check, prefix, items)
	var stats SubtreeStats
	if items != nil {
		stats.SubRoots = len(sub.Roots())
	}
	r, ckStats, err := sub.walk(table, ck, beat)
	stats.Resumed, stats.Saves, stats.Warning = ckStats.ResumedRoots, ckStats.Saves, ckStats.Warning
	return r, stats, err
}

// resolveRecovering is resolveSymmetry with a panic — a builder bug the
// symmetry audit runs into before any pool starts — turned into an
// error quoting the subtree's prefix and the panic.
func resolveRecovering(b Builder, opts Options, prefix []Choice) (_ Options, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("explore: subtree %q: symmetry audit: panic: %v", FormatSchedule(prefix), r)
		}
	}()
	return resolveSymmetry(b, opts), nil
}

// splitRecovering is subFrontier with a panic — a builder bug the split
// runs into before any pool starts — turned into no split: the prefix
// is then walked as one root, under the supervisor.
func splitRecovering(ctx context.Context, b Builder, opts Options, prefix []Choice) (items []frontierItem) {
	defer func() {
		if recover() != nil {
			items = nil
		}
	}()
	return subFrontier(ctx, b, opts, prefix)
}

// subtreePlan is the plan of the subtree under prefix: the sub-frontier
// items, or the prefix as the one root when items is nil. Its checkpoint
// key extends the options fold with the prefix, so files from different
// roots (or jobs) never cross-resume. It records no frontier/options
// pair: a mismatched file is always a fresh start.
func subtreePlan(b Builder, opts Options, check func(*sim.Result) error, prefix []Choice, items []frontierItem) *distPlan {
	key := foldString(foldString(fnvOffset, optionsFingerprint(opts)), "|item:"+FormatSchedule(prefix))
	if items == nil {
		items = []frontierItem{{prefix: prefix}}
		key = foldString(key, "|mono")
	} else {
		key = foldFrontier(key, items)
	}
	return &distPlan{b: b, opts: opts, check: check, items: items, key: key}
}

// walk runs the plan's roots through the checkpoint loop and folds them
// into the summary of the subtree they partition — identical to the
// monolithic walk of that subtree in every count and in the first
// ≤MaxRecordedViolations representatives. A lost root is an error
// naming it, and a cancelled walk returns the context's error.
func (p *distPlan) walk(table *pruneTable, ck Checkpoint, beat func()) (RootSummary, CheckpointStats, error) {
	r, stats, err := p.checkpointed(table, ck, beat, nil)
	switch {
	case err != nil:
		return RootSummary{}, stats, err
	case len(r.failures) > 0:
		return RootSummary{}, stats, fmt.Errorf("explore: %v", r.failures[0])
	case r.cancelled:
		return RootSummary{}, stats, p.opts.ctx().Err()
	}
	return r.total.record(r.ids, p.opts.FaultModes, !r.exhaustive || r.total.saturated()), stats, nil
}
