package explore

import (
	"context"
	"fmt"

	"repro/internal/sim"
)

// Frontier splitting and the one root-order merge. A split census cuts
// the tree at a shallow depth into an ordered frontier of subtree roots
// (plus the terminal runs that end above the split), explores the roots
// somewhere — on the work-stealing pool (steal.go), by its own workers
// or by remote ones at its seat (remote.go), or from a checkpoint file
// (checkpoint.go) — and folds the per-root summaries back
// together in DFS root order (DistPlan.fold). Every path shares that
// fold, so a pooled, resumed or distributed census is bit-identical in
// every count to a single-process sequential walk. Only engine
// telemetry (prune table hit/miss counters) is process-local and not
// aggregated across processes.

// frontierItem is one entry of the split frontier, in sequential DFS
// order: either a terminal run above the split (leaf) or a subtree
// root's schedule prefix.
type frontierItem struct {
	leaf   *Outcome
	prefix []Choice
}

// frontier enumerates the tree down to a split depth chosen so that
// there are comfortably more roots than workers (≥8× for load balance).
// ok is false when enumeration hit MaxRuns or the context was cancelled
// — the caller should fall back to a sequential walk, which owns the
// exact cap/cancel semantics.
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

// DistPlan is one exploration split into its frontier roots. Pooled and
// checkpointed censuses run on it — census daemon jobs among them, whose
// roots remote workers lease through the pool's seat (remote.go):
// Prefix(i) is a root's work item, Merge folds per-root summaries
// together, and the checkpoint methods persist progress in the file
// format RunCheckpointed writes.
type DistPlan struct {
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

	key        uint64
	optsFP     string
	frontierFP uint64
}

// NewDistPlan resolves the options (defaults, symmetry audit) and
// splits the exploration at the standard frontier. ok is false when
// the tree cannot be frontier-split under MaxRuns — the caller should
// fall back to a plain local Run, which owns the cap semantics.
func NewDistPlan(b Builder, opts Options, check func(*sim.Result) error) (*DistPlan, bool) {
	opts = opts.withDefaults()
	if opts.Prune {
		opts = resolveSymmetry(b, opts)
	}
	return newPlan(b, opts, check)
}

// newPlan is NewDistPlan for already-resolved options.
func newPlan(b Builder, opts Options, check func(*sim.Result) error) (*DistPlan, bool) {
	items, ok := frontier(b, opts, opts.workerCount())
	if !ok {
		return nil, false
	}
	optsFP := optionsFingerprint(opts)
	p := &DistPlan{
		b: b, opts: opts, check: check, items: items, optsFP: optsFP,
		key:        foldFrontier(foldString(fnvOffset, optsFP), items),
		frontierFP: foldFrontier(fnvOffset, items),
	}
	if opts.canon != nil {
		p.orbit = orbitPartition(b, opts, items)
	}
	return p, true
}

// Len is the number of frontier items (roots and above-split leaves).
func (p *DistPlan) Len() int { return len(p.items) }

// Roots lists the indices of the distributable items — frontier
// entries that are subtree roots, not leaves. Under an orbit partition
// (symmetry on) only orbit REPRESENTATIVES are listed: their twins
// need no exploration anywhere, Merge credits them from the rep's
// returned summary.
func (p *DistPlan) Roots() []int {
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

// Prefix is item i's schedule prefix (nil for a leaf).
func (p *DistPlan) Prefix(i int) []Choice { return p.items[i].prefix }

// Merge folds per-root summaries back into a census in DFS root order
// (fold), so counts, outcome histograms, violation counts and recorded
// representatives all match a single-process run. Roots present in
// neither done nor failed mark the census cancelled-and-partial. Under
// an orbit partition the twins are credited from their representatives
// and the skips reported in Census.Prune.OrbitSkips; otherwise
// Census.Prune is nil: prune counters are per-process telemetry and do
// not aggregate across workers.
func (p *DistPlan) Merge(done map[int]RootSummary, failed map[int]RootFailure) *Census {
	ids := newOutcomeIDs()
	total := newSummary()
	f := p.fold(total, ids, func(i int) (*summary, bool, bool) {
		r, ok := done[i]
		if !ok {
			return nil, false, false
		}
		return r.summary(ids, p.opts.FaultModes), r.Capped, true
	}, failed)
	c := p.census(total, ids, f)
	if p.orbit != nil {
		st := &PruneStats{OrbitSkips: f.orbitSkips}
		p.opts.markReducers(st)
		c.Prune = st
	}
	return c
}

// folded is what fold learned besides the counts it merged.
type folded struct {
	exhaustive, cancelled bool
	failures              []RootFailure
	orbitSkips            uint64
}

// fold is the one root-order merge behind every split census: the pool
// (Run, RunCheckpointed, ExploreSubtree's sub-roots) and Merge. It
// walks the frontier in DFS order into total, classifying leaves and
// merging each root's summary, where root(i) reports root i's summary,
// whether an item of it hit MaxRuns, and whether the summary covers the
// whole subtree (settled). ids interns the outcome IDs of total and of
// every summary root returns. An orbit twin without a settled summary
// of its own is credited its representative's, renamed into the twin's
// orientation, and counted in orbitSkips; a twin of a lost
// representative shares the rep's recorded deficit. A failed root
// contributes nothing. A root neither settled nor failed leaves the
// census cancelled, though any partial count it carries is merged.
func (p *DistPlan) fold(total *summary, ids *outcomeIDs, root func(i int) (s *summary, capped, settled bool),
	failed map[int]RootFailure) folded {
	f := folded{exhaustive: true}
	for i, it := range p.items {
		if it.prefix == nil {
			total.addTerminal(*it.leaf, ids, p.check, p.opts.FaultModes)
			continue
		}
		if fail, lost := failed[i]; lost {
			f.failures = append(f.failures, fail)
			f.exhaustive = false
			continue
		}
		s, capped, settled := root(i)
		if !settled && p.orbit != nil && p.orbit.rep[i] != i {
			j := p.orbit.rep[i]
			if _, lost := failed[j]; lost {
				f.exhaustive = false // the rep's failure records the deficit
				continue
			}
			if s, capped, settled = root(j); settled {
				total.merge(s, orbitRenamer(ids, p.opts.canon, p.orbit.perm[j], p.orbit.perm[i]))
				f.orbitSkips++
			}
		} else if s != nil {
			total.merge(s, nil)
		}
		switch {
		case !settled:
			f.exhaustive, f.cancelled = false, true
		case capped:
			f.exhaustive = false
		}
	}
	return f
}

// census turns a fold into the Census.
func (p *DistPlan) census(total *summary, ids *outcomeIDs, f folded) *Census {
	c := censusFrom(total, ids, p.b, p.opts, f.exhaustive)
	c.FailedRoots = f.failures
	c.Errors = failureStrings(f.failures)
	c.Cancelled = f.cancelled
	return c
}

// FingerprintOptions resolves opts against b (defaults plus the
// symmetry audit, which can flip Symmetry off) and returns the
// census-shaping fingerprint. Workers call this to verify a leased
// work item's options agree with their own resolution before
// exploring under them.
func FingerprintOptions(b Builder, opts Options) string {
	opts = opts.withDefaults()
	if opts.Prune {
		opts = resolveSymmetry(b, opts)
	}
	return optionsFingerprint(opts)
}

// SubtreeCheckpoint configures ExploreSubtree's in-flight progress
// persistence: the leased subtree is split again at a shallow
// sub-frontier and settled sub-roots are recorded in Path, so a worker
// killed mid-subtree resumes from its last save instead of restarting
// the whole work item. It is the checkpoint loop's one config.
type SubtreeCheckpoint = Checkpoint

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
// it. beat, when non-nil, is bumped on every engine step (the caller's
// cue to renew its lease: a wedged exploration stops beating and the
// coordinator's lease expiry takes over). A context cancellation (lease
// revoked, shutdown) returns ctx's error after flushing the checkpoint;
// the partial summary is discarded.
func ExploreSubtree(ctx context.Context, b Builder, opts Options, check func(*sim.Result) error, prefix []Choice, ck SubtreeCheckpoint, beat func()) (RootSummary, SubtreeStats, error) {
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
func subtreePlan(b Builder, opts Options, check func(*sim.Result) error, prefix []Choice, items []frontierItem) *DistPlan {
	key := foldString(foldString(fnvOffset, optionsFingerprint(opts)), "|item:"+FormatSchedule(prefix))
	if items == nil {
		items = []frontierItem{{prefix: prefix}}
		key = foldString(key, "|mono")
	} else {
		key = foldFrontier(key, items)
	}
	return &DistPlan{b: b, opts: opts, check: check, items: items, key: key}
}

// walk runs the plan's roots through the checkpoint loop and folds them
// into the summary of the subtree they partition — identical to the
// monolithic walk of that subtree in every count and in the first
// ≤MaxRecordedViolations representatives. A lost root is an error
// naming it, and a cancelled walk returns the context's error.
func (p *DistPlan) walk(table *pruneTable, ck Checkpoint, beat func()) (RootSummary, CheckpointStats, error) {
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
