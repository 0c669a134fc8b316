package explore

import (
	"context"
	"sync"

	"repro/internal/sim"
)

// Frontier splitting and the one root-order merge. A split census cuts
// the tree at a shallow depth into an ordered frontier of subtree roots
// (plus the terminal runs that end above the split), explores the roots
// somewhere — on the local work-stealing pool (steal.go), from a
// checkpoint file (checkpoint.go), or on remote workers through the
// exported DistPlan view below — and folds the per-root summaries back
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

// record flattens a summary into its persisted form.
func (s *summary) record(capped bool) RootSummary {
	r := RootSummary{
		Complete: s.complete, Incomplete: s.incomplete, Outcomes: s.outcomes,
		Violations: s.violations, Capped: capped,
	}
	for _, rep := range s.reps {
		r.Reps = append(r.Reps, rep.Schedule)
	}
	return r
}

// summary rebuilds a summary from its persisted form, replaying the
// recorded representative schedules to recover their Results.
func (r RootSummary) summary(b Builder, opts Options) *summary {
	s := &summary{complete: r.Complete, incomplete: r.Incomplete, outcomes: r.Outcomes, violations: r.Violations}
	for _, sched := range r.Reps {
		res, _ := replayPrefix(b, opts, sched)
		s.addRep(&rep{Outcome: Outcome{Schedule: sched, Result: res}, key: dfsKey(sched, opts.FaultModes)})
	}
	return s
}

// DistPlan is one exploration split into its frontier roots. Local
// pooled and checkpointed censuses run on it, and a coordinator process
// builds it from the same builder and options to shard the roots over
// remote workers: Prefix(i) hands out the per-root work items, Merge
// folds the returned summaries back together, and the checkpoint
// methods persist progress in the exact file format RunCheckpointed
// writes — so a job started locally can finish distributed and the
// other way round.
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

	// Local-fallback execution shares one transposition table across
	// roots.
	tableOnce sync.Once
	table     *pruneTable
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

// OptionsFingerprint renders the census-shaping option fields; a
// worker recomputes it from its own resolved options and refuses a
// work item whose fingerprint disagrees — the cross-process version of
// the checkpoint file's wrong-options refusal.
func (p *DistPlan) OptionsFingerprint() string { return p.optsFP }

// Key is the exploration's checkpoint key (options + frontier).
func (p *DistPlan) Key() uint64 { return p.key }

// ExploreRootLocal fully explores root i in this process — the
// coordinator's degraded mode when no remote workers are available.
// Roots explored locally share one transposition table. cancelled is
// true when ctx ended the attempt; the partial summary must be
// discarded.
func (p *DistPlan) ExploreRootLocal(ctx context.Context, i int) (RootSummary, bool) {
	if p.opts.Prune {
		p.tableOnce.Do(func() { p.table = newPruneTable(p.opts.PruneTableEntries) })
	}
	return exploreRoot(ctx, p.b, p.opts, p.check, p.table, p.items[i].prefix, nil)
}

// Merge folds per-root summaries back into a census in DFS root order
// (fold), so counts, outcome histograms, violation counts and recorded
// representatives all match a single-process run. Roots present in
// neither done nor failed mark the census cancelled-and-partial. Under
// an orbit partition the twins are credited from their representatives
// and the skips reported in Census.Prune.OrbitSkips; otherwise
// Census.Prune is nil: prune counters are per-process telemetry and do
// not aggregate across workers.
func (p *DistPlan) Merge(done map[int]RootSummary, failed map[int]RootFailure) *Census {
	c, orbitSkips := p.fold(newSummary(), func(i int) (*summary, bool, bool) {
		r, ok := done[i]
		if !ok {
			return nil, false, false
		}
		return r.summary(p.b, p.opts), r.Capped, true
	}, failed)
	if p.orbit != nil {
		st := &PruneStats{OrbitSkips: orbitSkips}
		p.opts.markReducers(st)
		c.Prune = st
	}
	return c
}

// fold is the one root-order merge behind every split census: the pool
// census, RunCheckpointed, Merge and ExploreSubtree's sub-roots. It
// walks the frontier in DFS order into total, classifying leaves and
// merging each root's summary, where root(i) reports root i's summary,
// whether an item of it hit MaxRuns, and whether the summary covers the
// whole subtree (settled). An orbit twin without a settled summary of
// its own is credited its representative's, renamed into the twin's
// orientation, and counted in orbitSkips; a twin of a lost
// representative shares the rep's recorded deficit. A failed root
// contributes nothing. A root neither settled nor failed leaves the
// census cancelled, though any partial count it carries is merged.
func (p *DistPlan) fold(total *summary, root func(i int) (s *summary, capped, settled bool),
	failed map[int]RootFailure) (c *Census, orbitSkips uint64) {
	exhaustive, cancelled := true, false
	var failures []RootFailure
	for i, it := range p.items {
		if it.prefix == nil {
			total.addTerminal(*it.leaf, p.check, p.opts.FaultModes)
			continue
		}
		if f, lost := failed[i]; lost {
			failures = append(failures, f)
			exhaustive = false
			continue
		}
		s, capped, settled := root(i)
		if !settled && p.orbit != nil && p.orbit.rep[i] != i {
			j := p.orbit.rep[i]
			if _, lost := failed[j]; lost {
				exhaustive = false // the rep's failure records the deficit
				continue
			}
			if s, capped, settled = root(j); settled {
				total.mergeRenamed(s, orbitRenamerRaw(p.opts.canon, p.orbit.perm[j], p.orbit.perm[i]))
				orbitSkips++
			}
		} else if s != nil {
			total.merge(s)
		}
		switch {
		case !settled:
			exhaustive, cancelled = false, true
		case capped:
			exhaustive = false
		}
	}
	c = censusFrom(total, exhaustive)
	c.FailedRoots = failures
	c.Errors = failureStrings(failures)
	c.Cancelled = cancelled
	return c, orbitSkips
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
// sub-frontier and completed sub-roots are recorded in Path, so a
// worker killed mid-subtree resumes from its last save instead of
// restarting the whole work item.
type SubtreeCheckpoint struct {
	// Path is the checkpoint file; empty disables checkpointing.
	Path string
	// Every saves after this many newly completed sub-roots (0 = 4).
	Every int
	// Resume credits Path's recorded sub-roots when it matches.
	Resume bool
}

// SubtreeStats reports what ExploreSubtree did.
type SubtreeStats struct {
	// SubRoots is the sub-frontier size (0: explored monolithically).
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
// every count to the same subtree explored inside a local census.
// beat, when non-nil, is bumped on engine progress (the caller's cue
// to renew its lease: a wedged exploration stops beating and the
// coordinator's lease expiry takes over). A context cancellation
// (lease revoked, shutdown) returns ctx's error after flushing the
// checkpoint; the partial summary is discarded.
func ExploreSubtree(ctx context.Context, b Builder, opts Options, check func(*sim.Result) error, prefix []Choice, ck SubtreeCheckpoint, beat func()) (RootSummary, SubtreeStats, error) {
	opts = opts.withDefaults()
	var table *pruneTable
	if opts.Prune {
		opts = resolveSymmetry(b, opts)
		table = newPruneTable(opts.PruneTableEntries)
	}
	var stats SubtreeStats
	if ck.Path == "" {
		r, cancelled := exploreRoot(ctx, b, opts, check, table, prefix, beat)
		if cancelled {
			return RootSummary{}, stats, ctx.Err()
		}
		return r, stats, nil
	}

	// The sub-checkpoint key extends the options fold with the work
	// item's own prefix, so files from different roots (or jobs) never
	// cross-resume. It records no frontier/options pair: a mismatched
	// file is always a fresh start.
	key := foldString(foldString(fnvOffset, optionsFingerprint(opts)), "|item:"+FormatSchedule(prefix))
	items := subFrontier(ctx, b, opts, prefix)
	mono := items == nil
	if mono {
		// Not splittable: explore monolithically, with a single-record
		// checkpoint so a completed-but-undelivered item still resumes
		// instantly.
		items = []frontierItem{{prefix: prefix}}
		key = foldString(key, "|mono")
	} else {
		key = foldFrontier(key, items)
		for _, it := range items {
			if it.prefix != nil {
				stats.SubRoots++
			}
		}
	}
	sub := &DistPlan{b: b, opts: opts, check: check, items: items, key: key}
	done := make(map[int]RootSummary)
	if ck.Resume {
		resumed, warn, _ := sub.LoadCheckpoint(ck.Path) // never refuses: no options recorded
		for i, r := range resumed {
			done[i] = r
		}
		stats.Resumed, stats.Warning = len(resumed), warn
	}
	every := ck.Every
	if every <= 0 {
		every = 4
	}
	unsaved := 0
	save := func() error {
		if err := sub.SaveCheckpoint(ck.Path, done); err != nil {
			return err
		}
		stats.Saves++
		unsaved = 0
		return nil
	}
	for i, it := range items {
		if _, ok := done[i]; ok || it.prefix == nil {
			continue
		}
		r, cancelled := exploreRoot(ctx, b, opts, check, table, it.prefix, beat)
		if cancelled {
			if !mono {
				_ = save() // flush progress; the error is the cancellation
			}
			return RootSummary{}, stats, ctx.Err()
		}
		done[i] = r
		if beat != nil {
			beat()
		}
		if unsaved++; unsaved >= every {
			if err := save(); err != nil {
				return RootSummary{}, stats, err
			}
		}
	}
	if !mono || unsaved > 0 {
		if err := save(); err != nil {
			return RootSummary{}, stats, err
		}
	}
	if mono {
		return done[0], stats, nil
	}

	// Deterministic merge in DFS sub-root order — identical to the
	// monolithic walk of the same subtree in every count and in the
	// first ≤MaxRecordedViolations representatives.
	c, _ := sub.fold(newSummary(), func(i int) (*summary, bool, bool) {
		return done[i].summary(b, opts), done[i].Capped, true
	}, nil)
	out := RootSummary{
		Complete: c.Complete, Incomplete: c.Incomplete, Outcomes: c.Outcomes,
		Violations: c.ViolationRuns, Capped: !c.Exhaustive,
	}
	for _, v := range c.Violations {
		out.Reps = append(out.Reps, v.Schedule)
	}
	return out, stats, nil
}

// exploreRoot fully explores one subtree on the calling goroutine;
// panics propagate. A true second return value means the context was
// cancelled mid-root and the partial record must be discarded.
func exploreRoot(ctx context.Context, b Builder, opts Options, check func(*sim.Result) error, table *pruneTable, prefix []Choice, beat func()) (RootSummary, bool) {
	en := &engine{b: b, opts: opts, acc: newSummary(), check: check, table: table, root: prefix, ctx: ctx, onStep: beat}
	en.run()
	if en.cancelled {
		return RootSummary{}, true
	}
	return en.acc.record(en.capped), false
}
