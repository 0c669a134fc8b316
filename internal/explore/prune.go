package explore

import (
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/sim"
)

// Transposition pruning for census exploration. Different schedule
// prefixes often reconverge to the same global state (commuting steps
// of different processes being the canonical case); once the subtree
// under a state has been fully censused, every later prefix reaching
// the same state can be credited the stored summary instead of being
// re-walked.
//
// Soundness (see DESIGN.md for the full argument): processes are
// deterministic and interact only through gated operations, so a
// process's local state is a function of its observation history, and
// the global state is (object states, per-process observation
// histories, per-process status). sim.StateHash fingerprints exactly
// that. Two nodes with equal fingerprints AND equal remaining depth AND
// equal remaining crash budget therefore root identical subtrees: the
// same choice sequences are legal below both, and each produces
// Results equal in every field a census or check can observe (decided
// values, errors, step counts, halt status). Run counts, outcome
// histograms and violation counts transfer exactly; only the recorded
// representative schedules may differ (they come from the first
// encounter). Equality is up to hash collision over a 64-bit FNV-1a —
// TestPrunedCensusMatchesUnpruned cross-checks pruned against unpruned
// censuses over the whole small-instance matrix.

// tableKey identifies a subtree: the state fingerprint plus the
// remaining exploration budgets, all of which shape the subtree. The
// object-fault budget is a key dimension exactly like the crash budget:
// two equal-fingerprint nodes with different remaining fault budgets
// root different subtrees (one can still branch faults, the other
// cannot). FaultModes is fixed per exploration, so it needs no key
// dimension.
type tableKey struct {
	fp       uint64
	depthRem int
	crashRem int
	faultRem int
}

// summary is the census of one fully explored subtree. The outcomes
// map is allocated lazily on the first complete run: most frames in a
// deep walk pop before seeing one, and engines recycle unpublished
// summaries through a freelist, so the map is both rare and reused.
// Every addition saturates at math.MaxInt (satAdd): credited subtree
// totals multiply along a pruned walk and can outgrow int64, and a
// saturated census reports itself capped (censusFrom) instead of
// wrapping into nonsense.
type summary struct {
	complete   int
	incomplete int
	outcomes   map[string]int // complete runs by decision fingerprint
	violations int            // complete runs failing the check
	reps       []*rep         // ≤ MaxRecordedViolations, first in DFS order
}

// rep is one recorded violation representative with its dfsKey. The
// key makes representative merging order-free: whatever order subtree
// summaries are merged in — frame pops, table hits, work-stealing items
// resolving in any order, checkpointed roots — a summary keeps the
// violating runs that come first in the walk's DFS order, so a parallel
// census records exactly the sequential walk's representatives. Merges
// share reps by pointer; a rep is immutable once recorded.
type rep struct {
	Outcome
	key string
}

func newSummary() *summary {
	return &summary{}
}

// satAdd adds two non-negative counts, saturating at math.MaxInt
// instead of wrapping.
func satAdd(a, b int) int {
	if a > math.MaxInt-b {
		return math.MaxInt
	}
	return a + b
}

// runs is the summary's terminal-run total, saturating.
func (s *summary) runs() int { return satAdd(s.complete, s.incomplete) }

// saturated reports whether some count hit math.MaxInt: the census is
// then a lower bound, not an exact count.
func (s *summary) saturated() bool {
	if s.complete == math.MaxInt || s.incomplete == math.MaxInt || s.violations == math.MaxInt {
		return true
	}
	for _, v := range s.outcomes {
		if v == math.MaxInt {
			return true
		}
	}
	return false
}

// reset clears the summary for reuse, retaining the outcomes map's
// buckets. Reps are zeroed before truncation so recycled summaries do
// not pin retired Results.
func (s *summary) reset() {
	s.complete, s.incomplete, s.violations = 0, 0, 0
	clear(s.outcomes)
	clear(s.reps)
	s.reps = s.reps[:0]
}

// addTerminal classifies one terminal run into the summary; modes is
// the walk's fault-mode enumeration order (Options.FaultModes), which
// fixes the DFS order of fault choices. retained reports that the
// Outcome (and its Result) was stored as a violation representative and
// must stay valid — the caller's cue to stop recycling any scratch
// buffers the Result aliases.
func (s *summary) addTerminal(o Outcome, check func(*sim.Result) error, modes []sim.FaultMode) (retained bool) {
	if o.Result.Halted {
		s.incomplete = satAdd(s.incomplete, 1)
		return false
	}
	s.complete = satAdd(s.complete, 1)
	if s.outcomes == nil {
		s.outcomes = make(map[string]int)
	}
	fp := DecisionFingerprint(o.Result)
	s.outcomes[fp] = satAdd(s.outcomes[fp], 1)
	if check != nil {
		if err := check(o.Result); err != nil {
			s.violations = satAdd(s.violations, 1)
			return s.addRep(&rep{Outcome: o, key: dfsKey(o.Schedule, modes)})
		}
	}
	return false
}

// addRep inserts r in key order unless its schedule is already
// recorded, keeping the first MaxRecordedViolations. It reports whether
// r was stored.
func (s *summary) addRep(r *rep) bool {
	i := len(s.reps)
	for i > 0 && r.key < s.reps[i-1].key { // walks arrive in DFS order: usually i stays put
		i--
	}
	if i >= MaxRecordedViolations || (i > 0 && s.reps[i-1].key == r.key) {
		return false
	}
	if len(s.reps) < MaxRecordedViolations {
		s.reps = append(s.reps, nil)
	}
	copy(s.reps[i+1:], s.reps[i:]) // drops the last rep when full
	s.reps[i] = r
	return true
}

// dfsKey encodes a schedule so that byte order is the walk's DFS child
// order (engine.childChoice): per choice its child class — plain pick,
// crash, then one class per fault mode in modes order — followed by
// the process ID. Ready sets are sorted, so within a class the process
// ID is the child order.
func dfsKey(sched []Choice, modes []sim.FaultMode) string {
	b := make([]byte, 0, 3*len(sched))
	for _, c := range sched {
		class := 0
		switch {
		case c.Crash:
			class = 1
		case c.Fault != sim.FaultNone:
			class = 2 + len(modes)
			for i, m := range modes {
				if m == c.Fault {
					class = 2 + i
					break
				}
			}
		}
		b = append(b, byte(class), byte(c.Pick>>8), byte(c.Pick))
	}
	return string(b)
}

// merge folds t into s. t is never mutated: published table entries are
// shared and must stay immutable.
func (s *summary) merge(t *summary) { s.mergeRenamed(t, nil) }

// mergeRenamed is merge with every outcome key mapped through rename —
// the translation step of symmetry-canonical table storage. A summary
// stored at canonical orientation π holds outcome keys renamed under π;
// publishing merges under π, consuming a hit merges under π⁻¹ (see
// engine.popFrame and engine.run). Counts transfer untouched; violation
// representatives keep their first-encounter schedules unrenamed (the
// replayability contract is per-schedule, not per-hit-point). A nil
// rename is plain merge.
func (s *summary) mergeRenamed(t *summary, rename func(string) string) {
	s.complete = satAdd(s.complete, t.complete)
	s.incomplete = satAdd(s.incomplete, t.incomplete)
	if len(t.outcomes) > 0 && s.outcomes == nil {
		s.outcomes = make(map[string]int)
	}
	for k, v := range t.outcomes {
		if rename != nil {
			k = rename(k)
		}
		s.outcomes[k] = satAdd(s.outcomes[k], v)
	}
	s.violations = satAdd(s.violations, t.violations)
	for _, r := range t.reps {
		s.addRep(r)
	}
}

// maxTableEntries caps the transposition table's memory when
// Options.PruneTableEntries is zero. Beyond the cap the OLDEST entries
// are evicted FIFO — an evicted subtree is simply re-walked on its next
// encounter, so pruning degrades under memory pressure but census
// counts never do. FIFO (rather than LRU) keeps get() contention-free
// under a read lock; in a DFS the oldest published subtrees are the
// deepest ones, which are also the cheapest to re-walk.
const maxTableEntries = 1 << 20

// pruneShardCount is the number of lock stripes of a full-size table.
// Keys are spread by a mixed fingerprint, so with 64 stripes the
// probability that two concurrent workers collide on a stripe lock is
// ~1/64 per access pair — the single global RWMutex this replaces was
// the measured bottleneck of the shared-table parallel census.
const pruneShardCount = 64

// PruneStats reports transposition-table and work-stealing activity of
// one pruned census, so speedups (or their absence) are attributable:
// a high hit rate with low steals means the table carried the run; a
// high donation count means the frontier partition was uneven and
// stealing did the balancing.
type PruneStats struct {
	// Hits and Misses count table lookups at decision points.
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	// Stores counts published subtree summaries; Evictions counts
	// entries dropped by the FIFO budget.
	Stores    uint64 `json:"stores"`
	Evictions uint64 `json:"evictions"`
	// Donations counts subtrees split off mid-walk by busy workers;
	// Steals counts donated subtrees claimed by a different worker than
	// their donor. Both are zero for sequential censuses.
	Donations uint64 `json:"donations"`
	Steals    uint64 `json:"steals"`
	// Probes counts system replays (one per terminal run or table hit) —
	// the "explored executions" a schedule-space reducer is trying to
	// cut. SymmetryHits counts table hits consumed at a non-identity
	// canonical orientation (states recognized only thanks to symmetry);
	// SleepSkips counts sibling subtrees credited at backtrack time via
	// an independence pair memo, each of which saved one whole probe.
	Probes       uint64 `json:"probes,omitempty"`
	SymmetryHits uint64 `json:"symmetry_hits,omitempty"`
	SleepSkips   uint64 `json:"sleep_skips,omitempty"`
	// OrbitSkips counts frontier roots skipped at GENERATION time
	// because their state lies in the symmetry orbit of an earlier
	// root (orbit.go): each was credited its representative's summary
	// — renamed into its own orientation — without ever being enqueued
	// or explored. Zero for sequential censuses and when symmetry is
	// off.
	OrbitSkips uint64 `json:"orbit_skips,omitempty"`
	// SymmetryOn/SleepSetsOn record which reducers were ACTIVE (symmetry
	// may be refused even when requested); SymmetryNote says why it was
	// refused, empty otherwise.
	SymmetryOn   bool   `json:"symmetry_on,omitempty"`
	SleepSetsOn  bool   `json:"sleep_sets_on,omitempty"`
	SymmetryNote string `json:"symmetry_note,omitempty"`
}

// pruneShard is one lock stripe of the table.
type pruneShard struct {
	mu sync.RWMutex
	m  map[tableKey]*summary
	// order is the FIFO insertion log; entries before head are already
	// evicted. Duplicate publishes are dropped at put, so every entry
	// from head on is live in m.
	order []tableKey
	head  int
}

// pruneTable is the transposition table shared by ALL workers of a
// parallel census. Entries are only ever inserted after their subtree
// is fully explored, so concurrent workers need no in-progress marker:
// whichever worker publishes first wins (put is first-writer-wins and
// reports whether it stored), later publishers' values are
// interchangeable by the soundness argument above, and published
// summaries are immutable from that point on. The table is striped
// into pruneShardCount lock shards; a table with a small entry budget
// collapses to one shard so the FIFO eviction bound stays exact.
type pruneTable struct {
	shards   []pruneShard
	shardCap int

	hits, misses, stores, evictions atomic.Uint64
	probes, symHits, sleepSkips     atomic.Uint64
}

func newPruneTable(capacity int) *pruneTable {
	if capacity <= 0 {
		capacity = maxTableEntries
	}
	n := pruneShardCount
	if capacity < 1024 {
		// A tiny budget split 64 ways would round each shard's cap up
		// and overshoot the requested total; one shard keeps the bound
		// exact where it matters (explicit small PruneTableEntries).
		n = 1
	}
	t := &pruneTable{shards: make([]pruneShard, n), shardCap: (capacity + n - 1) / n}
	for i := range t.shards {
		t.shards[i].m = make(map[tableKey]*summary)
	}
	return t
}

// shard maps a key to its stripe: the fingerprint is already a hash,
// so mix the budget dimensions in and take high bits.
func (t *pruneTable) shard(k tableKey) *pruneShard {
	if len(t.shards) == 1 {
		return &t.shards[0]
	}
	h := k.fp ^ uint64(k.depthRem)<<1 ^ uint64(k.crashRem)<<32 ^ uint64(k.faultRem)<<48
	h *= 0x9e3779b97f4a7c15 // Fibonacci mix: budgets perturb low bits, shard index needs high ones
	return &t.shards[(h>>58)&uint64(len(t.shards)-1)]
}

func (t *pruneTable) get(k tableKey) (*summary, bool) {
	sh := t.shard(k)
	sh.mu.RLock()
	s, ok := sh.m[k]
	sh.mu.RUnlock()
	if ok {
		t.hits.Add(1)
	} else {
		t.misses.Add(1)
	}
	return s, ok
}

// put publishes a fully-explored subtree summary, first-writer-wins.
// It reports whether s was stored: a stored summary is owned by the
// table (shared, immutable — callers must not recycle or mutate it),
// a rejected one stays owned by the caller.
func (t *pruneTable) put(k tableKey, s *summary) bool {
	sh := t.shard(k)
	sh.mu.Lock()
	if _, ok := sh.m[k]; ok {
		sh.mu.Unlock()
		return false // concurrent worker published first; values are interchangeable
	}
	sh.m[k] = s
	sh.order = append(sh.order, k)
	evicted := 0
	for len(sh.m) > t.shardCap {
		delete(sh.m, sh.order[sh.head])
		sh.head++
		evicted++
	}
	// Compact the evicted prefix once it dominates the log, so a
	// long-running census at the cap does not grow order unboundedly.
	if sh.head > 1024 && sh.head > len(sh.order)/2 {
		sh.order = append([]tableKey(nil), sh.order[sh.head:]...)
		sh.head = 0
	}
	sh.mu.Unlock()
	t.stores.Add(1)
	if evicted > 0 {
		t.evictions.Add(uint64(evicted))
	}
	return true
}

// size reports the live entry count (tests).
func (t *pruneTable) size() int {
	n := 0
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.RLock()
		n += len(sh.m)
		sh.mu.RUnlock()
	}
	return n
}

// statsSnapshot captures the table-side counters (donation counters
// are merged in by the steal pool).
func (t *pruneTable) statsSnapshot() *PruneStats {
	return &PruneStats{
		Hits:         t.hits.Load(),
		Misses:       t.misses.Load(),
		Stores:       t.stores.Load(),
		Evictions:    t.evictions.Load(),
		Probes:       t.probes.Load(),
		SymmetryHits: t.symHits.Load(),
		SleepSkips:   t.sleepSkips.Load(),
	}
}

// markReducers stamps the active-reducer flags onto a stats snapshot.
func (o Options) markReducers(st *PruneStats) {
	st.SymmetryOn = o.canon != nil
	st.SleepSetsOn = o.SleepSets
	st.SymmetryNote = o.symNote
}

// censusFrom turns a root accumulator into a Census. A saturated count
// makes the census capped: exhaustive is forced false.
func censusFrom(acc *summary, exhaustive bool) *Census {
	out := acc.outcomes
	if out == nil {
		out = make(map[string]int)
	}
	var violations []Outcome
	for _, r := range acc.reps {
		violations = append(violations, r.Outcome)
	}
	return &Census{
		Complete:      acc.complete,
		Incomplete:    acc.incomplete,
		Outcomes:      out,
		Violations:    violations,
		ViolationRuns: acc.violations,
		Exhaustive:    exhaustive && !acc.saturated(),
	}
}

// symmetryAuditRounds/Steps size the empirical equivariance audit run
// once per census before symmetry reduction is allowed on (see
// sim.AuditSymmetry). A handful of rotated schedules times every group
// element catches every spec mistake the test suite has produced;
// structural validation (NewCanonicalizer) catches the rest.
const (
	symmetryAuditRounds = 3
	symmetryAuditSteps  = 64
)

// resolveSymmetry turns Options.Symmetry into a working Canonicalizer,
// or off. The builder's probe system (built, never run) supplies the
// declared spec and the object shape; structural validation and the
// equivariance audit must BOTH pass, otherwise the census proceeds
// unreduced with the refusal recorded — requested-but-unsound symmetry
// is a degraded run, never a wrong one.
func resolveSymmetry(b Builder, opts Options) Options {
	if !opts.Symmetry {
		return opts
	}
	opts.Symmetry = false
	probe := b()
	spec := probe.SymmetrySpec()
	if spec == nil {
		opts.symNote = "symmetry off: builder declares no sim.Symmetry spec"
		return opts
	}
	canon, err := sim.NewCanonicalizer(probe, spec)
	if err != nil {
		opts.symNote = "symmetry off: " + err.Error()
		return opts
	}
	if err := sim.AuditSymmetry(b, canon, symmetryAuditRounds, symmetryAuditSteps); err != nil {
		opts.symNote = "symmetry off: " + err.Error()
		return opts
	}
	opts.Symmetry = true
	opts.canon = canon
	return opts
}
