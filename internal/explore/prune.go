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

// maxTableEntries caps the transposition table's entry count when
// Options.PruneTableEntries is zero. At the cap a new entry replaces
// the entry of its bucket whose subtree cost the fewest probes (see
// pruneTable.put). An evicted subtree is
// simply re-walked on its next encounter, so pruning degrades under
// memory pressure but census counts never do.
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
	// stored entries the entry budget dropped to make room.
	Stores    uint64 `json:"stores"`
	Evictions uint64 `json:"evictions"`
	// LostPublishes counts publishes refused because another worker
	// had stored the same key first: a subtree walked twice. Zero for
	// one-worker censuses.
	LostPublishes uint64 `json:"lost_publishes,omitempty"`
	// Donations counts subtrees split off mid-walk by busy workers;
	// Steals counts donated subtrees claimed by a different worker than
	// their donor. Both are zero for one-worker censuses.
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
	// or explored. Zero for one-root censuses (Run at one worker) and
	// when symmetry is off.
	OrbitSkips uint64 `json:"orbit_skips,omitempty"`
	// SymmetryOn/SleepSetsOn record which reducers were ACTIVE (symmetry
	// may be refused even when requested); SymmetryNote says why it was
	// refused, empty otherwise.
	SymmetryOn   bool   `json:"symmetry_on,omitempty"`
	SleepSetsOn  bool   `json:"sleep_sets_on,omitempty"`
	SymmetryNote string `json:"symmetry_note,omitempty"`
}

// The table's slots and arenas hold no Go pointers, so the garbage
// collector never scans them. Each stripe is an open-addressed array of fixed-size buckets
// (linear probing from bucket to bucket) over two append-only arenas:
// words for the counts and outcome pairs of every entry, bytes for the
// dfsKeys of its violation representatives. A stripe allocates on its
// first store and doubles whenever it would pass 3/4 load, until it
// holds its share of the entry cap. From then on a store evicts: of the
// entries of the newcomer's home bucket (or, when that bucket holds
// none, of the next bucket that does), the one whose subtree cost the
// fewest probes to walk is dropped — the "big" replacement scheme of
// Breuker, Uiterwijk & van den Herik, "Replacement Schemes for
// Transposition Tables" (ICCA Journal 1994), with the newcomer always
// stored, so a walk keeps the entries it is about to hit.
// A slot evicted outside the newcomer's probe chain becomes a
// tombstone, which the next rehash clears; the arena space of evicted
// entries is reclaimed by compaction once it is half the arena.

// bucketSlots is the number of slots in one bucket.
const bucketSlots = 4

// minShardSlots is a stripe's size at its first store.
const minShardSlots = 4 * bucketSlots

// entryHead is the fixed part of an entry in a stripe's word arena:
//
//	w[0]    number of outcome pairs | number of reps << 32
//	w[1:7]  complete, incomplete, violations (hi, lo each)
//
// followed by one (id, hi, lo) triple per outcome, ascending IDs, and
// one word per representative: its byte-arena ref << 32 | length.
const entryHead = 7

// entryLen is the word length of the entry starting at w.
func entryLen(w []uint64) int { return entryHead + 3*int(uint32(w[0])) + int(w[0]>>32) }

// tombstone marks an evicted slot in a probe chain.
const tombstone = math.MaxUint32

// slot is one table entry: its key, its arena ref plus one (0: empty,
// tombstone: evicted), and the probes its subtree cost to walk, the
// replacement priority.
type slot struct {
	key  tableKey
	off  uint32
	cost uint32
}

// pruneShard is one lock stripe of the table.
type pruneShard struct {
	mu    sync.RWMutex
	slots []slot // a power-of-two number of buckets; nil before the first store
	words arena[uint64]
	bytes arena[byte] // representative keys
	live  int         // entries stored
	tombs int         // tombstoned slots
	// deadWords is the word-arena space of evicted entries.
	deadWords int
}

// arena is an append-only store of records in chunks that never move:
// the first chunk is small and each later one doubles up to
// arenaChunk elements, so a nearly empty stripe stays small and a full
// one never copies what it holds. A record is addressed by a ref, its
// chunk index << 16 | its position in the chunk.
type arena[T uint64 | byte] struct {
	chunks [][]T
	n      int // elements written
}

const (
	arenaFirst = 64
	arenaChunk = 1 << 13 // positions must fit 16 bits
)

// alloc returns the ref of a new n-element record and the record.
func (a *arena[T]) alloc(n int) (uint32, []T) {
	last := len(a.chunks) - 1
	if last < 0 || len(a.chunks[last])+n > cap(a.chunks[last]) {
		size := arenaFirst
		if last >= 0 {
			size = min(2*cap(a.chunks[last]), arenaChunk)
		}
		if len(a.chunks) >= 1<<16 {
			panic("explore: prune-table stripe arena exceeds 2^16 chunks")
		}
		a.chunks = append(a.chunks, make([]T, 0, max(size, n))) // an outsize record gets a chunk of its own
		last++
	}
	c := a.chunks[last]
	pos := len(c)
	a.chunks[last] = c[:pos+n]
	a.n += n
	return uint32(last)<<16 | uint32(pos), a.chunks[last][pos : pos+n : pos+n]
}

// at returns the record at ref, up to the end of its chunk.
func (a *arena[T]) at(ref uint32) []T { return a.chunks[ref>>16][ref&0xffff:] }

// pruneTable is the transposition table shared by ALL workers of a
// parallel census. Entries are only ever inserted after their subtree
// is fully explored, so concurrent workers need no in-progress marker:
// whichever worker publishes first wins (put is first-writer-wins and
// reports whether it stored), later publishers' values are
// interchangeable by the soundness argument above, and an entry never
// changes once stored. The table is striped into pruneShardCount lock
// shards; a table with a small entry budget collapses to one shard so
// the entry bound stays exact. ids interns the outcome IDs of every
// summary the table and its census hold.
type pruneTable struct {
	shards   []pruneShard
	shardCap int
	ids      *outcomeIDs

	hits, misses, stores, evictions, lost atomic.Uint64
	probes, symHits, sleepSkips           atomic.Uint64
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
	return &pruneTable{shards: make([]pruneShard, n), shardCap: (capacity + n - 1) / n, ids: newOutcomeIDs()}
}

// hash mixes the budget dimensions into the fingerprint. The high bits
// pick the stripe, the middle ones the home bucket within it.
func (k tableKey) hash() uint64 {
	h := k.fp ^ uint64(k.depthRem)<<1 ^ uint64(k.crashRem)<<32 ^ uint64(k.faultRem)<<48
	return h * 0x9e3779b97f4a7c15 // Fibonacci mix: budgets perturb low bits, the indexes need high ones
}

func (t *pruneTable) shard(h uint64) *pruneShard {
	return &t.shards[(h>>58)&uint64(len(t.shards)-1)]
}

// home is the bucket a key's probe chain starts at.
func (sh *pruneShard) home(h uint64) int {
	return int(h>>26) & (len(sh.slots)/bucketSlots - 1)
}

// find walks k's probe chain. It returns the slot holding k (found), or
// else where k would be stored: the chain's first tombstone, or the
// empty slot that ends it. Load stays at most 3/4, so a chain ends.
func (sh *pruneShard) find(k tableKey, h uint64) (i int, found bool) {
	free := -1
	mask := len(sh.slots)/bucketSlots - 1
	for b := sh.home(h); ; b = (b + 1) & mask {
		for i := b * bucketSlots; i < (b+1)*bucketSlots; i++ {
			switch s := &sh.slots[i]; {
			case s.off == 0:
				if free < 0 {
					free = i
				}
				return free, false
			case s.off == tombstone:
				if free < 0 {
					free = i
				}
			case s.key == k:
				return i, true
			}
		}
	}
}

// get merges the summary stored under k into acc, its outcome IDs
// mapped through ren (nil: unchanged), under the stripe's read lock,
// and returns its run total. short reports an entry holding an ID ren
// does not cover yet (stored by another worker after the caller built
// ren): nothing was merged or counted, and the caller retries with a
// fresh ren.
func (t *pruneTable) get(k tableKey, acc *summary, ren []uint32) (runs int, hit, short bool) {
	h := k.hash()
	sh := t.shard(h)
	sh.mu.RLock()
	if sh.slots != nil {
		if i, ok := sh.find(k, h); ok {
			runs, short = sh.mergeInto(sh.slots[i].off, acc, ren)
			hit = !short
		}
	}
	sh.mu.RUnlock()
	switch {
	case hit:
		t.hits.Add(1)
	case !short:
		t.misses.Add(1)
	}
	return runs, hit, short
}

// mergeInto merges the entry of slot offset off into acc; see get.
func (sh *pruneShard) mergeInto(off uint32, acc *summary, ren []uint32) (runs int, short bool) {
	w := sh.words.at(off - 1)
	nOut, nReps := int(uint32(w[0])), int(w[0]>>32)
	outs := w[entryHead : entryHead+3*nOut]
	if ren != nil {
		for i := 0; i < len(outs); i += 3 {
			if outs[i] >= uint64(len(ren)) {
				return 0, true
			}
		}
	}
	total := wide{w[1], w[2]}
	total.add(wide{w[3], w[4]})
	acc.complete.add(wide{w[1], w[2]})
	acc.incomplete.add(wide{w[3], w[4]})
	acc.violations.add(wide{w[5], w[6]})
	for i := 0; i < len(outs); i += 3 {
		id := uint32(outs[i])
		if ren != nil {
			id = ren[id]
		}
		acc.addOutcome(id, wide{outs[i+1], outs[i+2]})
	}
	for _, r := range w[entryHead+3*nOut : entryHead+3*nOut+nReps] {
		acc.addRepBytes(sh.bytes.at(uint32(r >> 32))[:uint32(r)])
	}
	return total.int(), false
}

// put publishes the summary of a fully explored subtree, whose walk
// took cost probes, first-writer-wins. It reports whether s was stored;
// the table copies it, so s stays the caller's either way. A key
// another worker stored first is a lost publish.
func (t *pruneTable) put(k tableKey, s *summary, cost uint32) bool {
	h := k.hash()
	sh := t.shard(h)
	sh.mu.Lock()
	if sh.slots == nil {
		sh.slots = make([]slot, minShardSlots)
	}
	i, found := sh.find(k, h)
	if found {
		sh.mu.Unlock()
		t.lost.Add(1)
		return false // a concurrent worker published first; values are interchangeable
	}
	evicted := sh.live >= t.shardCap
	if evicted {
		sh.evict(sh.victim(h))
		i, _ = sh.find(k, h)
	}
	if sh.slots[i].off == 0 && (sh.live+sh.tombs+1)*4 > len(sh.slots)*3 {
		// Spending an empty slot would pass 3/4 load. Double, unless
		// tombstones make up enough of the load that clearing them
		// leaves an eighth of the slots free.
		size := len(sh.slots)
		if (sh.live+1)*8 > size*5 {
			size *= 2
		}
		sh.rehash(size)
		i, _ = sh.find(k, h)
	}
	if sh.slots[i].off == tombstone {
		sh.tombs--
	}
	sh.slots[i] = slot{key: k, off: sh.write(s) + 1, cost: cost}
	sh.live++
	if sh.deadWords > arenaChunk && sh.deadWords*2 > sh.words.n {
		sh.compact()
	}
	sh.mu.Unlock()
	t.stores.Add(1)
	if evicted {
		t.evictions.Add(1)
	}
	return true
}

// victim picks the entry a newcomer with hash h evicts at the cap: the
// cheapest entry of its home bucket, or of the first bucket after it
// holding any. The stripe holds at least one entry.
func (sh *pruneShard) victim(h uint64) int {
	nb := len(sh.slots) / bucketSlots
	for b := sh.home(h); ; b = (b + 1) % nb {
		v := -1
		for i := b * bucketSlots; i < (b+1)*bucketSlots; i++ {
			if o := sh.slots[i].off; o != 0 && o != tombstone && (v < 0 || sh.slots[i].cost < sh.slots[v].cost) {
				v = i
			}
		}
		if v >= 0 {
			return v
		}
	}
}

// evict drops the entry in slot i: the slot becomes a tombstone, so
// probe chains through it stay intact, and its arena space is dead.
func (sh *pruneShard) evict(i int) {
	sh.deadWords += entryLen(sh.words.at(sh.slots[i].off - 1))
	sh.slots[i].off = tombstone
	sh.tombs++
	sh.live--
}

// write copies s into the arenas and returns its word-arena ref.
func (sh *pruneShard) write(s *summary) uint32 {
	ref, w := sh.words.alloc(entryHead + 3*len(s.outs) + len(s.reps))
	w[0] = uint64(len(s.outs)) | uint64(len(s.reps))<<32
	w[1], w[2], w[3], w[4] = s.complete.hi, s.complete.lo, s.incomplete.hi, s.incomplete.lo
	w[5], w[6] = s.violations.hi, s.violations.lo
	p := w[entryHead:]
	for _, o := range s.outs {
		p[0], p[1], p[2] = uint64(o.id), o.n.hi, o.n.lo
		p = p[3:]
	}
	for i, r := range s.reps {
		at, b := sh.bytes.alloc(len(r))
		copy(b, r)
		p[i] = uint64(at)<<32 | uint64(len(r))
	}
	return ref
}

// rehash moves the live entries into size slots, clearing tombstones.
func (sh *pruneShard) rehash(size int) {
	old := sh.slots
	sh.slots = make([]slot, size)
	sh.tombs = 0
	for _, s := range old {
		if s.off != 0 && s.off != tombstone {
			i, _ := sh.find(s.key, s.key.hash())
			sh.slots[i] = s
		}
	}
}

// compact copies the live entries into fresh arenas, dropping the space
// of evicted ones.
func (sh *pruneShard) compact() {
	words, bytes := sh.words, sh.bytes
	sh.words, sh.bytes, sh.deadWords = arena[uint64]{}, arena[byte]{}, 0
	for i := range sh.slots {
		s := &sh.slots[i]
		if s.off == 0 || s.off == tombstone {
			continue
		}
		src := words.at(s.off - 1)
		ref, w := sh.words.alloc(entryLen(src))
		copy(w, src)
		for j := entryHead + 3*int(uint32(w[0])); j < len(w); j++ {
			n := uint32(w[j])
			at, b := sh.bytes.alloc(int(n))
			copy(b, bytes.at(uint32(w[j] >> 32))[:n])
			w[j] = uint64(at)<<32 | uint64(n)
		}
		s.off = ref + 1
	}
}

// size reports the live entry count (tests).
func (t *pruneTable) size() int {
	n := 0
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.RLock()
		n += sh.live
		sh.mu.RUnlock()
	}
	return n
}

// statsSnapshot captures the table-side counters (donation counters
// are merged in by the steal pool).
func (t *pruneTable) statsSnapshot() *PruneStats {
	return &PruneStats{
		Hits:          t.hits.Load(),
		Misses:        t.misses.Load(),
		Stores:        t.stores.Load(),
		Evictions:     t.evictions.Load(),
		LostPublishes: t.lost.Load(),
		Probes:        t.probes.Load(),
		SymmetryHits:  t.symHits.Load(),
		SleepSkips:    t.sleepSkips.Load(),
	}
}

// markReducers stamps the active-reducer flags onto a stats snapshot.
func (o Options) markReducers(st *PruneStats) {
	st.SymmetryOn = o.canon != nil
	st.SleepSetsOn = o.SleepSets
	st.SymmetryNote = o.symNote
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
