package explore

import (
	"math"
	"math/bits"
	"reflect"
	"sync"

	"repro/internal/sim"
)

// Census memory. A census counts terminal runs by outcome, and a pruned
// census credits whole subtrees at a time, so its counts outgrow int64
// long before its work does. Counting is therefore done in 128-bit
// words (wide), outcomes are dense uint32 IDs instead of strings
// (outcomeIDs), and a subtree summary is a handful of fixed words plus
// a short sorted run of (ID, count) pairs — a shape the transposition
// table (prune.go) stores without a single Go pointer. The outward
// forms (Census, RootSummary) keep their int counts and string-keyed
// histograms and saturate at math.MaxInt.

// wide is an unsigned 128-bit count: two words added with carry. It
// saturates at 2^128−1 rather than wrapping.
type wide struct{ hi, lo uint64 }

// wideOf converts a non-negative int count.
func wideOf(n int) wide { return wide{lo: uint64(n)} }

// add adds v to w.
func (w *wide) add(v wide) {
	lo, c := bits.Add64(w.lo, v.lo, 0)
	hi, c := bits.Add64(w.hi, v.hi, c)
	if c != 0 {
		*w = wide{math.MaxUint64, math.MaxUint64}
		return
	}
	w.hi, w.lo = hi, lo
}

// int is w as an int, saturated at math.MaxInt.
func (w wide) int() int {
	if w.hi != 0 || w.lo > math.MaxInt {
		return math.MaxInt
	}
	return int(w.lo)
}

// saturates reports whether w does not fit an int below math.MaxInt:
// its int form is then a lower bound, not a count.
func (w wide) saturates() bool { return w.hi != 0 || w.lo >= math.MaxInt }

// satAdd adds two non-negative ints, saturating at math.MaxInt instead
// of wrapping (the engines' credited-run counters).
func satAdd(a, b int) int {
	if a > math.MaxInt-b {
		return math.MaxInt
	}
	return a + b
}

// summary is the census of one explored subtree. Engines recycle
// summaries through a freelist, so the slices are reused.
type summary struct {
	complete, incomplete wide
	violations           wide       // complete runs failing the check
	outs                 []outCount // complete runs by outcome, ascending IDs
	// reps are the violation representatives: dfsKeys of violating
	// schedules, ascending, at most MaxRecordedViolations. Keeping the
	// first ones in DFS order makes merging order-free: whatever order
	// subtree summaries are merged in — frame pops, table hits,
	// work-stealing items resolving in any order, checkpointed roots — a
	// summary keeps the violating runs that come first in the walk's DFS
	// order, so a parallel census records exactly the one-root walk's
	// representatives. Their Results are replayed once, by censusFrom.
	reps []string
}

// outCount is one histogram bucket: n complete runs with outcome id.
type outCount struct {
	id uint32
	n  wide
}

func newSummary() *summary { return &summary{} }

// runs is the summary's terminal-run total, saturated to an int.
func (s *summary) runs() int {
	t := s.complete
	t.add(s.incomplete)
	return t.int()
}

// saturated reports whether some count does not fit an int: the census
// is then a lower bound, not an exact count.
func (s *summary) saturated() bool {
	if s.complete.saturates() || s.incomplete.saturates() || s.violations.saturates() {
		return true
	}
	for _, o := range s.outs {
		if o.n.saturates() {
			return true
		}
	}
	return false
}

// reset clears the summary for reuse, keeping its slices' capacity.
func (s *summary) reset() {
	s.complete, s.incomplete, s.violations = wide{}, wide{}, wide{}
	s.outs = s.outs[:0]
	clear(s.reps)
	s.reps = s.reps[:0]
}

// addOutcome adds n runs with outcome id, keeping outs sorted.
func (s *summary) addOutcome(id uint32, n wide) {
	i := 0
	for i < len(s.outs) && s.outs[i].id < id {
		i++
	}
	if i < len(s.outs) && s.outs[i].id == id {
		s.outs[i].n.add(n)
		return
	}
	s.outs = append(s.outs, outCount{})
	copy(s.outs[i+1:], s.outs[i:])
	s.outs[i] = outCount{id: id, n: n}
}

// addTerminal classifies one terminal run into the summary; modes is
// the walk's fault-mode enumeration order (Options.FaultModes), which
// fixes the DFS order of fault choices. Neither o.Schedule nor o.Result
// is retained: a violating run is kept as its dfsKey.
func (s *summary) addTerminal(o Outcome, ids *outcomeIDs, check func(*sim.Result) error, modes []sim.FaultMode) {
	if o.Result.Halted {
		s.incomplete.add(wide{lo: 1})
		return
	}
	s.complete.add(wide{lo: 1})
	s.addOutcome(ids.id(o.Result), wide{lo: 1})
	if check != nil && check(o.Result) != nil {
		s.violations.add(wide{lo: 1})
		s.addRep(dfsKey(o.Schedule, modes))
	}
}

// addRep inserts a representative's key in order unless it is already
// recorded or falls beyond the first MaxRecordedViolations.
func (s *summary) addRep(key string) {
	i := len(s.reps)
	for i > 0 && key < s.reps[i-1] { // walks arrive in DFS order: usually i stays put
		i--
	}
	if i >= MaxRecordedViolations || (i > 0 && s.reps[i-1] == key) {
		return
	}
	s.insertRep(i, key)
}

// addRepBytes is addRep for a key held in a table arena: the key is
// copied out only when it is inserted.
func (s *summary) addRepBytes(key []byte) {
	i := len(s.reps)
	for i > 0 && string(key) < s.reps[i-1] {
		i--
	}
	if i >= MaxRecordedViolations || (i > 0 && s.reps[i-1] == string(key)) {
		return
	}
	s.insertRep(i, string(key))
}

func (s *summary) insertRep(i int, key string) {
	if len(s.reps) < MaxRecordedViolations {
		s.reps = append(s.reps, "")
	}
	copy(s.reps[i+1:], s.reps[i:]) // drops the last rep when full
	s.reps[i] = key
}

// merge folds t into s with every outcome ID mapped through ren (nil:
// unchanged) — the translation step of symmetry-canonical table storage
// (see engine.popFrame and engine.credit). Counts transfer untouched;
// violation representatives keep their first-encounter schedules
// unrenamed (the replayability contract is per schedule, not per hit
// point). t is not mutated.
func (s *summary) merge(t *summary, ren []uint32) {
	s.complete.add(t.complete)
	s.incomplete.add(t.incomplete)
	s.violations.add(t.violations)
	for _, o := range t.outs {
		id := o.id
		if ren != nil {
			id = ren[id]
		}
		s.addOutcome(id, o.n)
	}
	for _, r := range t.reps {
		s.addRep(r)
	}
}

// dfsKey encodes a schedule so that byte order is the walk's DFS child
// order (engine.childChoice): per choice its child class — plain pick,
// crash, then one class per fault mode in modes order — then the
// process ID. Ready sets are sorted, so within a class the process ID
// is the child order. A choice of class c ≤ 6 (every census with at
// most four fault modes) and process p < 31 is the one byte 32c+p; a
// larger process ID follows the byte 32c+31 in two bytes, and a larger
// class follows the byte 224 with its own byte and the ID's two. Each
// form sorts where its choice does and none is a prefix of another, so
// comparing keys compares schedules in DFS order.
func dfsKey(sched []Choice, modes []sim.FaultMode) string {
	b := make([]byte, 0, len(sched))
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
		switch {
		case class > 6:
			b = append(b, 224, byte(class), byte(c.Pick>>8), byte(c.Pick))
		case c.Pick >= 31:
			b = append(b, byte(32*class+31), byte(c.Pick>>8), byte(c.Pick))
		default:
			b = append(b, byte(32*class+int(c.Pick)))
		}
	}
	return string(b)
}

// scheduleOf decodes a dfsKey back into its schedule.
func scheduleOf(key string, modes []sim.FaultMode) []Choice {
	var sched []Choice
	for i := 0; i < len(key); {
		class, pick := int(key[i])/32, sim.ProcID(key[i]%32)
		switch {
		case key[i] == 224:
			class, pick = int(key[i+1]), sim.ProcID(key[i+2])<<8|sim.ProcID(key[i+3])
			i += 4
		case pick == 31:
			pick = sim.ProcID(key[i+1])<<8 | sim.ProcID(key[i+2])
			i += 3
		default:
			i++
		}
		c := Choice{Pick: pick}
		switch {
		case class == 1:
			c.Crash = true
		case class >= 2:
			c.Fault = modes[class-2] // every fault choice comes from modes
		}
		sched = append(sched, c)
	}
	return sched
}

// outcomeIDs interns decision fingerprints (DecisionFingerprint) as
// dense uint32 IDs, and memoizes their symmetric renames. One interner
// serves a whole census — its table and every worker — so IDs in
// summaries and table entries agree. A decision vector of plain values
// (booleans, integers, strings) is keyed by its raw values, so its
// fingerprint is rendered only the first time it is seen; any other
// vector falls back to the rendered string.
type outcomeIDs struct {
	mu    sync.RWMutex
	byRaw map[rawDecisions]uint32
	byKey map[string]uint32
	keys  []string // keys[id] is id's DecisionFingerprint
	// ren[2k] maps IDs into canonical coordinates under orientation k,
	// ren[2k+1] back out of them. A memo covers a prefix of the IDs and
	// is replaced, never mutated, when extended.
	ren [][]uint32
}

func newOutcomeIDs() *outcomeIDs {
	return &outcomeIDs{byRaw: make(map[rawDecisions]uint32), byKey: make(map[string]uint32)}
}

// maxRawDecisions bounds the decision vectors keyed by raw values.
const maxRawDecisions = 8

// rawDecisions is a run's decided values in process order: a map key
// with the same equality as DecisionFingerprint's input, for values
// whose printed form is a function of the value.
type rawDecisions struct {
	n int
	v [maxRawDecisions]sim.Value
}

// rawOf keys res by its decided values; ok is false when there are too
// many of them or one is not a plain value.
func rawOf(res *sim.Result) (r rawDecisions, ok bool) {
	for i, err := range res.Errors {
		if err != nil {
			continue
		}
		v := res.Values[i]
		if r.n == maxRawDecisions || !plainValue(v) {
			return r, false
		}
		r.v[r.n] = v
		r.n++
	}
	return r, true
}

// plainValue reports whether v is nil or of a boolean, integer or
// string kind: comparable, hashable, and equal values print alike.
func plainValue(v sim.Value) bool {
	if v == nil {
		return true
	}
	switch reflect.TypeOf(v).Kind() {
	case reflect.Bool, reflect.String,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return true
	}
	return false
}

// id returns the outcome ID of a complete run.
func (ids *outcomeIDs) id(res *sim.Result) uint32 {
	raw, ok := rawOf(res)
	if ok {
		ids.mu.RLock()
		id, hit := ids.byRaw[raw]
		ids.mu.RUnlock()
		if hit {
			return id
		}
	}
	key := DecisionFingerprint(res)
	ids.mu.Lock()
	defer ids.mu.Unlock()
	id := ids.internLocked(key)
	if ok {
		ids.byRaw[raw] = id
	}
	return id
}

// intern returns the ID of a fingerprint string.
func (ids *outcomeIDs) intern(key string) uint32 {
	ids.mu.Lock()
	defer ids.mu.Unlock()
	return ids.internLocked(key)
}

func (ids *outcomeIDs) internLocked(key string) uint32 {
	if id, ok := ids.byKey[key]; ok {
		return id
	}
	id := uint32(len(ids.keys))
	ids.keys = append(ids.keys, key)
	ids.byKey[key] = id
	return id
}

// key returns an ID's fingerprint.
func (ids *outcomeIDs) key(id uint32) string {
	ids.mu.RLock()
	defer ids.mu.RUnlock()
	return ids.keys[id]
}

// renamer returns the ID map of orientation k of canon — into canonical
// coordinates, or with inv back out of them — covering every ID
// interned so far. It is built from the spec's RenameOutcome (through
// the Canonicalizer's outcome renamers) and memoized; nil means the
// identity.
func (ids *outcomeIDs) renamer(canon *sim.Canonicalizer, k int, inv bool) []uint32 {
	if canon == nil || k == 0 {
		return nil
	}
	f := canon.OutcomeRenamer(k)
	slot := 2 * k
	if inv {
		f = canon.OutcomeRenamerInv(k)
		slot++
	}
	if f == nil {
		return nil
	}
	ids.mu.RLock()
	var memo []uint32
	if slot < len(ids.ren) {
		memo = ids.ren[slot]
	}
	todo := ids.keys[len(memo):len(ids.keys):len(ids.keys)]
	ids.mu.RUnlock()
	if len(todo) == 0 {
		return memo
	}
	// Rename outside the lock: RenameOutcome is the protocol's code.
	names := make([]string, len(todo))
	for i, key := range todo {
		names[i] = f(key)
	}
	ids.mu.Lock()
	defer ids.mu.Unlock()
	if ids.ren == nil {
		ids.ren = make([][]uint32, 2*canon.NumPerms())
	}
	if cur := ids.ren[slot]; len(cur) >= len(memo)+len(names) {
		return cur // a concurrent caller extended it at least as far
	}
	out := make([]uint32, len(memo), len(memo)+len(names))
	copy(out, memo)
	for _, name := range names {
		out = append(out, ids.internLocked(name))
	}
	ids.ren[slot] = out
	return out
}

// censusFrom turns a root accumulator into a Census: outcome IDs become
// their fingerprints, counts saturate at math.MaxInt, and each
// violation representative's schedule is replayed once for its Result.
// A saturated count makes the census capped: exhaustive is forced
// false.
func censusFrom(acc *summary, ids *outcomeIDs, b Builder, opts Options, exhaustive bool) *Census {
	out := make(map[string]int, len(acc.outs))
	for _, o := range acc.outs {
		out[ids.key(o.id)] = o.n.int()
	}
	var violations []Outcome
	for _, key := range acc.reps {
		sched := scheduleOf(key, opts.FaultModes)
		res, _ := replayPrefix(b, opts, sched)
		violations = append(violations, Outcome{Schedule: sched, Result: res})
	}
	return &Census{
		Complete:      acc.complete.int(),
		Incomplete:    acc.incomplete.int(),
		Outcomes:      out,
		Violations:    violations,
		ViolationRuns: acc.violations.int(),
		Exhaustive:    exhaustive && !acc.saturated(),
	}
}
