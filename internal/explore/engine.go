package explore

import (
	"context"
	"fmt"
	"math"
	"sync"

	"repro/internal/sim"
)

// This file is the path-based exploration engine that replaced the
// per-node replay walker (now the tests' VisitReplay oracle and the
// DESIGN.md §5.2 ablation). The old walker rebuilt and re-ran the
// system once per tree NODE, costing O(depth) simulated steps each; the
// path engine rebuilds once per TERMINAL run: a probe replays the
// current path and then keeps descending — always taking the first
// ready process, recording a frame per new decision point — until the
// run completes, the depth bound strikes, or (in pruned census mode) a
// transposition-table hit summarizes the rest. Backtracking rewrites
// the deepest unexhausted frame's edge and probes again. Visit order,
// run counts and Results are bit-identical to the replay walker's.
//
// The census hot path is engineered to allocate nothing per run after
// warm-up: frames store their ready sets as offsets into an
// engine-owned arena, subtree summaries cycle through a freelist, the
// prober is embedded and reset in place, and sim Results land in a
// pooled sim.Scratch. No Result outlives its run: a violating run is
// recorded as its schedule's dfsKey and replayed once for the census
// (censusFrom).
type engine struct {
	b    Builder
	opts Options

	// Exactly one of visit/acc is set. visit streams terminal runs in
	// DFS order (Visit mode); acc accumulates a census summary (Run
	// mode), classifying complete runs with check.
	visit func(Outcome) bool
	acc   *summary
	check func(*sim.Result) error
	// ids interns the outcome IDs of the census's summaries; run takes
	// the table's, or a fresh one, when none is given.
	ids *outcomeIDs
	// table enables transposition pruning (census mode only).
	table *pruneTable
	// canon, when non-nil (and table is set), switches the table keys to
	// symmetry-canonical fingerprints: frames remember their canonical
	// orientation (frame.permIdx) so publishes rename outcome IDs INTO
	// canonical coordinates and hits rename them back OUT. Resolved once
	// per census by resolveSymmetry, shared read-only by all workers.
	canon *sim.Canonicalizer
	// sleep enables independence (sleep-set) pruning: when the last two
	// edges of a probe are plain picks of different processes pending on
	// different objects, the node's freshly computed table key is
	// memoized on the grandparent frame (recordPair); backtracking into
	// the swapped sibling order then credits the subtree straight from
	// the table without replaying a probe (creditChild). Sound because
	// steps on distinct objects commute EXACTLY: the swapped orders
	// reach identical states, hence identical keys.
	sleep bool

	// root is a fixed schedule prefix under which the walk happens
	// (empty for a whole-tree walk); path holds the edges taken below
	// it, path[i] being the edge out of frames[i].
	root   []Choice
	path   []Choice
	frames []frame
	plan   []Choice // scratch buffer: root + path

	// readyArena backs the frames' ready sets: frame i's set is
	// readyArena[f.readyOff : f.readyOff+f.readyN]. Pushing a frame
	// appends, popping truncates — LIFO like the frames themselves — so
	// the per-decision-point copy costs no allocation after warm-up.
	readyArena []sim.ProcID
	// pendingArena parallels readyArena when sleep is on: entry
	// f.readyOff+i is the interned pending-object ID of ready process
	// readyArena[f.readyOff+i] at that decision point — the static
	// footprint the independence test compares.
	pendingArena []int32
	// objIDs interns object names to small ints for pendingArena.
	objIDs map[string]int32

	// freeSums recycles frame summaries that were merged into their
	// parent but not published (the table owns published ones).
	freeSums []*summary
	// freePairs recycles the frames' pair-memo slices. Pair slices have
	// non-nested lifetimes relative to the arena (a frame may accumulate
	// pairs long after deeper frames pushed), so they recycle through a
	// freelist instead of arena truncation.
	freePairs [][]pairRec

	// scratch, in census mode, receives each probe's Result; see
	// sim.Scratch for the aliasing contract. nil in visit modes, whose
	// Outcomes escape to callers.
	scratch *sim.Scratch

	// pr is the embedded prober, reset per probe instead of allocated.
	pr prober

	// me, when non-nil, is the in-place backtracking fast path: the
	// builder's system is machine-backed and snapshotable, so it is
	// built ONCE and every probe resumes from the deepest frame's
	// snapshot instead of replaying root+path on a fresh system. Each
	// tree edge then executes exactly once — O(edges) simulated steps
	// for the whole walk instead of O(runs×depth) — with identical
	// visit order, counts and fingerprints (the prober logic is shared
	// verbatim). meTried latches the one-time probe of the builder;
	// snaps is the LIFO snapshot arena, frames holding their offsets.
	me      *sim.MachineExec
	meTried bool
	snaps   sim.Snap

	// pool/claim tie a work-stealing census engine to the steal pool
	// (steal.go) and the ledger entry it walks: hungry() polls are
	// answered by donating untried sibling subtrees from the shallowest
	// open frame, and skipcheck marks that this walk must honor the
	// entry's donation log (children excised by earlier attempts of the
	// same entry). keyBuf and kidBuf hold the prefixes it shows the
	// ledger.
	pool           *stealPool
	claim          Claim
	skipcheck      bool
	keyBuf, kidBuf []Choice

	// ctx, when non-nil, is checked once per terminal probe: a cancelled
	// context stops the walk at the next run boundary (cancelled is set),
	// so abandonment cost is bounded by one probe, never one subtree.
	ctx context.Context
	// onStep, when non-nil, is forwarded to sim.Config.OnStep as the
	// supervisor's progress heartbeat.
	onStep func()

	// probes numbers this walk's probes: a frame's subtree cost is the
	// count taken between its push and its pop.
	probes uint64

	// runs counts delivered terminal runs (visit mode) or credited runs
	// including memoized subtrees (census mode), saturating at
	// math.MaxInt.
	runs      int
	capped    bool
	stopped   bool
	cancelled bool
}

// frame is one internal node (decision point) on the current DFS path.
type frame struct {
	readyOff int // ready set: offset into the engine's readyArena
	readyN   int
	next     int      // next child index: picks, then crashes, then faults
	crashes  int      // crash choices consumed on the path to here
	faults   int      // object-fault choices consumed on the path to here
	acc      *summary // census mode: subtree accumulator
	key      tableKey // pruning: this node's table key
	hasKey   bool
	// permIdx is the canonical orientation of this node's key (index
	// into the canonicalizer's permutation group; 0 = identity/plain).
	permIdx int32
	// pairs are the sleep-set memos recorded AT this frame: child
	// sequences u·a·b whose reorder u·b·a is known to reach the node
	// with the stored table key. Recycled via the engine's freePairs.
	pairs []pairRec
	// donated marks a frame whose subtree lost children to a donation
	// (or an ancestor of one): its accumulator no longer covers the
	// whole subtree under its key and must never be published.
	donated bool
	// snapW/snapV locate this decision point's snapshot in the engine's
	// snaps arena (machine mode only): restoring it puts the system back
	// at this frame, ready to take a different edge.
	snapW, snapV int
	// probe0 is the engine's probe number when the frame was pushed.
	probe0 uint64
}

// scratchPool recycles sim.Scratch buffers across census engines.
var scratchPool = sync.Pool{New: func() any { return sim.NewScratch() }}

// pairRec is one sleep-set memo: from the frame holding it, taking
// plain picks first·second reaches a node whose table key is key at
// canonical orientation permIdx. Recorded when first and second were
// pending on distinct objects (so second·first commutes to the same
// node), consumed by creditChild when backtracking into second·….
type pairRec struct {
	first, second sim.ProcID
	key           tableKey
	permIdx       int32
}

func (en *engine) run() {
	if en.acc != nil && en.scratch == nil {
		en.scratch = scratchPool.Get().(*sim.Scratch)
	}
	if en.acc != nil && en.ids == nil {
		if en.table != nil {
			en.ids = en.table.ids
		} else {
			en.ids = newOutcomeIDs()
		}
	}
	if en.table != nil {
		en.canon = en.opts.canon
		en.sleep = en.opts.SleepSets
	}
	for {
		if en.runs >= en.opts.MaxRuns {
			en.capped = true
			break
		}
		if en.ctx != nil && en.ctx.Err() != nil {
			en.cancelled = true
			break
		}
		// A probe that hit the table was credited by the prober.
		if res, hit := en.probe(); !hit {
			en.terminal(res)
		}
		if en.capped || en.stopped {
			break
		}
		if !en.backtrack() {
			en.release()
			return // tree exhausted; backtrack flushed every frame
		}
	}
	// Early exit (cap or stopped visit): merge the still-open frames'
	// partial summaries down into the root accumulator so a truncated
	// census still counts every credited run, but never publish them —
	// the table must hold only complete subtrees.
	for len(en.frames) > 0 {
		en.popFrame(false)
	}
	en.release()
}

// release returns the engine's scratch to the pool; no Result a census
// keeps aliases it.
func (en *engine) release() {
	if en.scratch != nil {
		scratchPool.Put(en.scratch)
		en.scratch = nil
	}
}

// probe executes one root-to-terminal descent: replay the committed
// choices, then keep taking the first ready process — pushing a frame
// per new decision point — until a terminal run or a table hit (hit:
// the subtree was credited, and the Result means nothing). In machine
// mode the replay is a snapshot restore; otherwise the system is
// rebuilt and the prefix re-run.
func (en *engine) probe() (res *sim.Result, hit bool) {
	if !en.meTried {
		en.meTried = true
		en.initMachine()
	}
	en.probes++
	if en.table != nil {
		en.table.probes.Add(1)
	}
	if en.me != nil {
		return en.probeMachine()
	}
	en.plan = append(en.plan[:0], en.root...)
	en.plan = append(en.plan, en.path...)
	sys := en.b()
	en.pr = prober{planCursor: planCursor{plan: en.plan, crashBuf: en.pr.crashBuf}, en: en, sys: sys}
	p := &en.pr
	cfg := en.simConfig()
	res, err := sys.Run(cfg)
	if err != nil {
		panic(fmt.Sprintf("explore: probe failed: %v", err))
	}
	if p.dead {
		panic(fmt.Sprintf("explore: builder is nondeterministic: planned pick not ready (schedule %s)",
			FormatSchedule(en.plan[:p.i])))
	}
	return res, p.hit
}

// simConfig is the per-probe sim configuration; the prober (a stable
// pointer into the engine) serves as scheduler and fault plans.
func (en *engine) simConfig() sim.Config {
	p := &en.pr
	cfg := sim.Config{
		Scheduler:          p,
		Faults:             p,
		MaxStepsPerProc:    en.opts.MaxStepsPerProc,
		MaxTotalSteps:      en.opts.MaxDepth + 1,
		DisableTrace:       true,
		Fingerprint:        en.table != nil,
		Canon:              en.canon,
		Scratch:            en.scratch,
		VerifyFingerprints: en.opts.VerifyFingerprints,
	}
	if en.opts.ObjectFaults > 0 {
		cfg.ObjectFaults = p
	}
	if en.onStep != nil {
		beat := en.onStep
		cfg.OnStep = func(int) { beat() }
	}
	return cfg
}

// initMachine engages the in-place backtracking fast path when the
// builder produces a snapshotable machine-backed system: the system is
// built once, started under the engine's prober, and its initial state
// snapshotted at arena offset (0,0). Any failure leaves en.me nil and
// the engine on the rebuild-per-probe path.
func (en *engine) initMachine() {
	sys := en.b()
	if !sys.Snapshotable() {
		return
	}
	me, err := sys.StartMachines(en.simConfig())
	if err != nil {
		return
	}
	en.me = me
	en.me.Snapshot(&en.snaps)
}

// probeMachine is probe on the fast path: restore the deepest frame's
// snapshot (the decision point the new edge leaves from), hand the
// prober just that edge as its plan, and resume execution in place.
// Only the probe's NEW steps are simulated — each tree edge runs once.
func (en *engine) probeMachine() (*sim.Result, bool) {
	if d := len(en.frames) - 1; d >= 0 {
		f := &en.frames[d]
		en.me.Restore(en.snaps.ReaderAt(f.snapW, f.snapV))
		en.plan = append(en.plan[:0], en.path[d:]...)
		en.pr = prober{
			planCursor: planCursor{plan: en.plan, crashes: f.crashes, faults: f.faults, crashBuf: en.pr.crashBuf},
			en:         en, sys: en.me.System(), pos: len(en.root) + d,
		}
	} else {
		// First probe (or a walk whose every frame was popped): replay
		// the fixed root prefix from the initial snapshot.
		en.me.Restore(en.snaps.ReaderAt(0, 0))
		en.plan = append(en.plan[:0], en.root...)
		en.pr = prober{planCursor: planCursor{plan: en.plan, crashBuf: en.pr.crashBuf}, en: en, sys: en.me.System()}
	}
	res, err := en.me.Run()
	if err != nil {
		panic(fmt.Sprintf("explore: probe failed: %v", err))
	}
	if en.pr.dead {
		panic(fmt.Sprintf("explore: builder is nondeterministic: planned pick not ready (schedule %s)",
			FormatSchedule(en.plan[:en.pr.i])))
	}
	return res, en.pr.hit
}

// terminal delivers or accumulates one terminal run.
func (en *engine) terminal(res *sim.Result) {
	en.runs++
	if en.visit != nil {
		sched := make([]Choice, len(en.root)+len(en.path))
		n := copy(sched, en.root)
		copy(sched[n:], en.path)
		if !en.visit(Outcome{Schedule: sched, Result: res}) {
			en.stopped = true
		}
		return
	}
	// The schedule is only read (a violation keeps its dfsKey), so the
	// plan buffer, idle between probes, holds it.
	en.plan = append(append(en.plan[:0], en.root...), en.path...)
	en.parentAcc().addTerminal(Outcome{Schedule: en.plan, Result: res}, en.ids, en.check, en.opts.FaultModes)
}

// credit merges the table's summary under key, found at canonical
// orientation permIdx, into acc and counts its runs. A hit under
// canonical keys may match at a different orientation than the stored
// subtree was published in; the stored outcome IDs are in canonical
// coordinates, so they merge back through the INVERSE of permIdx.
func (en *engine) credit(key tableKey, permIdx int, acc *summary) bool {
	for {
		ren := en.ids.renamer(en.canon, permIdx, true)
		runs, hit, short := en.table.get(key, acc, ren)
		if short {
			continue // the entry is newer than ren: extend it and look again
		}
		if hit {
			en.runs = satAdd(en.runs, runs)
		}
		return hit
	}
}

// parentAcc is the census accumulator of the current node's parent: the
// deepest open frame, or the engine root.
func (en *engine) parentAcc() *summary {
	if n := len(en.frames); n > 0 {
		return en.frames[n-1].acc
	}
	return en.acc
}

// getSummary draws a cleared summary from the freelist.
func (en *engine) getSummary() *summary {
	if n := len(en.freeSums); n > 0 {
		s := en.freeSums[n-1]
		en.freeSums = en.freeSums[:n-1]
		return s
	}
	return &summary{}
}

// putSummary recycles a summary that is no longer referenced (merged
// into its parent; the table keeps copies).
func (en *engine) putSummary(s *summary) {
	s.reset()
	en.freeSums = append(en.freeSums, s)
}

// backtrack rewrites the deepest frame that still has an untried child
// and truncates the path there; exhausted frames are popped (publishing
// their completed subtree summaries to the table in pruned mode). It
// returns false when the whole tree below root is exhausted. Under a
// steal pool, a hungry pool is fed first: the shallowest frame with
// untried children donates them as queue items before this walk
// descends into its own next child.
func (en *engine) backtrack() bool {
	if en.pool != nil && en.pool.hungry() {
		en.donate()
	}
	for len(en.frames) > 0 {
		f := &en.frames[len(en.frames)-1]
		for f.next < en.childCount(f) {
			c := en.childChoice(f, f.next)
			f.next++
			if en.skipcheck && en.logged(true, len(en.frames)-1, c) {
				// Donated by an earlier attempt: its own ledger entry
				// counts it, so this frame and its ancestors no longer
				// cover their subtrees. Poison them, as donate() does.
				for j := range en.frames {
					en.frames[j].donated = true
				}
				continue
			}
			if en.sleep && en.creditChild(f, c) {
				continue
			}
			en.path[len(en.frames)-1] = c
			en.path = en.path[:len(en.frames)]
			return true
		}
		en.popFrame(true)
	}
	return false
}

// creditChild consumes a sleep-set memo: child c of the deepest frame
// is reached by swapping the frame's incoming edge with c, and if that
// exact swap was memoized on the grandparent (recordPair) the reordered
// node's summary is credited straight from the table — the subtree is
// counted without replaying a single probe. A miss (the entry was
// evicted, or the subtree is not fully published yet) falls through to
// a normal descent, so eviction degrades the savings, never the counts.
func (en *engine) creditChild(f *frame, c Choice) bool {
	d := len(en.frames) - 1
	if d < 1 || c.Crash || c.Fault != sim.FaultNone {
		return false
	}
	in := en.path[d-1] // the frame's incoming edge
	if in.Crash || in.Fault != sim.FaultNone || in.Pick == c.Pick {
		return false
	}
	g := &en.frames[d-1]
	for i := range g.pairs {
		pr := &g.pairs[i]
		if pr.first != c.Pick || pr.second != in.Pick {
			continue
		}
		// Under a donation log, the reordered node's subtree may contain
		// children excised to other ledger entries; crediting the full
		// stored summary would double-count them. The exact-match case
		// was excised by backtrack; proper ancestors are excluded here.
		if en.skipcheck && en.logged(false, d, c) {
			return false
		}
		if !en.credit(pr.key, int(pr.permIdx), f.acc) {
			return false
		}
		en.table.sleepSkips.Add(1)
		return true
	}
	return false
}

// recordPair memoizes the just-computed key of the current probe node
// when its last two edges are independent: plain picks of distinct
// processes that were pending on distinct objects. The memo lands on
// the frame those two edges left (the reordered node's grandparent),
// which is exactly where creditChild will backtrack through. Frame
// identity makes the independence test stable: the memo is only ever
// consulted on the very frame instance it was recorded on.
func (en *engine) recordPair(key tableKey, permIdx int) {
	L := len(en.path)
	if L < 2 {
		return
	}
	a, b := en.path[L-2], en.path[L-1]
	if a.Crash || b.Crash || a.Fault != sim.FaultNone || b.Fault != sim.FaultNone || a.Pick == b.Pick {
		return
	}
	g := &en.frames[L-2]
	pa := en.pendingAt(g, a.Pick)
	pb := en.pendingAt(&en.frames[L-1], b.Pick)
	if pa < 0 || pb < 0 || pa == pb {
		return
	}
	if g.pairs == nil {
		g.pairs = en.getPairs()
	}
	g.pairs = append(g.pairs, pairRec{first: a.Pick, second: b.Pick, key: key, permIdx: int32(permIdx)})
}

// pendingAt is the interned pending-object ID process id had at frame
// f's decision point (-1 if id was not in f's ready set).
func (en *engine) pendingAt(f *frame, id sim.ProcID) int32 {
	r := en.ready(f)
	for i, q := range r {
		if q == id {
			return en.pendingArena[f.readyOff+i]
		}
	}
	return -1
}

// objID interns an object name for pendingArena comparisons.
func (en *engine) objID(name string) int32 {
	if id, ok := en.objIDs[name]; ok {
		return id
	}
	if en.objIDs == nil {
		en.objIDs = make(map[string]int32)
	}
	id := int32(len(en.objIDs))
	en.objIDs[name] = id
	return id
}

// getPairs draws a cleared pair-memo slice from the freelist.
func (en *engine) getPairs() []pairRec {
	if n := len(en.freePairs); n > 0 {
		ps := en.freePairs[n-1]
		en.freePairs = en.freePairs[:n-1]
		return ps[:0]
	}
	return make([]pairRec, 0, 4)
}

// donate offers the ledger every untried child of the shallowest open
// frame that still has any — the largest subtrees this walk has not
// committed to. If the ledger takes them the frame stops there, and it
// and its ancestors are poisoned against table publication (their
// accumulators no longer cover their keys); deeper frames still
// publish. If it refuses — the attempt lost its claim, or a child is an
// ancestor of a logged donation — the walk continues unchanged.
func (en *engine) donate() {
	for i := range en.frames {
		f := &en.frames[i]
		n := en.childCount(f)
		if f.next >= n {
			continue
		}
		en.keyBuf = append(append(en.keyBuf[:0], en.root...), en.path[:i]...)
		en.kidBuf = en.kidBuf[:0]
		for idx := f.next; idx < n; idx++ {
			en.kidBuf = append(en.kidBuf, en.childChoice(f, idx))
		}
		if en.pool.donate(en.claim, en.keyBuf, en.kidBuf) {
			en.skipcheck = true
			f.next = n
			for j := 0; j <= i; j++ {
				en.frames[j].donated = true
			}
		}
		return
	}
}

// logged asks the ledger how the schedule prefix root+path[:depth]+tail
// relates to the walk's donation log: with exact, whether a donated
// prefix equals it; without, whether one extends it (it is a proper
// ancestor). Only walks with a donation log ask.
func (en *engine) logged(exact bool, depth int, tail ...Choice) bool {
	en.keyBuf = append(append(append(en.keyBuf[:0], en.root...), en.path[:depth]...), tail...)
	en.pool.mu.Lock()
	is, under := en.pool.ledger.Donated(en.claim.Entry, en.keyBuf)
	en.pool.mu.Unlock()
	return exact && is || !exact && under
}

// popFrame removes the deepest frame, merging its summary into its
// parent's; publish additionally stores it in the transposition table
// (only legal when the subtree was fully explored and no children were
// donated away), with the probes its walk took as its cost.
func (en *engine) popFrame(publish bool) {
	i := len(en.frames) - 1
	f := &en.frames[i]
	if f.acc != nil {
		if publish && f.hasKey && !f.donated {
			pub := f.acc
			if ren := en.ids.renamer(en.canon, int(f.permIdx), false); ren != nil {
				// The key is canonical but this walk accumulated outcome
				// IDs in its own (non-canonical) orientation: publish a
				// copy renamed into canonical coordinates, and keep the
				// raw accumulator for the parent merge below.
				pub = en.getSummary()
				pub.merge(f.acc, ren)
			}
			en.table.put(f.key, pub, uint32(min(en.probes-f.probe0+1, math.MaxUint32)))
			if pub != f.acc {
				en.putSummary(pub)
			}
		}
		if i > 0 {
			en.frames[i-1].acc.merge(f.acc, nil)
		} else {
			en.acc.merge(f.acc, nil)
		}
		en.putSummary(f.acc)
		f.acc = nil
	}
	if f.pairs != nil {
		en.freePairs = append(en.freePairs, f.pairs)
		f.pairs = nil
	}
	if en.sleep {
		en.pendingArena = en.pendingArena[:f.readyOff]
	}
	if en.me != nil {
		en.snaps.Truncate(f.snapW, f.snapV)
	}
	en.readyArena = en.readyArena[:f.readyOff]
	en.frames = en.frames[:i]
	en.path = en.path[:i]
}

// ready is frame f's ready set (a slice into the engine arena).
func (en *engine) ready(f *frame) []sim.ProcID {
	return en.readyArena[f.readyOff : f.readyOff+f.readyN]
}

// childCount: every ready process is a pick child; if crash budget
// remains each is also a crash child; if fault budget remains each is
// additionally a fault child per enumerated mode. Matches the replay
// walker's branch order exactly (picks, crashes, faults mode-major).
func (en *engine) childCount(f *frame) int {
	n := f.readyN
	total := n
	if f.crashes < en.opts.MaxCrashes {
		total += n
	}
	if f.faults < en.opts.ObjectFaults {
		total += n * len(en.opts.FaultModes)
	}
	return total
}

func (en *engine) childChoice(f *frame, idx int) Choice {
	ready := en.ready(f)
	n := f.readyN
	if idx < n {
		return Choice{Pick: ready[idx]}
	}
	idx -= n
	if f.crashes < en.opts.MaxCrashes {
		if idx < n {
			return Choice{Pick: ready[idx], Crash: true}
		}
		idx -= n
	}
	return Choice{Pick: ready[idx%n], Fault: en.opts.FaultModes[idx/n]}
}

// prober drives one probe as both Scheduler and FaultPlan: its plan
// cursor first consumes the planned choices, then the prober
// auto-descends first-ready, registering each new decision point as a
// frame on the engine. All engine mutation happens from inside
// Scheduler callbacks, where the runner has every live process parked —
// the cheap frontier hook that makes one system execution serve a whole
// root-to-terminal path. Auto-descent never faults: fault branches
// exist only through backtracking into planned choices.
type prober struct {
	planCursor
	en  *engine
	sys *sim.System
	// pos counts the choices taken before the plan plus the
	// auto-descents; pos+i is the depth of the current decision point.
	pos int
	hit bool // a table hit ended the probe; its subtree is credited
}

// Next implements sim.Scheduler.
func (p *prober) Next(ready []sim.ProcID, _ int) sim.ProcID {
	if pick, planned := p.next(ready); planned {
		return pick
	}
	en := p.en
	depth := p.pos + p.i
	if depth >= en.opts.MaxDepth {
		return sim.Halt // depth bound: incomplete terminal
	}
	f := frame{crashes: p.crashes, faults: p.faults}
	if en.table != nil {
		if en.skipcheck && en.logged(false, len(en.path)) {
			// A proper ancestor of a child an earlier attempt donated:
			// a hit would count that child twice, and excision will
			// leave this frame short, so neither consult nor publish.
			f.donated = true
		} else {
			var fp uint64
			var permIdx int
			var ok bool
			if en.canon != nil {
				fp, permIdx, ok = p.sys.StateHashCanon()
			} else {
				fp, ok = p.sys.StateHash()
			}
			if ok {
				key := tableKey{
					fp:       fp,
					depthRem: en.opts.MaxDepth - depth,
					crashRem: en.opts.MaxCrashes - p.crashes,
					faultRem: en.opts.ObjectFaults - p.faults,
				}
				if en.sleep {
					// Memoize the key whether or not this probe continues:
					// a sibling reorder wants it either way.
					en.recordPair(key, permIdx)
				}
				if en.credit(key, permIdx, en.parentAcc()) {
					if permIdx != 0 {
						en.table.symHits.Add(1)
					}
					p.hit = true
					return sim.Halt
				}
				f.key, f.hasKey = key, true
				f.permIdx = int32(permIdx)
			}
		}
	}
	f.readyOff = len(en.readyArena)
	f.readyN = len(ready)
	en.readyArena = append(en.readyArena, ready...)
	if en.sleep {
		for _, id := range ready {
			en.pendingArena = append(en.pendingArena, en.objID(p.sys.PendingObject(id)))
		}
	}
	f.next = 1 // child 0 is the descent we take right now
	f.probe0 = en.probes
	if en.acc != nil {
		f.acc = en.getSummary()
	}
	if en.me != nil {
		// Machine mode: capture this decision point so backtracking can
		// resume here in place. The callback runs between steps, so the
		// system is quiescent — exactly the state a sibling edge needs.
		f.snapW, f.snapV = en.snaps.Len()
		en.me.Snapshot(&en.snaps)
	}
	en.frames = append(en.frames, f)
	en.path = append(en.path, Choice{Pick: ready[0]})
	p.pos++
	return ready[0]
}
