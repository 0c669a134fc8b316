package explore

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/sim"
)

// This file is the path-based exploration engine that replaced the
// per-node replay walker (kept as VisitReplay for cross-checking and
// the DESIGN.md §5.2 ablation). The old walker rebuilt and re-ran the
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
// pooled sim.Scratch that is only abandoned (to a fresh one) when a
// violation representative retains it.
type engine struct {
	b    Builder
	opts Options

	// Exactly one of visit/acc is set. visit streams terminal runs in
	// DFS order (Visit mode); acc accumulates a census summary (Run
	// mode), classifying complete runs with check.
	visit func(Outcome) bool
	acc   *summary
	check func(*sim.Result) error
	// table enables transposition pruning (census mode only).
	table *pruneTable
	// canon, when non-nil (and table is set), switches the table keys to
	// symmetry-canonical fingerprints: frames remember their canonical
	// orientation (frame.permIdx) so publishes rename outcome keys INTO
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

	// pool/item/attempt/workerID tie a work-stealing census engine to
	// the steal pool (steal.go): hungry() polls are answered by donating
	// untried sibling subtrees from the shallowest open frame, and
	// skipcheck marks that this walk must honor the item's donation log
	// (children excised by earlier attempts of the same item).
	pool      *stealPool
	item      *stealItem
	attempt   int
	workerID  int
	skipcheck bool

	// ctx, when non-nil, is checked once per terminal probe: a cancelled
	// context stops the walk at the next run boundary (cancelled is set),
	// so abandonment cost is bounded by one probe, never one subtree.
	ctx context.Context
	// onStep, when non-nil, is forwarded to sim.Config.OnStep as the
	// supervisor's progress heartbeat.
	onStep func()

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
		res, pruned := en.probe()
		if pruned != nil {
			// A hit found under canonical keys may match at a different
			// orientation than the stored subtree was published in; the
			// stored outcome keys are in canonical coordinates, so merge
			// them back through the INVERSE of this node's orientation.
			if en.canon != nil && en.pr.prunedPerm != 0 {
				en.parentAcc().mergeRenamed(pruned, en.canon.OutcomeRenamerInv(en.pr.prunedPerm))
				en.table.symHits.Add(1)
			} else {
				en.parentAcc().merge(pruned)
			}
			en.runs = satAdd(en.runs, pruned.runs())
		} else {
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

// release returns the engine's scratch to the pool. Any Result
// retained as a violation representative already triggered a scratch
// swap in terminal(), so the buffer returned here is never aliased.
func (en *engine) release() {
	if en.scratch != nil {
		scratchPool.Put(en.scratch)
		en.scratch = nil
	}
}

// probe executes one root-to-terminal descent: replay the committed
// choices, then keep taking the first ready process — pushing a frame
// per new decision point — until a terminal run or a table hit. In
// machine mode the replay is a snapshot restore; otherwise the system
// is rebuilt and the prefix re-run.
func (en *engine) probe() (*sim.Result, *summary) {
	if !en.meTried {
		en.meTried = true
		if !en.opts.ForceGoroutines {
			en.initMachine()
		}
	}
	if en.table != nil {
		en.table.probes.Add(1)
	}
	if en.me != nil {
		return en.probeMachine()
	}
	en.plan = append(en.plan[:0], en.root...)
	en.plan = append(en.plan, en.path...)
	sys := en.b()
	en.pr = prober{en: en, sys: sys, plan: en.plan, crashBuf: en.pr.crashBuf}
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
	return res, p.pruned
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
		ForceGoroutines:    en.opts.ForceGoroutines,
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
func (en *engine) probeMachine() (*sim.Result, *summary) {
	if d := len(en.frames) - 1; d >= 0 {
		f := &en.frames[d]
		en.me.Restore(en.snaps.ReaderAt(f.snapW, f.snapV))
		en.plan = append(en.plan[:0], en.path[d:]...)
		en.pr = prober{
			en: en, sys: en.me.System(), plan: en.plan,
			pos: len(en.root) + d, crashes: f.crashes, faults: f.faults,
			crashBuf: en.pr.crashBuf,
		}
	} else {
		// First probe (or a walk whose every frame was popped): replay
		// the fixed root prefix from the initial snapshot.
		en.me.Restore(en.snaps.ReaderAt(0, 0))
		en.plan = append(en.plan[:0], en.root...)
		en.pr = prober{en: en, sys: en.me.System(), plan: en.plan, crashBuf: en.pr.crashBuf}
	}
	res, err := en.me.Run()
	if err != nil {
		panic(fmt.Sprintf("explore: probe failed: %v", err))
	}
	if en.pr.dead {
		panic(fmt.Sprintf("explore: builder is nondeterministic: planned pick not ready (schedule %s)",
			FormatSchedule(en.plan[:en.pr.i])))
	}
	return res, en.pr.pruned
}

// terminal delivers or accumulates one terminal run.
func (en *engine) terminal(res *sim.Result) {
	en.runs++
	sched := make([]Choice, len(en.root)+len(en.path))
	n := copy(sched, en.root)
	copy(sched[n:], en.path)
	o := Outcome{Schedule: sched, Result: res}
	if en.visit != nil {
		if !en.visit(o) {
			en.stopped = true
		}
		return
	}
	if en.parentAcc().addTerminal(o, en.check, en.opts.FaultModes) && en.scratch != nil {
		// The Outcome was kept as a violation representative and its
		// Result aliases the scratch: abandon the scratch to it and
		// continue on a fresh one.
		en.scratch = scratchPool.Get().(*sim.Scratch)
		if en.me != nil {
			en.me.SetScratch(en.scratch)
		}
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
// into its parent, not published to the table).
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
			if en.skipcheck && en.item.skips(en.prefixKey(len(en.frames)-1, c)) {
				// Excised by a donation in an earlier attempt: the child
				// is counted by its own queue item, so this frame's
				// accumulator — and every ancestor's — no longer covers
				// its whole subtree. Poison them against table
				// publication, exactly as donate() does at donation time.
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
		// children excised to other queue items; crediting the full
		// stored summary would double-count them. The exact-match case
		// was excluded by the skips() check above; proper ancestors are
		// excluded here.
		if en.skipcheck && en.item.shadowsChild(en.root, en.path[:d], c) {
			return false
		}
		s, hit := en.table.get(pr.key)
		if !hit {
			return false
		}
		if en.canon != nil && pr.permIdx != 0 {
			f.acc.mergeRenamed(s, en.canon.OutcomeRenamerInv(int(pr.permIdx)))
		} else {
			f.acc.merge(s)
		}
		en.runs = satAdd(en.runs, s.runs())
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

// donate hands the pool every untried child of the shallowest open
// frame that still has any — the largest subtrees this walk has not
// committed to. The frame and all its ancestors are poisoned against
// table publication (their accumulators no longer cover their keys);
// deeper frames are untouched and still publish normally.
func (en *engine) donate() {
	for i := range en.frames {
		f := &en.frames[i]
		if f.next >= en.childCount(f) {
			continue
		}
		if en.pool.donateFrom(en, i, f) {
			f.next = en.childCount(f)
			for j := 0; j <= i; j++ {
				en.frames[j].donated = true
			}
		}
		return
	}
}

// prefixKey renders root+path[:depth]+c — the schedule prefix of child
// c at the given frame depth — into the engine's plan scratch and
// formats it as the donation-log key.
func (en *engine) prefixKey(depth int, c Choice) string {
	en.plan = append(en.plan[:0], en.root...)
	en.plan = append(en.plan, en.path[:depth]...)
	en.plan = append(en.plan, c)
	return FormatSchedule(en.plan)
}

// popFrame removes the deepest frame, merging its summary into its
// parent's; publish additionally stores it in the transposition table
// (only legal when the subtree was fully explored and no children were
// donated away).
func (en *engine) popFrame(publish bool) {
	i := len(en.frames) - 1
	f := &en.frames[i]
	if f.acc != nil {
		stored := false
		if publish && f.hasKey && !f.donated {
			if en.canon != nil && f.permIdx != 0 {
				// The key is canonical but this walk accumulated outcome
				// keys in its own (non-canonical) orientation: publish a
				// COPY renamed into canonical coordinates, and keep the
				// raw accumulator for the parent merge below.
				pub := en.getSummary()
				pub.mergeRenamed(f.acc, en.canon.OutcomeRenamer(int(f.permIdx)))
				if !en.table.put(f.key, pub) {
					en.putSummary(pub)
				}
			} else {
				stored = en.table.put(f.key, f.acc)
			}
		}
		if i > 0 {
			en.frames[i-1].acc.merge(f.acc)
		} else {
			en.acc.merge(f.acc)
		}
		if !stored {
			en.putSummary(f.acc)
		}
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

// prober drives one probe as both Scheduler and FaultPlan: it first
// consumes the planned choices, then auto-descends first-ready,
// registering each new decision point as a frame on the engine. All
// engine mutation happens from inside Scheduler callbacks, where the
// runner has every live process parked — the cheap frontier hook that
// makes one system execution serve a whole root-to-terminal path.
type prober struct {
	en      *engine
	sys     *sim.System
	plan    []Choice
	i       int      // next plan index
	pos     int      // choices consumed so far (plan + auto)
	crashes int      // crash choices consumed so far
	faults  int      // object-fault choices consumed so far
	pruned  *summary // set when a table hit ended the probe
	// prunedPerm is the canonical orientation the hit node's key was
	// computed at; run() un-renames the consumed summary through it.
	prunedPerm int
	dead       bool // planned pick was not ready (builder bug)
	// pendingFault is armed by Next when the consumed plan choice
	// carries an object fault and collected by FaultOp from the granted
	// step's Env.Apply. Auto-descent never faults: fault branches exist
	// only through backtracking into planned choices.
	pendingFault sim.FaultMode
	// crashBuf backs CrashNow's return value across probes.
	crashBuf []sim.ProcID
}

// FaultOp implements sim.ObjectFaultPlan.
func (p *prober) FaultOp(_ int) sim.FaultMode {
	m := p.pendingFault
	p.pendingFault = sim.FaultNone
	return m
}

// CrashNow implements sim.FaultPlan: it consumes all consecutive
// planned crash choices at the current position. Beyond the plan the
// engine branches crashes via backtracking, never here. The returned
// slice is reused across calls; the runner consumes it immediately.
func (p *prober) CrashNow(_ []sim.ProcID, _ int) []sim.ProcID {
	if p.i >= len(p.plan) || !p.plan[p.i].Crash {
		return nil
	}
	out := p.crashBuf[:0]
	for p.i < len(p.plan) && p.plan[p.i].Crash {
		out = append(out, p.plan[p.i].Pick)
		p.i++
		p.pos++
		p.crashes++
	}
	p.crashBuf = out
	return out
}

// Next implements sim.Scheduler.
func (p *prober) Next(ready []sim.ProcID, _ int) sim.ProcID {
	en := p.en
	if p.i < len(p.plan) {
		c := p.plan[p.i]
		p.i++
		p.pos++
		for _, r := range ready {
			if r == c.Pick {
				p.pendingFault = c.Fault
				if c.Fault != sim.FaultNone {
					p.faults++
				}
				return c.Pick
			}
		}
		p.dead = true
		return sim.Halt
	}
	if p.pos >= en.opts.MaxDepth {
		return sim.Halt // depth bound: incomplete terminal
	}
	f := frame{crashes: p.crashes, faults: p.faults}
	if en.table != nil {
		if en.skipcheck && en.item.shadows(en.root, en.path) {
			// This node is a proper ancestor of a child donated away by
			// an earlier attempt of the same item, so part of its
			// subtree is owned by separately-enqueued items. A table
			// hit here would credit those donated children a second
			// time, and the frame's own accumulator will lose them to
			// skip excision below — so the retried walk must neither
			// consult nor publish the table at this node.
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
					depthRem: en.opts.MaxDepth - p.pos,
					crashRem: en.opts.MaxCrashes - p.crashes,
					faultRem: en.opts.ObjectFaults - p.faults,
				}
				if en.sleep {
					// Memoize the key whether or not this probe continues:
					// a sibling reorder wants it either way.
					en.recordPair(key, permIdx)
				}
				if s, hit := en.table.get(key); hit {
					p.pruned = s
					p.prunedPerm = permIdx
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
