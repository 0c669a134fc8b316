package explore

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sim"
)

// The work-stealing pool: the one scheduler of frontier roots. Every
// multi-worker census (Run with Workers > 1, with or without the
// transposition table) and every RunCheckpointed run explores its roots
// here. The frontier split hands the pool a starting queue of subtree
// roots, but fixed roots load-balance badly: pruning makes subtree
// costs wildly uneven (a root whose state was already tabled is nearly
// free), so some workers drain their share early and idle. Here an idle
// pool instead makes busy workers DONATE: when the shared queue runs dry
// and a worker goes hungry, each busy engine, at its next backtrack,
// splits off every untried child of its shallowest open frame as new
// queue items and keeps walking its current branch.
//
// Root settlement: every item records the frontier root it descends
// from (rootOf). A root settles when its last item resolves — its own
// item and everything donated from it, transitively. Settling is what
// observers see: one EventResolved (EventFailed for a lost root), one
// onSettle call (RunCheckpointed's checkpoint record), and one summary
// for the root-order merge (DistPlan.fold). A root with an item lost
// after the attempt budget fails whole, as in the distributed census.
// When the context cancels the pool, each live attempt's partial walk
// is still counted into its root, so a cancelled census keeps all it
// walked — but an unsettled root is never recorded.
//
// Exactly-once accounting under donation, retry and stall-requeue:
//
//   - Every queue item is resolved exactly once (first completing
//     CURRENT-generation attempt wins; the generation counter bumps on
//     every claim, and a stale straggler's result is discarded even if
//     complete — a stale attempt is NOT interchangeable with the live
//     one, because the live one may have donated children the straggler
//     would count itself).
//   - A donation is logged in the item's skip set (keyed by the
//     donated child's schedule prefix) before the child is enqueued.
//     Later attempts of the donor item consult the log and excise
//     exactly those children, so a retried donor and the donated items
//     partition the donor's subtree — no overlap, no gap.
//   - Donated-from frames (and their ancestors) are poisoned against
//     transposition-table publication: their accumulators no longer
//     cover their keys. Deeper frames still publish normally. A
//     retried donor attempt re-establishes the same poison: every node
//     it visits that is a proper ancestor of a donated prefix (see
//     stealItem.shadows) neither takes table hits — a hit would credit
//     the donated children a second time, on top of the items that
//     walk them — nor publishes, and the skip branch of
//     engine.backtrack re-poisons the open frames when it excises a
//     child.
//
// Census counts are bit-identical to the sequential walk because
// summaries are merged by integer addition (order-free), violation
// representatives are kept in DFS order whatever the merge order (see
// rep), and the table only ever serves fully-explored, immutable
// summaries; see DESIGN.md "Concurrent table publication".
type stealItem struct {
	pool   *stealPool
	idx    int // creation sequence; only feeds backoff jitter
	prefix []Choice
	donor  int // worker that donated it; -1 for frontier roots
	// root is the frontier root item this one was donated from; nil on
	// a frontier root itself, which keeps the root bookkeeping below.
	root *stealItem

	// Guarded by pool.mu.
	attempts int             // claims so far (budgeted by cfg.maxAttempts)
	current  int             // generation of the live attempt
	done     bool            // resolved (merged or failed)
	queued   bool            // currently sitting in pool.queue
	skip     map[string]bool // donation log: child prefixes excised from this item
	skipSeqs [][]Choice      // the same donated prefixes as schedules, for shadows

	// Root bookkeeping, kept on frontier root items (guarded by pool.mu).
	frontier int      // index in the frontier
	pending  int      // unresolved items of the root: itself and all donations
	acc      *summary // runs counted under the root so far
	capped   bool     // some item of the root hit MaxRuns
}

// rootOf is the frontier root item that it belongs to.
func (it *stealItem) rootOf() *stealItem {
	if it.root != nil {
		return it.root
	}
	return it
}

// count merges one attempt's walk into the root, which takes ownership
// of s. Callers hold pool.mu.
func (r *stealItem) count(s *summary, capped bool) {
	if r.acc == nil {
		r.acc = s
	} else {
		r.acc.merge(s)
	}
	r.capped = r.capped || capped
}

// skips reports whether the child prefix key was donated away by an
// earlier attempt of this item. Called from engine.backtrack only when
// the item's skip set is known to be non-empty.
func (it *stealItem) skips(key string) bool {
	it.pool.mu.Lock()
	ok := it.skip[key]
	it.pool.mu.Unlock()
	return ok
}

// shadows reports whether the node at schedule prefix root+path is a
// proper ancestor of a donated child of this item: its subtree
// contains runs that separately-enqueued items count, so a retried
// donor attempt must neither credit a table hit for the node (the
// stored summary covers the donated children too) nor publish it (its
// own accumulator will lose them to skip excision). Only consulted on
// retried attempts with a non-empty donation log.
func (it *stealItem) shadows(root, path []Choice) bool {
	n := len(root) + len(path)
	it.pool.mu.Lock()
	defer it.pool.mu.Unlock()
seqs:
	for _, k := range it.skipSeqs {
		if len(k) <= n {
			continue
		}
		for i, c := range root {
			if k[i] != c {
				continue seqs
			}
		}
		for i, c := range path {
			if k[len(root)+i] != c {
				continue seqs
			}
		}
		return true
	}
	return false
}

// shadowsChild is shadows for the child node root+path+c without
// materializing the extended slice: consulted by the sleep-set credit
// path (engine.creditChild), where the child in question was never
// descended into, so no frame carries it. Exact equality with a donated
// prefix is impossible here — backtrack's skips() check excised that
// case before crediting was attempted — so only proper ancestry is
// tested, like shadows.
func (it *stealItem) shadowsChild(root, path []Choice, c Choice) bool {
	n := len(root) + len(path) + 1
	it.pool.mu.Lock()
	defer it.pool.mu.Unlock()
seqs:
	for _, k := range it.skipSeqs {
		if len(k) <= n {
			continue
		}
		for i, ch := range root {
			if k[i] != ch {
				continue seqs
			}
		}
		for i, ch := range path {
			if k[len(root)+i] != ch {
				continue seqs
			}
		}
		if k[n-1] != c {
			continue
		}
		return true
	}
	return false
}

// stealClaim is one in-flight attempt, tracked for the stall watchdog.
type stealClaim struct {
	it     *stealItem
	cancel context.CancelFunc
	hb     atomic.Int64
	last   int64
	lastAt time.Time
	gone   bool
}

type stealPool struct {
	ctx   context.Context
	cfg   *supCfg
	b     Builder // chaos-wrapped worker-side builder
	opts  Options
	check func(*sim.Result) error
	table *pruneTable
	// onSettle, when non-nil, observes each root that settles whole,
	// from the worker goroutine that settled it (p.mu not held).
	onSettle func(root int, s *summary, capped bool)

	mu          sync.Mutex
	cond        *sync.Cond
	queue       []*stealItem
	roots       []*stealItem // frontier root items by frontier index (nil: not enqueued)
	outstanding int          // unresolved items (queued, claimed or donated)
	waiting     int          // workers parked on an empty queue
	itemSeq     int
	shutdown    bool                // ctx cancelled: workers drain out
	total       *summary            // the census the roots fold into
	failed      map[int]RootFailure // roots lost after the attempt budget, by frontier index
	claims      map[*stealClaim]struct{}
	nextWorker  int

	// hungryFlag mirrors (waiting > 0 && queue empty) for lock-free
	// polling from engine backtracks.
	hungryFlag atomic.Bool

	donations atomic.Uint64
	steals    atomic.Uint64

	wg       sync.WaitGroup
	finished chan struct{}
	finOnce  sync.Once
}

// poolCensus explores the roots of pl on the work-stealing pool,
// sharing table (nil: unpruned), and folds them in root order into the
// census. Roots in resumed were settled by an earlier run and are
// credited, not explored; orbit twins are never enqueued — the fold
// credits them from their representative. onSettle observes each root
// that settles here. The supervision config is returned for its
// counters.
func poolCensus(ctx context.Context, pl *DistPlan, table *pruneTable, resumed map[int]RootSummary,
	onSettle func(root int, s *summary, capped bool)) (*Census, *supCfg) {
	opts := pl.opts
	cfg := opts.supervise()
	p := &stealPool{
		ctx: ctx, cfg: cfg, b: cfg.wrapChaos(pl.b), opts: opts, check: pl.check, table: table,
		onSettle: onSettle, roots: make([]*stealItem, len(pl.items)), total: newSummary(),
		failed: make(map[int]RootFailure), claims: make(map[*stealClaim]struct{}), finished: make(chan struct{}),
	}
	p.cond = sync.NewCond(&p.mu)
	for _, i := range pl.Roots() {
		if _, ok := resumed[i]; ok {
			continue
		}
		it := &stealItem{pool: p, idx: p.itemSeq, prefix: pl.items[i].prefix, donor: -1, queued: true, frontier: i, pending: 1}
		p.queue = append(p.queue, it)
		p.roots[i] = it
		p.itemSeq++
	}
	p.outstanding = len(p.queue)
	if p.outstanding > 0 {
		workers := opts.workerCount()
		p.nextWorker = workers
		for w := 0; w < workers; w++ {
			p.wg.Add(1)
			go p.worker(w)
		}
		if cfg.stall > 0 {
			p.wg.Add(1)
			go p.watchdog()
		}
		// Wake parked workers if the context dies while the queue is dry.
		go func() {
			select {
			case <-p.ctx.Done():
				p.mu.Lock()
				p.shutdown = true
				p.cond.Broadcast()
				p.mu.Unlock()
			case <-p.finished:
			}
		}()
		p.wg.Wait()
		p.finish()
	}

	// Every worker and the watchdog have exited: the root bookkeeping is
	// final and read without p.mu (the fold calls back into the builder
	// and the check).
	c, orbitSkips := pl.fold(p.total, func(i int) (*summary, bool, bool) {
		if r, ok := resumed[i]; ok {
			return r.summary(pl.b, opts), r.Capped, true
		}
		if r := p.roots[i]; r != nil && r.acc != nil {
			return r.acc, r.capped, r.pending == 0
		}
		return nil, false, false
	}, p.failed)
	if table != nil {
		st := table.statsSnapshot()
		st.Donations = p.donations.Load()
		st.Steals = p.steals.Load()
		st.OrbitSkips = orbitSkips
		opts.markReducers(st)
		c.Prune = st
	}
	return c, cfg
}

func (p *stealPool) finish() { p.finOnce.Do(func() { close(p.finished) }) }

// stealForceHungry (tests only, set before the census starts) makes
// every pool report hungry, forcing a donation at every backtrack —
// maximal stealing churn for the bit-identity cross-checks.
var stealForceHungry bool

// hungry reports that some worker is parked on an empty queue — the
// cue for busy engines to donate at their next backtrack.
func (p *stealPool) hungry() bool { return stealForceHungry || p.hungryFlag.Load() }

// updateHungry recomputes the flag; callers hold p.mu.
func (p *stealPool) updateHungry() {
	p.hungryFlag.Store(p.waiting > 0 && len(p.queue) == 0 && p.outstanding > 0)
}

// next claims the next live item, blocking while the queue is empty
// but work is still outstanding (donations may refill it). nil means
// drained or cancelled: once the context is done nothing is claimed, so
// every cancelled attempt is its item's last.
func (p *stealPool) next(workerID int) *stealItem {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if p.shutdown || p.outstanding == 0 || p.ctx.Err() != nil {
			return nil
		}
		// LIFO: donated items are deepest and hottest in the shared table.
		for n := len(p.queue); n > 0; n = len(p.queue) {
			it := p.queue[n-1]
			p.queue = p.queue[:n-1]
			it.queued = false
			p.updateHungry()
			if it.done {
				continue // stale requeue of a since-resolved item
			}
			it.attempts++
			it.current++
			if it.donor >= 0 && it.donor != workerID {
				p.steals.Add(1)
			}
			return it
		}
		p.waiting++
		p.updateHungry()
		p.cond.Wait()
		p.waiting--
		p.updateHungry()
	}
}

func (p *stealPool) worker(id int) {
	defer p.wg.Done()
	for {
		it := p.next(id)
		if it == nil {
			return
		}
		p.attempt(id, it)
	}
}

// attempt explores one item once. Panics become retries (with the
// supervisor's backoff) up to the attempt budget, then a RootFailure.
func (p *stealPool) attempt(workerID int, it *stealItem) {
	p.mu.Lock()
	gen := it.current
	att := it.attempts
	hasSkips := len(it.skip) > 0
	root := it.rootOf().frontier
	p.mu.Unlock()
	p.cfg.stats.Attempts.Add(1)
	p.cfg.emit(Event{Kind: EventClaim, Root: root, Attempt: att})

	cctx, cancel := context.WithCancel(p.ctx)
	defer cancel()
	cl := &stealClaim{it: it, cancel: cancel}
	var beat func()
	if p.cfg.stall > 0 {
		beat = func() { cl.hb.Add(1) }
		p.mu.Lock()
		p.claims[cl] = struct{}{}
		p.mu.Unlock()
	}

	en := &engine{
		b: p.b, opts: p.opts, acc: newSummary(), check: p.check,
		table: p.table, root: it.prefix, ctx: cctx,
		pool: p, item: it, attempt: gen, workerID: workerID,
		skipcheck: hasSkips, onStep: beat,
	}
	panicMsg := runRecovering(en)
	if p.cfg.stall > 0 {
		// Deregister the claim before the retry path can sleep in
		// backoff: the attempt is over, and a finished claim left
		// registered would stop heartbeating and trip the watchdog
		// into a spurious requeue.
		p.mu.Lock()
		delete(p.claims, cl)
		p.mu.Unlock()
	}
	switch {
	case panicMsg != "":
		p.retryOrFail(it, gen, att, panicMsg)
	case en.cancelled:
		// A watchdog abandonment is discarded: the item was requeued and
		// its next attempt counts the subtree. An outer cancellation is
		// final — next claims nothing more — so the live attempt's
		// partial walk is kept.
		p.mu.Lock()
		if p.ctx.Err() != nil && !it.done && it.current == gen {
			it.rootOf().count(en.acc, en.capped)
		}
		p.mu.Unlock()
	default:
		p.resolve(it, gen, en)
	}
}

// runRecovering runs the engine, converting harness-side panics (chaos
// kills, builder bugs) into an error string for the retry policy.
func runRecovering(en *engine) (panicMsg string) {
	defer func() {
		if r := recover(); r != nil {
			panicMsg = fmt.Sprintf("panic: %v", r)
		}
	}()
	en.run()
	return ""
}

// resolve merges a completed attempt, first CURRENT-generation
// completion wins: a straggler from a superseded generation is
// discarded because the live generation may have donated children the
// straggler walked itself.
func (p *stealPool) resolve(it *stealItem, gen int, en *engine) {
	p.mu.Lock()
	if it.done || it.current != gen {
		p.mu.Unlock()
		return
	}
	it.done = true
	it.rootOf().count(en.acc, en.capped)
	settled := p.settleLocked(it)
	p.mu.Unlock()
	p.settled(settled)
}

// settleLocked finishes bookkeeping for a resolved (merged or failed)
// item and returns its root if this was the root's last item. Callers
// hold p.mu and hand the root to settled after unlocking.
func (p *stealPool) settleLocked(it *stealItem) *stealItem {
	p.outstanding--
	for cl := range p.claims {
		if cl.it == it {
			cl.cancel()
		}
	}
	p.updateHungry()
	p.cond.Broadcast()
	if p.outstanding == 0 {
		p.finish()
	}
	r := it.rootOf()
	if r.pending--; r.pending != 0 {
		return nil
	}
	return r
}

// settled reports a root whose items have all resolved: one event, and
// the onSettle record of a whole root. Called without p.mu; a settled
// root is never written again.
func (p *stealPool) settled(r *stealItem) {
	if r == nil {
		return
	}
	p.mu.Lock()
	f, lost := p.failed[r.frontier]
	p.mu.Unlock()
	if lost {
		p.cfg.emit(Event{Kind: EventFailed, Root: r.frontier, Attempt: f.Attempts, Err: f.Err})
		return
	}
	p.cfg.emit(Event{Kind: EventResolved, Root: r.frontier})
	if p.onSettle != nil {
		p.onSettle(r.frontier, r.acc, r.capped)
	}
}

// failLocked settles an item lost after its attempt budget. Its root
// fails whole, reported once under the root's own prefix: the coverage
// deficit is exactly that subtree. Callers hold p.mu.
func (p *stealPool) failLocked(it *stealItem, msg string) *stealItem {
	p.cfg.stats.Failed.Add(1)
	it.done = true
	r := it.rootOf()
	if _, lost := p.failed[r.frontier]; !lost {
		p.failed[r.frontier] = RootFailure{Prefix: r.prefix, Attempts: it.attempts, Err: msg}
	}
	return p.settleLocked(it)
}

// retryOrFail handles a panicked attempt of generation gen: requeue
// with backoff while the budget lasts, otherwise settle the item as
// failed. Like resolve, it is a no-op for a superseded generation:
// after a watchdog requeue has handed the item to a newer claim, the
// stale straggler's panic must neither requeue the item a second time
// nor burn it to a RootFailure out from under the live attempt (which
// would discard that attempt's imminent result and drop the subtree
// from the census).
func (p *stealPool) retryOrFail(it *stealItem, gen, att int, msg string) {
	p.mu.Lock()
	if it.done || it.current != gen {
		p.mu.Unlock()
		return
	}
	if it.attempts >= p.cfg.maxAttempts {
		settled := p.failLocked(it, msg)
		p.mu.Unlock()
		p.settled(settled)
		return
	}
	root := it.rootOf().frontier
	p.mu.Unlock()
	p.cfg.stats.Retries.Add(1)
	p.cfg.emit(Event{Kind: EventRetry, Root: root, Attempt: att, Err: msg})
	if !sleepCtx(p.ctx, p.cfg.backoff(it.idx, att+1)) {
		return
	}
	p.mu.Lock()
	// Re-check after the sleep: the watchdog may have requeued the item
	// already (queued), or a newer claim may own it now (current).
	if !it.done && it.current == gen && !it.queued {
		it.queued = true
		p.queue = append(p.queue, it)
		p.updateHungry()
		p.cond.Broadcast()
	}
	p.mu.Unlock()
}

// donateFrom splits off every untried child of frame f (at the given
// depth of en's walk) as new queue items of the same root, logging
// each in the item's skip set first. It reports whether the frame's
// remaining children are now excised from this walk — false only when
// the attempt lost currency (superseded or resolved), in which case the
// walk continues unchanged and its result will be discarded at resolve.
func (p *stealPool) donateFrom(en *engine, depth int, f *frame) bool {
	it := en.item
	p.mu.Lock()
	defer p.mu.Unlock()
	if it.done || it.current != en.attempt || p.shutdown {
		return false
	}
	count := en.childCount(f)
	if f.next >= count {
		return false
	}
	root := it.rootOf()
	donated := 0
	for idx := f.next; idx < count; idx++ {
		c := en.childChoice(f, idx)
		prefix := make([]Choice, 0, len(en.root)+depth+1)
		prefix = append(prefix, en.root...)
		prefix = append(prefix, en.path[:depth]...)
		prefix = append(prefix, c)
		key := FormatSchedule(prefix)
		if it.skip[key] {
			continue // already excised by an earlier attempt's donation
		}
		if it.skip == nil {
			it.skip = make(map[string]bool)
		}
		it.skip[key] = true
		it.skipSeqs = append(it.skipSeqs, prefix)
		p.queue = append(p.queue, &stealItem{pool: p, idx: p.itemSeq, prefix: prefix, donor: en.workerID, queued: true, root: root})
		p.itemSeq++
		p.outstanding++
		root.pending++
		donated++
	}
	en.skipcheck = true
	if donated > 0 {
		p.donations.Add(uint64(donated))
		p.updateHungry()
		p.cond.Broadcast()
	}
	return true
}

// watchdog requeues items whose claimed attempt stopped heartbeating,
// spawning a replacement worker so a wedged goroutine cannot shrink
// the pool; an item out of attempts is settled as failed so the pool
// still drains.
func (p *stealPool) watchdog() {
	defer p.wg.Done()
	tick := p.cfg.stall / 4
	if tick <= 0 {
		tick = time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-p.finished:
			return
		case <-p.ctx.Done():
			return
		case now := <-t.C:
			var requeued []Event // emitted, and roots settled, after unlock
			var settled []*stealItem
			p.mu.Lock()
			for cl := range p.claims {
				if cl.gone {
					continue
				}
				if v := cl.hb.Load(); cl.lastAt.IsZero() || v != cl.last {
					cl.last, cl.lastAt = v, now
					continue
				}
				if now.Sub(cl.lastAt) < p.cfg.stall {
					continue
				}
				cl.gone = true
				cl.cancel()
				it := cl.it
				switch {
				case it.done:
				case it.attempts >= p.cfg.maxAttempts:
					settled = append(settled, p.failLocked(it, fmt.Sprintf("stalled: no heartbeat progress for %v", p.cfg.stall)))
				case !it.queued:
					p.cfg.stats.Requeues.Add(1)
					requeued = append(requeued, Event{Kind: EventRequeue, Root: it.rootOf().frontier, Attempt: it.attempts})
					it.queued = true
					p.queue = append(p.queue, it)
					p.updateHungry()
					p.cond.Broadcast()
					p.wg.Add(1)
					id := p.nextWorker
					p.nextWorker++
					go p.worker(id)
				}
			}
			p.mu.Unlock()
			for _, e := range requeued {
				p.cfg.emit(e)
			}
			for _, r := range settled {
				p.settled(r)
			}
		}
	}
}
