package explore

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sim"
)

// The work-stealing pool: the one scheduler of census roots. Every
// census — Run at any width, pruned or not, RunCheckpointed, every
// leased subtree and every valence walk — explores its plan's roots
// here. Pruning makes subtree costs wildly uneven, so fixed roots
// load-balance badly; instead, when the queue runs dry and a worker
// goes hungry, each busy engine, at its next backtrack, donates every
// untried child of its shallowest open frame as new queue entries and
// keeps walking its current branch.
// Workers of other processes claim roots through the pool's remote seat
// (remote.go).
//
// The pool drives the root ledger (ledger.go), which decides which entry
// a worker claims, whether an attempt's result counts, what a donation
// may split off, and when a root settles or fails. The pool keeps the
// workers, the queue wait, the hungry flag, the backoff sleeps, the
// stall watchdog and one summary per root. A settled root is one
// EventResolved (EventFailed if lost), one onSettle call (the checkpoint
// loop's record, checkpoint.go), and one summary for the root-order
// merge (fold). A cancelled pool still counts each
// live attempt's partial walk into its root, but never settles it.
// Counts stay bit-identical at every width: summaries merge by
// addition, violation representatives keep DFS order (see rep), and
// the table serves only complete summaries; engine.go keeps frames
// that lost runs to a donation out of it.

// poolAttempt is one claimed attempt on a worker.
type poolAttempt struct {
	c      Claim
	ctx    context.Context
	cancel context.CancelFunc
	hb     atomic.Int64 // engine steps so far: the watchdog's heartbeat
	last   int64        // hb at the watchdog's last look
	gone   bool         // abandoned by the watchdog
}

type stealPool struct {
	ctx   context.Context
	cfg   *supCfg
	b     Builder // chaos-wrapped worker-side builder
	opts  Options
	check func(*sim.Result) error
	table *pruneTable
	ids   *outcomeIDs // the table's, or the census's own when unpruned
	// onSettle, when non-nil, observes each root that settles whole,
	// from the worker goroutine that settled it (p.mu not held).
	onSettle func(root int, r RootSummary)
	// beat, when non-nil, is bumped on every engine step of every
	// attempt (a remote worker's lease renewal cue).
	beat func()
	// seat, when non-nil, seats remote workers at the pool (remote.go);
	// remote maps each entry it granted to the generation of the grant.
	seat   *RemoteSeat
	remote map[int]int

	mu      sync.Mutex
	cond    *sync.Cond
	ledger  *Ledger
	acc     []*summary // runs counted under each root so far, by frontier index
	capped  []bool     // some attempt of the root hit MaxRuns
	waiting int        // workers parked on an empty queue
	workers int        // workers started so far
	// running holds the attempts the stall watchdog watches; epoch is
	// the zero of the ledger's clock.
	running map[*poolAttempt]struct{}
	epoch   time.Time

	// hungryFlag mirrors (waiting > 0 && queue empty && roots unsettled)
	// for lock-free polling from engine backtracks.
	hungryFlag atomic.Bool

	donations atomic.Uint64
	steals    atomic.Uint64

	wg       sync.WaitGroup
	finished chan struct{}
	finOnce  sync.Once
}

// pooled is a pool run folded in root order: the census total, the
// interner of its outcome IDs, what the fold learned besides the counts,
// the supervision config (for its counters) and, when pruned, the
// table's counters.
type pooled struct {
	total                 *summary
	ids                   *outcomeIDs
	exhaustive, cancelled bool
	failures              []RootFailure
	cfg                   *supCfg
	prune                 *PruneStats
}

// runPool explores the roots of pl on the work-stealing pool, sharing
// table (nil: unpruned), and folds them in root order. Roots in resumed
// were settled by an earlier run and are credited, not explored; orbit
// twins are never enqueued — the fold credits them from their
// representative. onSettle observes each root that settles here, beat
// every engine step, and seat (nil: none) seats remote workers at the
// pool for its run.
func runPool(ctx context.Context, pl *distPlan, table *pruneTable, resumed map[int]RootSummary,
	onSettle func(root int, r RootSummary), beat func(), seat *RemoteSeat) *pooled {
	opts := pl.opts
	cfg := opts.supervise()
	ids := newOutcomeIDs()
	if table != nil {
		ids = table.ids
	}
	p := &stealPool{
		ctx: ctx, cfg: cfg, b: cfg.wrapChaos(pl.b), opts: opts, check: pl.check, table: table, ids: ids,
		onSettle: onSettle, beat: beat, seat: seat, ledger: NewLedger(cfg.maxAttempts),
		acc: make([]*summary, len(pl.items)), capped: make([]bool, len(pl.items)),
		running: make(map[*poolAttempt]struct{}), epoch: time.Now(), finished: make(chan struct{}),
	}
	p.cond = sync.NewCond(&p.mu)
	for _, i := range pl.Roots() {
		if _, ok := resumed[i]; !ok {
			p.ledger.Open(i, pl.items[i].prefix)
		}
	}
	if !p.ledger.Finished() {
		// Wake parked workers if the context dies while the queue is dry.
		defer context.AfterFunc(ctx, func() {
			p.mu.Lock()
			p.ledger.Close()
			p.cond.Broadcast()
			p.mu.Unlock()
		})()
		if seat != nil {
			p.remote = make(map[int]int)
			seat.attach(p, pl, len(resumed))
		}
		for w := 0; w < opts.workerCount(); w++ {
			p.spawn()
		}
		if cfg.stall > 0 || seat != nil {
			p.wg.Add(1)
			go p.watchdog()
		}
		p.wg.Wait()
		if seat != nil {
			seat.detach()
		}
	}
	return p.fold(pl, resumed)
}

// fold merges the roots of pl in DFS root order: leaves are classified,
// each root contributes the summary credited from resumed or counted
// here, and an orbit twin without a settled summary of its own is
// credited its representative's, renamed into the twin's orientation
// (counted in OrbitSkips); a twin of a lost representative shares the
// rep's recorded deficit. A failed root contributes nothing. A root
// neither settled nor failed leaves the census cancelled, though any
// partial count it carries is merged. Every worker and the watchdog
// have exited, so the root bookkeeping is final and read without p.mu
// (the fold calls back into the builder and the check).
func (p *stealPool) fold(pl *distPlan, resumed map[int]RootSummary) *pooled {
	root := func(i int) (s *summary, capped, settled bool) {
		if r, ok := resumed[i]; ok {
			return r.summary(p.ids, p.opts.FaultModes), r.Capped, true
		}
		return p.acc[i], p.capped[i], p.ledger.Settled(i)
	}
	failed := p.ledger.Failures()
	r := &pooled{total: newSummary(), ids: p.ids, exhaustive: true, cfg: p.cfg}
	var orbitSkips uint64
	for i, it := range pl.items {
		if it.prefix == nil {
			r.total.addTerminal(*it.leaf, p.ids, p.check, p.opts.FaultModes)
			continue
		}
		if fail, lost := failed[i]; lost {
			r.failures = append(r.failures, fail)
			r.exhaustive = false
			continue
		}
		s, capped, settled := root(i)
		if !settled && pl.orbit != nil && pl.orbit.rep[i] != i {
			j := pl.orbit.rep[i]
			if _, lost := failed[j]; lost {
				r.exhaustive = false // the rep's failure records the deficit
				continue
			}
			if s, capped, settled = root(j); settled {
				r.total.merge(s, orbitRenamer(p.ids, p.opts.canon, pl.orbit.perm[j], pl.orbit.perm[i]))
				orbitSkips++
			}
		} else if s != nil {
			r.total.merge(s, nil)
		}
		switch {
		case !settled:
			r.exhaustive, r.cancelled = false, true
		case capped:
			r.exhaustive = false
		}
	}
	if p.table != nil {
		r.prune = p.table.statsSnapshot()
		r.prune.Donations = p.donations.Load()
		r.prune.Steals = p.steals.Load()
		r.prune.OrbitSkips = orbitSkips
		p.opts.markReducers(r.prune)
	}
	return r
}

// census turns a pool run of pl into its Census.
func (r *pooled) census(pl *distPlan) *Census {
	c := censusFrom(r.total, r.ids, pl.b, pl.opts, r.exhaustive)
	c.FailedRoots = r.failures
	c.Errors = failureStrings(r.failures)
	c.Cancelled = r.cancelled
	c.Prune = r.prune
	return c
}

func (p *stealPool) finish() { p.finOnce.Do(func() { close(p.finished) }) }

// spawn starts one more worker. Callers hold p.mu, or no worker runs yet.
func (p *stealPool) spawn() {
	p.wg.Add(1)
	go p.worker(strconv.Itoa(p.workers))
	p.workers++
}

// stealForceHungry (tests only, set before the census starts) makes
// every pool report hungry, forcing a donation at every backtrack —
// maximal stealing churn for the bit-identity cross-checks.
var stealForceHungry bool

// hungry reports that some worker is parked on an empty queue — the
// cue for busy engines to donate at their next backtrack.
func (p *stealPool) hungry() bool { return stealForceHungry || p.hungryFlag.Load() }

// updateHungry recomputes the flag; callers hold p.mu.
func (p *stealPool) updateHungry() {
	p.hungryFlag.Store(p.waiting > 0 && p.ledger.Queued() == 0 && !p.ledger.Finished())
}

// stepped follows every ledger step that can refill the queue or settle
// a root: it refreshes the hungry flag, wakes parked workers and closes
// finished once every root has settled. Callers hold p.mu.
func (p *stealPool) stepped() {
	p.updateHungry()
	p.cond.Broadcast()
	if p.ledger.Finished() {
		p.finish()
	}
}

// now reads the ledger's clock.
func (p *stealPool) now() int64 { return int64(time.Since(p.epoch)) }

// emit reports ledger events to the supervision counters, onSettle and
// the observer, in that order: a root is recorded before it is seen
// done. Callers do not hold p.mu; a settled root is never written again.
func (p *stealPool) emit(evs []Event) {
	for _, e := range evs {
		switch e.Kind {
		case EventClaim:
			p.cfg.stats.Attempts.Add(1)
		case EventRetry:
			p.cfg.stats.Retries.Add(1)
		case EventRequeue:
			p.cfg.stats.Requeues.Add(1)
		case EventFailed:
			p.cfg.stats.Failed.Add(1)
		case EventResolved:
			if p.onSettle != nil {
				p.onSettle(e.Root, p.acc[e.Root].record(p.ids, p.opts.FaultModes, p.capped[e.Root]))
			}
		}
		if p.cfg.onEvent != nil {
			p.cfg.onEvent(e)
		}
	}
}

func (p *stealPool) worker(name string) {
	defer p.wg.Done()
	for {
		a := p.next(name)
		if a == nil || !p.attempt(name, a) {
			return
		}
	}
}

// next claims the next entry, blocking while the queue holds nothing
// the worker may claim but roots are unsettled (donations and requeues
// may refill it). While a seated remote worker is live, the worker
// leaves whole entries to the seat; it reads the seat's liveness at
// every claim, and every watchdog tick wakes it to read it again. nil
// means
// drained or cancelled: once the context is done nothing is claimed, so
// every cancelled attempt is its entry's last.
func (p *stealPool) next(name string) *poolAttempt {
	for {
		leave := p.seat != nil && p.seat.live()
		p.mu.Lock()
		if p.ctx.Err() != nil || p.ledger.Finished() {
			p.mu.Unlock()
			return nil
		}
		var deadline int64
		if p.cfg.stall > 0 {
			deadline = p.now() + int64(p.cfg.stall)
		}
		var c Claim
		var ev []Event
		var ok bool
		if leave {
			c, ev, ok = p.ledger.ClaimWhole(name, deadline, false)
		} else {
			c, ev, ok = p.ledger.Claim(name, deadline)
		}
		if ok {
			a := &poolAttempt{c: c}
			a.ctx, a.cancel = context.WithCancel(p.ctx)
			if p.cfg.stall > 0 {
				p.running[a] = struct{}{}
			}
			p.updateHungry()
			p.mu.Unlock()
			p.emit(ev)
			return a
		}
		p.waiting++
		p.updateHungry()
		p.cond.Wait()
		p.waiting--
		p.updateHungry()
		p.mu.Unlock()
	}
}

// attempt explores one claimed entry once and settles the outcome with
// the ledger: a completed walk is delivered, a panic fails the attempt
// (the entry is requeued after the supervisor's backoff while the
// attempt budget lasts), and an outer cancellation keeps the live
// attempt's partial walk. It reports false when the watchdog abandoned
// the attempt: the worker retires, the watchdog having started its
// replacement, so the pool stays at its width.
func (p *stealPool) attempt(name string, a *poolAttempt) bool {
	defer a.cancel()
	c := a.c
	if c.Donor != "" && c.Donor != name {
		p.steals.Add(1)
	}
	beat := p.beat
	if p.cfg.stall > 0 {
		beat = func() {
			a.hb.Add(1)
			if p.beat != nil {
				p.beat()
			}
		}
	}
	en := &engine{
		b: p.b, opts: p.opts, acc: newSummary(), check: p.check, ids: p.ids,
		table: p.table, root: c.Prefix, ctx: a.ctx,
		pool: p, claim: c, skipcheck: c.Logged > 0, onStep: beat,
	}
	panicMsg := runRecovering(en)

	p.mu.Lock()
	delete(p.running, a)
	gone := a.gone
	var ev []Event
	switch {
	case gone:
		// The watchdog requeued or wrote off the entry when it gave up.
	case panicMsg != "":
		_, ev = p.ledger.Fail(c.Entry, c.Gen, panicMsg)
	case en.cancelled:
		// Only the context cancels an attempt the watchdog did not
		// abandon, so it still holds its claim: keep its partial walk.
		p.count(c.Root, en.acc, en.capped)
	default:
		var v Verdict
		if v, ev = p.ledger.Deliver(c.Entry, c.Gen); v == VerdictAccepted {
			p.count(c.Root, en.acc, en.capped)
		}
	}
	p.stepped()
	p.mu.Unlock()
	p.emit(ev)

	if len(ev) > 0 && ev[0].Kind == EventRetry && sleepCtx(p.ctx, p.cfg.backoff(c.Entry, c.Attempt+1)) {
		p.mu.Lock()
		p.ledger.Requeue(c.Entry)
		p.stepped()
		p.mu.Unlock()
	}
	return !gone
}

// count merges one attempt's walk into its root, which takes ownership
// of s. Callers hold p.mu.
func (p *stealPool) count(root int, s *summary, capped bool) {
	if p.acc[root] == nil {
		p.acc[root] = s
	} else {
		p.acc[root].merge(s, nil)
	}
	p.capped[root] = p.capped[root] || capped
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

// donate steps the ledger with a donation by attempt c of kids, the
// children of the node at prefix base, and reports whether it took them.
func (p *stealPool) donate(c Claim, base, kids []Choice) bool {
	p.mu.Lock()
	v, n := p.ledger.Donate(c.Entry, c.Gen, base, kids)
	if n > 0 {
		p.stepped()
	}
	p.mu.Unlock()
	p.donations.Add(uint64(n))
	return v == VerdictAccepted
}

// watchdog steps expire every tick — a quarter of the stall timeout or
// of the seat's lease TTL, whichever is shorter — until the pool
// finishes or its context ends.
func (p *stealPool) watchdog() {
	defer p.wg.Done()
	tick := p.cfg.stall / 4
	if p.seat != nil && (p.cfg.stall == 0 || p.seat.ttl < p.cfg.stall) {
		tick = p.seat.ttl / 4
	}
	t := time.NewTicker(max(tick, time.Millisecond))
	defer t.Stop()
	for {
		select {
		case <-p.finished:
			return
		case <-p.ctx.Done():
			return
		case <-t.C:
		}
		p.expire(p.now())
	}
}

// expire is one watchdog step at instant now of the pool's clock. It
// turns heartbeat progress into ledger beats and takes back the claims
// whose deadline passed: each stalled local attempt is cancelled and a
// replacement worker started, the abandoned one retiring once its
// attempt returns; each lapsed lease is reported to the seat. An entry
// out of attempts is written off, so the pool still drains. The wake-up
// it ends with lets parked workers read the seat's liveness again.
func (p *stealPool) expire(now int64) {
	p.mu.Lock()
	for a := range p.running {
		if hb := a.hb.Load(); hb != a.last {
			a.last = hb
			p.ledger.Beat(a.c.Entry, a.c.Gen, now+int64(p.cfg.stall))
		}
	}
	stalled := fmt.Sprintf("stalled: no heartbeat progress for %v", p.cfg.stall)
	expired, ev := p.ledger.expire(now, func(c Claim) string {
		if p.leased(c.Entry, c.Gen) {
			return "lease expired"
		}
		return stalled
	})
	var lapsed []Claim
	for _, c := range expired {
		if p.leased(c.Entry, c.Gen) {
			lapsed = append(lapsed, c)
			continue
		}
		for a := range p.running {
			if a.c.Entry == c.Entry && a.c.Gen == c.Gen {
				a.gone = true
				a.cancel()
				delete(p.running, a)
				p.spawn()
			}
		}
	}
	p.stepped()
	p.mu.Unlock()
	p.emit(ev)
	if p.seat != nil && p.seat.onExpire != nil {
		for _, c := range lapsed {
			p.seat.onExpire(c)
		}
	}
}
