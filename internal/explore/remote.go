package explore

import (
	"sync"
	"time"

	"repro/internal/sim"
)

// The remote seat: workers of other processes claim a pooled census's
// roots through it, as steps of the pool's ledger (steal.go), and the
// pool's watchdog takes back lapsed leases as it takes back stalled
// local claims. Graceful degradation is a claim rule: a remote worker
// claims only a whole entry — a root's own, with an empty donation log,
// so its walk owns the root's subtree and never donates — and local
// workers leave whole entries to the seat while a remote worker is live
// and always claim the others. A delivery counts only under a
// generation the seat granted to a remote worker, so a worker of an
// earlier coordinator cannot resolve an entry a local attempt holds,
// nor one whose subtree was partly donated away.

// RemoteSeat seats the workers of other processes at one census's pool.
// Its steps take the caller's clock reading; while no pool runs on the
// seat it grants, renews and accepts nothing.
type RemoteSeat struct {
	ttl      time.Duration
	live     func() bool
	onExpire func(Claim)

	mu      sync.Mutex
	p       *stealPool // the pool running on the seat; nil before and after its run
	pl      *distPlan
	resumed int
	steps   sync.WaitGroup // steps in flight on p
}

// NewRemoteSeat returns a seat whose leases last ttl past their claim
// and each beat. live reports whether a remote worker is live: local
// workers leave whole entries to the seat while it does, and read it at
// every claim and after every watchdog tick. onExpire, when non-nil,
// observes each lease the pool's watchdog takes back.
func NewRemoteSeat(ttl time.Duration, live func() bool, onExpire func(Claim)) *RemoteSeat {
	return &RemoteSeat{ttl: ttl, live: live, onExpire: onExpire}
}

// RunCheckpointed is RunCheckpointed with the seat at the census's pool
// for the length of its run.
func (s *RemoteSeat) RunCheckpointed(b Builder, opts Options, check func(*sim.Result) error, ck Checkpoint) (*Census, CheckpointStats, error) {
	return runCheckpointed(b, opts, check, ck, s)
}

// attach seats pool p of plan pl, which credited resumed roots from a
// checkpoint; detach ends its run once the steps in flight on it have
// returned, so the pool then folds its roots undisturbed.
func (s *RemoteSeat) attach(p *stealPool, pl *distPlan, resumed int) {
	s.mu.Lock()
	s.p, s.pl, s.resumed = p, pl, resumed
	s.mu.Unlock()
}

func (s *RemoteSeat) detach() {
	s.mu.Lock()
	s.p = nil
	s.mu.Unlock()
	s.steps.Wait()
}

// on runs step on the seated pool, if one runs on the seat.
func (s *RemoteSeat) on(step func(p *stealPool)) {
	s.mu.Lock()
	p := s.p
	if p != nil {
		s.steps.Add(1)
	}
	s.mu.Unlock()
	if p != nil {
		defer s.steps.Done()
		step(p)
	}
}

// Lease claims the newest queued whole entry for owner until now plus
// the TTL, and returns it with the plan's options fingerprint. ok is
// false when no whole entry is queued or no pool runs on the seat.
func (s *RemoteSeat) Lease(owner string, now time.Time) (c Claim, optionsFP string, ok bool) {
	s.on(func(p *stealPool) {
		var ev []Event
		p.mu.Lock()
		if c, ev, ok = p.ledger.ClaimWhole(owner, p.at(now.Add(s.ttl)), true); ok {
			p.remote[c.Entry] = c.Gen
			p.updateHungry()
		}
		p.mu.Unlock()
		p.emit(ev)
		optionsFP = s.pl.optsFP
	})
	return c, optionsFP, ok
}

// Beat renews the lease of root at generation gen until now plus the
// TTL. false means the lease is gone — taken back, settled, or the
// census closed — and its attempt should stop.
func (s *RemoteSeat) Beat(root, gen int, now time.Time) (ok bool) {
	s.on(func(p *stealPool) {
		p.mu.Lock()
		defer p.mu.Unlock()
		e := p.ledger.Entry(root)
		ok = p.leased(e, gen) && p.ledger.Beat(e, gen, p.at(now.Add(s.ttl)))
	})
	return ok
}

// Deliver settles the lease of root at generation gen with the root's
// summary; the verdict says whether it counted. The settled root is
// recorded, saved and reported after Deliver returns, so the worker's
// next lease does not wait for the checkpoint's fsync; the pool folds
// its roots only once they are. A summary the plan cannot have produced
// (distPlan.CheckSummary) fails the attempt instead, as Fail does.
func (s *RemoteSeat) Deliver(root, gen int, sum RootSummary) Verdict {
	return s.end(root, gen, func(p *stealPool, e int) (Verdict, []Event) {
		if err := s.pl.CheckSummary(sum); err != nil {
			return p.failLease(e, gen, "invalid summary: "+err.Error())
		}
		v, ev := p.ledger.Deliver(e, gen)
		if v == VerdictAccepted {
			p.count(root, sum.summary(p.ids, p.opts.FaultModes), sum.Capped)
		}
		return v, ev
	})
}

// Fail records that the attempt holding the lease of root at generation
// gen failed, with why: within the attempt budget the root is requeued
// at once, and past it the root is lost.
func (s *RemoteSeat) Fail(root, gen int, why string) Verdict {
	return s.end(root, gen, func(p *stealPool, e int) (Verdict, []Event) {
		return p.failLease(e, gen, why)
	})
}

// end ends the lease of root at generation gen with step, a ledger step
// on root's own entry e under the pool's mutex; a generation the seat
// did not grant to a remote worker is stale. A root the step settles is
// reported after end returns, as a step in flight on the seat.
func (s *RemoteSeat) end(root, gen int, step func(p *stealPool, e int) (Verdict, []Event)) Verdict {
	v := VerdictStale
	s.on(func(p *stealPool) {
		var ev []Event
		p.mu.Lock()
		if e := p.ledger.Entry(root); p.leased(e, gen) {
			v, ev = step(p, e)
		}
		p.stepped()
		p.mu.Unlock()
		if len(ev) == 0 || ev[0].Kind != EventResolved {
			p.emit(ev)
			return
		}
		s.steps.Add(1)
		go func() {
			defer s.steps.Done()
			p.emit(ev)
		}()
	})
	return v
}

// Expire steps the pool's watchdog at now: every lease, and every
// stalled local claim, whose deadline has passed is taken back. The
// watchdog steps itself on every tick.
func (s *RemoteSeat) Expire(now time.Time) {
	s.on(func(p *stealPool) { p.expire(p.at(now)) })
}

// View reports the census on the seat as it stands: the entries queued,
// the roots credited from the checkpoint, and the leases held in entry
// order, each Deadline in Unix nanoseconds.
func (s *RemoteSeat) View() (queued, resumed int, leases []Claim) {
	s.on(func(p *stealPool) {
		p.mu.Lock()
		defer p.mu.Unlock()
		queued = p.ledger.Queued()
		for _, c := range p.ledger.Claims() {
			if p.leased(c.Entry, c.Gen) {
				c.Deadline = p.epoch.Add(time.Duration(c.Deadline)).UnixNano()
				leases = append(leases, c)
			}
		}
	})
	s.mu.Lock()
	defer s.mu.Unlock()
	return queued, s.resumed, leases
}

// leased reports whether the seat granted entry e to a remote worker at
// generation gen. Callers hold p.mu.
func (p *stealPool) leased(e, gen int) bool {
	g, ok := p.remote[e]
	return ok && g == gen
}

// failLease fails the attempt holding entry e at generation gen,
// requeuing e at once within the attempt budget. Callers hold p.mu.
func (p *stealPool) failLease(e, gen int, why string) (Verdict, []Event) {
	v, ev := p.ledger.Fail(e, gen, why)
	if v == VerdictAccepted {
		p.ledger.Requeue(e)
	}
	return v, ev
}

// at reads instant t on the pool's clock.
func (p *stealPool) at(t time.Time) int64 { return int64(t.Sub(p.epoch)) }
