package explore

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sim"
)

// This file is the supervision policy of the work-stealing pool
// (steal.go), the one scheduler behind every pooled census: cooperative
// cancellation, capped retry with deterministic backoff when an
// attempt panics, a heartbeat-driven stall watchdog that requeues
// entries whose workers stop advancing, and a seeded chaos injector
// used by the tests to prove all of it preserves bit-identical
// censuses. Attempts replay the same prefix from the same state, so a
// retry changes nothing a successful attempt counts, and the root
// ledger (ledger.go) counts exactly one attempt per entry.

// Supervise configures the resilience policy of pooled exploration.
// The zero value (or a nil Options.Supervision) means: 3 attempts per
// pool item, 5ms base / 500ms cap exponential backoff, no stall
// watchdog, no chaos.
type Supervise struct {
	// MaxAttempts bounds how often one pool item is attempted before its
	// root is reported as permanently failed. Zero means
	// DefaultMaxAttempts.
	MaxAttempts int
	// BackoffBase and BackoffMax shape the exponential backoff between
	// attempts of one item: attempt k (k >= 2) waits
	// min(BackoffBase << (k-2), BackoffMax), jittered deterministically
	// into [d/2, d] from (Seed, item, attempt). Zeros mean the package
	// defaults.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Seed feeds the backoff jitter; runs with equal seeds back off
	// identically.
	Seed int64
	// StallTimeout arms the watchdog: a claimed item whose worker
	// heartbeat does not advance for this long is requeued (attempts
	// permitting) under a new generation. A replacement worker starts,
	// and the abandoned one retires when its attempt returns, so the
	// pool stays at its width. Zero disables the watchdog.
	StallTimeout time.Duration
	// Chaos, when non-nil, injects seeded worker kills and stalls —
	// the fault model the retry policy and watchdog are verified under.
	Chaos *ChaosPlan
	// Stats, when non-nil, receives the run's supervision counters.
	Stats *SuperviseStats
	// OnEvent, when non-nil, observes the pool's lifecycle as it
	// happens: a claim, retry or requeue per item attempt (Root names
	// the item's frontier root), and one resolve or failure per root
	// when it settles. Every pooled census emits them — Run with
	// workers and RunCheckpointed alike. It is called from worker
	// goroutines, possibly concurrently, and must be fast and
	// thread-safe; it must not call back into the walk. Events are
	// advisory telemetry — they never affect counts.
	OnEvent func(Event)
}

// EventKind classifies a supervisor Event.
type EventKind uint8

const (
	// EventClaim: a worker claimed an item of the root and began an
	// attempt.
	EventClaim EventKind = iota + 1
	// EventResolved: the root settled — every item of its subtree
	// resolved (emitted exactly once per root, however many attempts
	// and donations it took).
	EventResolved
	// EventRetry: an attempt failed (a panic, or an error a distributed
	// worker reported) and its item is re-queued.
	EventRetry
	// EventRequeue: the stall watchdog (or a lease expiry) abandoned an
	// attempt and re-queued its item.
	EventRequeue
	// EventFailed: the root settled lost — an item of it ran out of its
	// attempt budget; the root's subtree is the census's coverage
	// deficit.
	EventFailed
)

func (k EventKind) String() string {
	switch k {
	case EventClaim:
		return "claim"
	case EventResolved:
		return "resolved"
	case EventRetry:
		return "retry"
	case EventRequeue:
		return "requeue"
	case EventFailed:
		return "failed"
	}
	return fmt.Sprintf("event(%d)", uint8(k))
}

// Event is one supervisor lifecycle observation, delivered through
// Supervise.OnEvent.
type Event struct {
	Kind EventKind
	// Root is the frontier root index the event concerns.
	Root int
	// Attempt is the 1-based attempt number (0 when not applicable).
	Attempt int
	// Err carries the failure detail of retry/failed events.
	Err string
}

// DefaultMaxAttempts is the per-item attempt budget when
// Supervise.MaxAttempts is zero.
const DefaultMaxAttempts = 3

// Default backoff shape when Supervise leaves it zero.
const (
	DefaultBackoffBase = 5 * time.Millisecond
	DefaultBackoffMax  = 500 * time.Millisecond
)

// ChaosPlan injects faults into worker-side exploration: each call of
// the worker-side builder may panic ("kill") or sleep ("stall"),
// decided by a seeded RNG so failures land at reproducible points. The
// engine calls the builder once per item attempt (initMachine builds
// the system to test Snapshotable); a Snapshotable system is restored
// in place after that, while any other builder is called again for
// every terminal probe. Frontier enumeration and checkpoint replay
// always use the clean builder — chaos only ever hits work the
// supervisor protects.
type ChaosPlan struct {
	// Seed seeds the injection RNG.
	Seed int64
	// KillRate is the per-builder-call probability of an injected
	// panic; MaxKills caps the total injected kills (0 = unlimited).
	KillRate float64
	MaxKills int
	// StallRate is the per-builder-call probability of an injected
	// sleep of StallFor (default 50ms); MaxStalls caps them (0 =
	// unlimited).
	StallRate float64
	MaxStalls int
	StallFor  time.Duration
}

// SuperviseStats counts supervisor activity across one walk. All
// fields are safe to read after the walk returns.
type SuperviseStats struct {
	// Attempts counts item claims (first tries and retries).
	Attempts atomic.Int64
	// Retries counts re-enqueues after a failed (panicked) attempt.
	Retries atomic.Int64
	// Requeues counts watchdog-triggered re-enqueues of stalled items.
	Requeues atomic.Int64
	// Kills and Stalls count injected chaos events.
	Kills  atomic.Int64
	Stalls atomic.Int64
	// Failed counts roots lost after the attempt budget.
	Failed atomic.Int64
}

// RootFailure records one frontier root permanently lost after the
// supervisor's retry budget. The coverage deficit is exact: the runs
// under Prefix — and only those — are missing from the census.
type RootFailure struct {
	// Prefix is the root's schedule prefix.
	Prefix []Choice
	// Attempts is how many times exploration of the root was tried.
	Attempts int
	// Err is the last attempt's failure.
	Err string
}

func (f RootFailure) String() string {
	return fmt.Sprintf("subtree %q lost after %d attempts: %s (coverage deficit: exactly the runs under that prefix)",
		FormatSchedule(f.Prefix), f.Attempts, f.Err)
}

func failureStrings(failed []RootFailure) []string {
	if len(failed) == 0 {
		return nil
	}
	out := make([]string, len(failed))
	for i, f := range failed {
		out[i] = f.String()
	}
	return out
}

// supCfg is Supervise resolved to concrete values. stats is never nil
// so counters are always collected (surfaced through Supervise.Stats
// when the caller provided one).
type supCfg struct {
	maxAttempts int
	base, cap   time.Duration
	seed        int64
	stall       time.Duration
	chaos       *chaosState
	stats       *SuperviseStats
	onEvent     func(Event)
}

func (o Options) supervise() *supCfg {
	cfg := &supCfg{
		maxAttempts: DefaultMaxAttempts,
		base:        DefaultBackoffBase,
		cap:         DefaultBackoffMax,
		stats:       &SuperviseStats{},
	}
	if s := o.Supervision; s != nil {
		if s.MaxAttempts > 0 {
			cfg.maxAttempts = s.MaxAttempts
		}
		if s.BackoffBase > 0 {
			cfg.base = s.BackoffBase
		}
		if s.BackoffMax > 0 {
			cfg.cap = s.BackoffMax
		}
		cfg.seed = s.Seed
		cfg.stall = s.StallTimeout
		if s.Stats != nil {
			cfg.stats = s.Stats
		}
		cfg.onEvent = s.OnEvent
		if s.Chaos != nil {
			cfg.chaos = newChaosState(s.Chaos)
		}
	}
	return cfg
}

// backoff is the delay before the attempt-th try (attempt >= 2) of the
// given pool item: exponential, capped, with jitter drawn
// deterministically from (seed, item, attempt) into the upper half so
// concurrent retries spread out without sacrificing reproducibility.
func (c *supCfg) backoff(item, attempt int) time.Duration {
	d := c.base
	for i := 2; i < attempt; i++ {
		if d >= c.cap {
			break
		}
		d *= 2
	}
	if d > c.cap {
		d = c.cap
	}
	half := d / 2
	if half <= 0 {
		return d
	}
	h := uint64(14695981039346656037) // FNV-1a over (seed, item, attempt)
	for _, v := range [...]uint64{uint64(c.seed), uint64(item), uint64(attempt)} {
		for s := 0; s < 64; s += 8 {
			h ^= (v >> s) & 0xff
			h *= 1099511628211
		}
	}
	return half + time.Duration(h%uint64(half+1))
}

// chaosState is a ChaosPlan plus its RNG and budgets; next is called
// once per worker-side builder invocation.
type chaosState struct {
	mu            sync.Mutex
	rng           *rand.Rand
	plan          ChaosPlan
	kills, stalls int
}

func newChaosState(p *ChaosPlan) *chaosState {
	cp := *p
	if cp.StallFor <= 0 {
		cp.StallFor = 50 * time.Millisecond
	}
	return &chaosState{rng: rand.New(rand.NewSource(cp.Seed)), plan: cp}
}

func (c *chaosState) next() (kill bool, stall time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.plan.KillRate > 0 && (c.plan.MaxKills == 0 || c.kills < c.plan.MaxKills) &&
		c.rng.Float64() < c.plan.KillRate {
		c.kills++
		return true, 0
	}
	if c.plan.StallRate > 0 && (c.plan.MaxStalls == 0 || c.stalls < c.plan.MaxStalls) &&
		c.rng.Float64() < c.plan.StallRate {
		c.stalls++
		return false, c.plan.StallFor
	}
	return false, 0
}

// chaosKill is the panic value of an injected kill; it reads clearly in
// RootFailure.Err and lets tests tell injected kills from real bugs.
type chaosKill struct{}

func (chaosKill) String() string { return "chaos: injected worker kill" }

// wrapChaos wraps a builder for worker-side exploration under the chaos
// plan: every call draws once from the plan (see ChaosPlan for how
// often the engine calls it). With no plan it returns b unchanged
// (zero overhead).
func (c *supCfg) wrapChaos(b Builder) Builder {
	if c.chaos == nil {
		return b
	}
	ch, stats := c.chaos, c.stats
	return func() *sim.System {
		kill, stall := ch.next()
		if kill {
			stats.Kills.Add(1)
			panic(chaosKill{})
		}
		if stall > 0 {
			stats.Stalls.Add(1)
			time.Sleep(stall)
		}
		return b()
	}
}

// sleepCtx sleeps d, returning false early if ctx is cancelled.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}
