package explore

import (
	"math"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
)

// Tests for the jobs the work-stealing pool took over from the retired
// schedulers: checkpointed censuses and plain multi-worker censuses,
// both under forced donation, plus the saturating summary arithmetic
// every merge relies on.

// eventLog records supervisor events by kind and root.
type eventLog struct {
	mu       sync.Mutex
	counts   map[EventKind]int
	resolved map[int]int
}

func newEventLog() *eventLog {
	return &eventLog{counts: map[EventKind]int{}, resolved: map[int]int{}}
}

func (l *eventLog) record(e Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.counts[e.Kind]++
	if e.Kind == EventResolved {
		l.resolved[e.Root]++
	}
}

// sameReps asserts two censuses recorded the same violation
// representatives in the same order.
func sameReps(t *testing.T, label string, got, want *Census) {
	t.Helper()
	if len(got.Violations) != len(want.Violations) {
		t.Fatalf("%s recorded %d violations, want %d", label, len(got.Violations), len(want.Violations))
	}
	for i := range want.Violations {
		if g, w := FormatSchedule(got.Violations[i].Schedule), FormatSchedule(want.Violations[i].Schedule); g != w {
			t.Fatalf("%s violation %d is %s, want %s", label, i, g, w)
		}
	}
}

// TestPooledCheckpointKillResume: with a donation forced at every
// backtrack, a RunCheckpointed run killed after a few settled roots and
// then resumed must land on Run's census bit for bit — representatives
// included — and the two runs together must emit exactly one
// EventResolved per root.
func TestPooledCheckpointKillResume(t *testing.T) {
	forceDonation(t)
	want := Run(wideTree, Options{MaxCrashes: 1}, disagreeCheck)
	path := filepath.Join(t.TempDir(), "ck.json")
	log := newEventLog()
	opts := Options{MaxCrashes: 1, Workers: 4, Supervision: &Supervise{OnEvent: log.record}}

	_, killed, err := RunCheckpointed(wideTree, opts, disagreeCheck, Checkpoint{Path: path, Every: 1, stopAfterRoots: 3})
	if err != errStopped {
		t.Fatalf("killed run returned err=%v, want errStopped", err)
	}
	recorded, err := loadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recorded.Done) < 3 || len(recorded.Done) != len(log.resolved) {
		t.Fatalf("killed run recorded %d roots and resolved %d, want the same and >= 3", len(recorded.Done), len(log.resolved))
	}

	got, resumed, err := RunCheckpointed(wideTree, opts, disagreeCheck, Checkpoint{Path: path, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.ResumedRoots != len(recorded.Done) {
		t.Fatalf("resume credited %d roots, checkpoint holds %d", resumed.ResumedRoots, len(recorded.Done))
	}
	censusSame(t, "kill→resume", got, want)
	sameReps(t, "kill→resume", got, want)
	if got.Prune != nil {
		t.Fatalf("unpruned checkpointed census reports prune stats: %+v", got.Prune)
	}
	if len(log.resolved) != killed.TotalRoots {
		t.Fatalf("resolved events cover %d roots, want all %d", len(log.resolved), killed.TotalRoots)
	}
	for root, n := range log.resolved {
		if n != 1 {
			t.Fatalf("root %d resolved %d times", root, n)
		}
	}
}

// TestPooledCensusEvents: a plain multi-worker Run — no checkpoint —
// emits the pool's events too: one claim per attempt, one retry per
// retried panic, one resolve per root, matching SuperviseStats.
func TestPooledCensusEvents(t *testing.T) {
	forceDonation(t)
	base := Options{Workers: 4}.withDefaults()
	want := Run(wideTree, Options{}, nil)
	var fc atomic.Int64
	if _, ok := frontier(countingBuilder(wideTree, &fc, 0), base, base.workerCount()); !ok {
		t.Fatal("frontier capped unexpectedly")
	}
	plan := newPlan(wideTree, base, nil, true)
	for _, prune := range []bool{false, true} {
		var stats SuperviseStats
		var calls atomic.Int64
		log := newEventLog()
		opts := base
		opts.Prune = prune
		opts.Supervision = &Supervise{
			MaxAttempts: 3, BackoffBase: 1, BackoffMax: 1, Stats: &stats, OnEvent: log.record,
		}
		got := Run(countingBuilder(wideTree, &calls, fc.Load()+5), opts, nil)
		censusSame(t, "events", got, want)
		if n := stats.Retries.Load(); n == 0 || int64(log.counts[EventRetry]) != n {
			t.Fatalf("prune=%v: %d retry events, %d retries counted, want equal and > 0", prune, log.counts[EventRetry], n)
		}
		if int64(log.counts[EventClaim]) != stats.Attempts.Load() {
			t.Fatalf("prune=%v: %d claim events, %d attempts counted", prune, log.counts[EventClaim], stats.Attempts.Load())
		}
		if log.counts[EventResolved] != len(plan.Roots()) || len(log.resolved) != len(plan.Roots()) {
			t.Fatalf("prune=%v: %d resolve events over %d roots, want one per root (%d)",
				prune, log.counts[EventResolved], len(log.resolved), len(plan.Roots()))
		}
		if log.counts[EventFailed] != 0 {
			t.Fatalf("prune=%v: healed census emitted %d failure events", prune, log.counts[EventFailed])
		}
	}
}

// TestSummaryMergeSaturates: counts past math.MaxInt must saturate, not
// wrap — a wrapped census once reported more violating runs than
// complete ones — and a saturated census must not claim exhaustiveness.
// Summaries count in 128 bits, so the saturation is in the census they
// turn into.
func TestSummaryMergeSaturates(t *testing.T) {
	ids := newOutcomeIDs()
	id := ids.intern("[0 1]")
	big := func() *summary {
		return &summary{
			complete: wideOf(math.MaxInt - 2), incomplete: wideOf(math.MaxInt - 1), violations: wideOf(math.MaxInt - 3),
			outs: []outCount{{id: id, n: wideOf(math.MaxInt - 2)}},
		}
	}
	s := big()
	s.merge(big(), nil)
	identity := make([]uint32, id+1)
	identity[id] = id
	s.merge(big(), identity)
	c := censusFrom(s, ids, nil, Options{}, true)
	if c.Complete != math.MaxInt || c.Incomplete != math.MaxInt || c.ViolationRuns != math.MaxInt ||
		c.Outcomes["[0 1]"] != math.MaxInt {
		t.Fatalf("merge wrapped instead of saturating: %+v", c)
	}
	if c.ViolationRuns > c.Complete {
		t.Fatalf("violations %d exceed complete %d", c.ViolationRuns, c.Complete)
	}
	if s.runs() != math.MaxInt {
		t.Fatalf("runs() = %d, want saturated", s.runs())
	}
	if c.Exhaustive {
		t.Fatal("saturated census claims exhaustiveness")
	}
	if c := censusFrom(&summary{complete: wideOf(3)}, ids, nil, Options{}, true); !c.Exhaustive {
		t.Fatal("small census lost exhaustiveness")
	}
}
