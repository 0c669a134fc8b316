package explore

import (
	"context"
	"sync"
	"testing"
	"time"
)

// forceDonation makes every steal pool report hungry for the duration
// of the test, so busy engines donate at every backtrack — the maximal
// stealing churn the exactness argument has to survive.
func forceDonation(t *testing.T) {
	t.Helper()
	stealForceHungry = true
	t.Cleanup(func() { stealForceHungry = false })
}

func sameCensus(t *testing.T, label string, got, want *Census) {
	t.Helper()
	if got.Complete != want.Complete || got.Incomplete != want.Incomplete ||
		got.ViolationRuns != want.ViolationRuns || got.Exhaustive != want.Exhaustive {
		t.Fatalf("%s census %d/%d viol=%d ex=%v, want %d/%d viol=%d ex=%v",
			label, got.Complete, got.Incomplete, got.ViolationRuns, got.Exhaustive,
			want.Complete, want.Incomplete, want.ViolationRuns, want.Exhaustive)
	}
	if len(got.Outcomes) != len(want.Outcomes) {
		t.Fatalf("%s outcome histogram %v, want %v", label, got.Outcomes, want.Outcomes)
	}
	for k, v := range want.Outcomes {
		if got.Outcomes[k] != v {
			t.Fatalf("%s outcome histogram %v, want %v", label, got.Outcomes, want.Outcomes)
		}
	}
	if (len(got.Violations) == 0) != (len(want.Violations) == 0) {
		t.Fatalf("%s recorded %d violation reps, want %d", label, len(got.Violations), len(want.Violations))
	}
}

// TestStealCensusMatchesSequentialPruned: the work-stealing shared-table
// census must be bit-identical (counts, histogram, violation count,
// exhaustiveness) to the sequential pruned walk, across worker counts
// and with donation forced at every backtrack.
func TestStealCensusMatchesSequentialPruned(t *testing.T) {
	forceDonation(t)
	cases := []struct {
		name string
		b    Builder
		opts Options
	}{
		{name: "rw-crash1", b: rwAttempt, opts: Options{MaxCrashes: 1}},
		{name: "wide", b: wideTree, opts: Options{}},
		{name: "wide-crash1", b: wideTree, opts: Options{MaxCrashes: 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := tc.opts.withDefaults()
			want := Run(tc.b, opts.With(WithPrune()), disagreeCheck)
			var donations uint64
			for _, workers := range []int{2, 4, 8} {
				got := Run(tc.b, opts.With(WithPrune(), WithWorkers(workers)), disagreeCheck)
				sameCensus(t, tc.name, got, want)
				if got.Prune == nil {
					t.Fatal("parallel pruned census reported no Prune stats")
				}
				donations += got.Prune.Donations
			}
			// The forced-hungry hook guarantees donation attempts; on any
			// tree deep enough to split, some must land.
			if tc.name != "rw-crash1" && donations == 0 {
				t.Fatal("forced hunger produced no donations")
			}
		})
	}
}

// TestStealCensusChaosBitIdentical: forced donation composed with
// injected worker kills and the stall watchdog — retried donor items
// must honor their donation logs (no run double-counted, none lost).
func TestStealCensusChaosBitIdentical(t *testing.T) {
	forceDonation(t)
	want := Run(wideTree, Options{MaxCrashes: 1}.withDefaults().With(WithPrune()), disagreeCheck)
	if !want.Exhaustive || want.ViolationRuns == 0 {
		t.Fatalf("sequential pruned baseline broken: %+v", want)
	}
	var stats SuperviseStats
	opts := Options{MaxCrashes: 1, Workers: 4}.withDefaults().With(WithPrune(), WithSupervision(Supervise{
		MaxAttempts:  10,
		BackoffBase:  time.Microsecond,
		BackoffMax:   time.Millisecond,
		Seed:         1,
		StallTimeout: 25 * time.Millisecond,
		Chaos: &ChaosPlan{
			Seed:      7,
			KillRate:  1,
			MaxKills:  6,
			StallRate: 1,
			MaxStalls: 2,
			StallFor:  80 * time.Millisecond,
		},
		Stats: &stats,
	}))
	got := Run(wideTree, opts, disagreeCheck)
	if len(got.Errors) != 0 {
		t.Fatalf("chaos not healed within the attempt budget: %v", got.Errors)
	}
	sameCensus(t, "chaos", got, want)
	if stats.Kills.Load() == 0 {
		t.Fatal("chaos injected no kills; test exercised nothing")
	}
	if stats.Retries.Load() == 0 && stats.Requeues.Load() == 0 {
		t.Fatal("supervisor recorded neither retries nor requeues under chaos")
	}
}

// TestRetriedDonorTableSoundness pins the transposition-table rules of
// a retried donor attempt — an attempt re-claimed after an earlier
// attempt of the same entry donated a child away. Both hazards are
// exercised deterministically by running the donor walk (the donation
// logged in the ledger by its first attempt) and the donated entry's
// walk directly:
//
//  1. Publication: the donor's frames at ancestors of the donated
//     prefix lose the donated subtree to excision, so nothing the
//     donor publishes may under-count — every table entry it produces
//     must match the entry a full sequential walk produces for the
//     same key.
//  2. Hits: against a table pre-seeded by a full walk, the donor must
//     not take hits at those ancestors — a hit would credit the
//     donated subtree a second time on top of the donated entry's walk.
func TestRetriedDonorTableSoundness(t *testing.T) {
	b := wideTree
	opts := Options{MaxCrashes: 1}.withDefaults().With(WithPrune())

	// Reference: a full sequential pruned walk, keeping its table.
	refTable := newPruneTable(0)
	full := &engine{b: b, opts: opts, acc: newSummary(), check: disagreeCheck, table: refTable}
	full.run()
	if full.capped || full.cancelled {
		t.Fatal("reference walk did not complete")
	}
	want := censusFrom(full.acc, full.ids, b, opts, true)
	if want.ViolationRuns == 0 {
		t.Fatal("reference census found no violations; test tree too tame")
	}

	// Pick a donated child: a depth-2 prefix that is NOT the first
	// child of its decision node (auto-descent takes child 0, which is
	// never donated), i.e. the first terminal schedule's length-2
	// prefix with the second choice swapped for a sibling's.
	var first, donated []Choice
	Visit(b, Options{MaxCrashes: 1}, func(o Outcome) bool {
		if len(o.Schedule) < 2 {
			return true
		}
		if first == nil {
			first = append([]Choice(nil), o.Schedule[:2]...)
			return true
		}
		if o.Schedule[0] == first[0] && o.Schedule[1] != first[1] {
			donated = append([]Choice(nil), o.Schedule[:2]...)
			return false
		}
		return true
	})
	if donated == nil {
		t.Fatal("found no sibling child to donate")
	}

	// runSplit replays the retried-donor scenario against the given
	// table: the donor entry's retried walk, its first attempt having
	// donated `donated`, plus the donated entry's walk, merged. The pair
	// partitions the tree, so the merged census must equal the
	// reference census exactly.
	runSplit := func(table *pruneTable) *Census {
		t.Helper()
		_, donor := retriedDonor(t, opts, table, donated)
		donor.run()
		den := &engine{b: b, opts: opts, acc: newSummary(), check: disagreeCheck, table: table, root: donated}
		den.run()
		if donor.capped || donor.cancelled || den.capped || den.cancelled {
			t.Fatal("split walks did not complete")
		}
		total := newSummary()
		total.merge(donor.acc, nil)
		total.merge(den.acc, nil)
		return censusFrom(total, table.ids, b, opts, true)
	}

	// Hazard 1: fresh table. The donor's ancestor frames of the donated
	// prefix must not publish their under-counted accumulators.
	fresh := newPruneTable(0)
	sameCensus(t, "fresh-table split", runSplit(fresh), want)
	fresh.entries(func(k tableKey, s *summary) {
		ref := newSummary()
		if _, ok, _ := refTable.get(k, ref, nil); !ok {
			t.Errorf("split walk published key %+v never published by the full walk", k)
			return
		}
		if s.complete != ref.complete || s.incomplete != ref.incomplete || s.violations != ref.violations {
			t.Errorf("split walk published %v/%v viol=%v under key %+v, full walk published %v/%v viol=%v",
				s.complete, s.incomplete, s.violations, k, ref.complete, ref.incomplete, ref.violations)
			return
		}
		got, want := histogram(fresh.ids, s), histogram(refTable.ids, ref)
		for o, n := range want {
			if got[o] != n {
				t.Errorf("split walk outcome histogram %v under key %+v, want %v", got, k, want)
				break
			}
		}
	})

	// Hazard 2: pre-seeded table. The donor must not take a hit at the
	// root or the depth-1 ancestor of the donated prefix, both of which
	// the reference walk published with the donated subtree included.
	sameCensus(t, "seeded-table split", runSplit(refTable), want)
}

// retriedDonor returns a pool whose ledger holds one whole-tree root
// entry in its second attempt, its first attempt having donated each of
// logged before it was expired, and an engine for the second attempt.
// The donated entries stay queued.
func retriedDonor(t *testing.T, opts Options, table *pruneTable, logged ...[]Choice) (*stealPool, *engine) {
	t.Helper()
	p := &stealPool{ctx: context.Background(), cfg: opts.supervise(), opts: opts, ledger: NewLedger(2), finished: make(chan struct{})}
	p.cond = sync.NewCond(&p.mu)
	p.ledger.Open(0, nil)
	c, _, _ := p.ledger.Claim("first", 1)
	for _, d := range logged {
		if v, _ := p.ledger.Donate(c.Entry, c.Gen, d[:len(d)-1], d[len(d)-1:]); v != VerdictAccepted {
			t.Fatalf("first attempt's donation of %s refused: %v", FormatSchedule(d), v)
		}
	}
	p.ledger.Expire(1, "stalled")
	if c, _, _ = p.ledger.Claim("second", 0); c.Entry != 0 || c.Attempt != 2 || c.Logged != len(logged) {
		t.Fatalf("retried claim %+v, want entry 0, attempt 2, %d logged", c, len(logged))
	}
	return p, &engine{
		b: wideTree, opts: opts, acc: newSummary(), check: disagreeCheck,
		table: table, pool: p, claim: c, skipcheck: true,
	}
}

// TestRetriedDonorDonatesNoAncestor: a retried donor attempt must not
// donate an ancestor of a prefix an earlier attempt of the same entry
// already donated, or the new entry walks that prefix a second time on
// top of the entry that owns it. The retried whole-tree entry below
// holds `1 1` in its donation log and donates at every backtrack; its
// walk, every entry it donates and `1 1` itself must partition the tree.
func TestRetriedDonorDonatesNoAncestor(t *testing.T) {
	forceDonation(t)
	opts := Options{MaxCrashes: 1}.withDefaults()
	want := Run(wideTree, opts, disagreeCheck)
	p, donor := retriedDonor(t, opts, nil, []Choice{{Pick: 1}, {Pick: 1}})
	donor.run()
	total := newSummary()
	total.merge(donor.acc, nil)
	for {
		c, _, ok := p.ledger.Claim("walker", 0)
		if !ok {
			break
		}
		en := &engine{b: wideTree, opts: opts, acc: newSummary(), check: disagreeCheck, ids: donor.ids, root: c.Prefix}
		en.run()
		total.merge(en.acc, nil)
	}
	sameCensus(t, "retried donor and its donations", censusFrom(total, donor.ids, wideTree, opts, true), want)
}

// TestStealRetryStaleGeneration: a superseded attempt's failure must
// not requeue or fail an entry out from under the live attempt. A stale
// straggler reaching the retry path at the attempt budget once marked
// the item as a RootFailure, so the live attempt's imminent successful
// result was discarded and the subtree silently dropped.
func TestStealRetryStaleGeneration(t *testing.T) {
	l := NewLedger(2)
	l.Open(0, []Choice{{Pick: 0}})
	c1, _, _ := l.Claim("w1", 1)
	// A watchdog expiry hands the entry to a second, live claim: the
	// last one the attempt budget allows.
	l.Expire(1, "stalled")
	c2, _, ok := l.Claim("w2", 0)
	if !ok || c2.Entry != c1.Entry || c2.Gen == c1.Gen || c2.Attempt != 2 {
		t.Fatalf("re-claim after expiry %+v (first claim %+v)", c2, c1)
	}
	// The stale first attempt panics with the budget spent: it must be
	// a no-op, not a requeue or a RootFailure.
	if v, ev := l.Fail(c1.Entry, c1.Gen, "panic: stale straggler"); v != VerdictStale || len(ev) != 0 {
		t.Fatalf("stale failure: verdict %v, events %v", v, ev)
	}
	if len(l.Failures()) != 0 || l.Queued() != 0 || !l.holds(c2.Entry, c2.Gen) {
		t.Fatalf("stale attempt settled the entry: failed=%v queued=%d", l.Failures(), l.Queued())
	}
	// The live attempt's completion still resolves the root.
	if v, ev := l.Deliver(c2.Entry, c2.Gen); v != VerdictAccepted || len(ev) != 1 || ev[0].Kind != EventResolved {
		t.Fatalf("live delivery: verdict %v, events %v", v, ev)
	}
	if !l.Finished() || len(l.Failures()) != 0 {
		t.Fatalf("live attempt did not resolve cleanly: failed=%v", l.Failures())
	}
}

// TestPruneTableHitAllocFree: a transposition-table hit — the inner
// loop of every pruned walk — must not allocate: lookup, stat counting,
// shard selection and the merge into the caller's accumulator all run
// on preallocated state.
func TestPruneTableHitAllocFree(t *testing.T) {
	table := newPruneTable(0)
	key := tableKey{fp: 0x9e3779b97f4a7c15, depthRem: 40, crashRem: 1}
	if !table.put(key, newSummary(), 1) {
		t.Fatal("put rejected first write")
	}
	acc := newSummary()
	allocs := testing.AllocsPerRun(200, func() {
		if _, ok, _ := table.get(key, acc, nil); !ok {
			t.Fatal("seeded key missed")
		}
	})
	if allocs != 0 {
		t.Fatalf("prune-table hit allocates %.1f objects, want 0", allocs)
	}
}
