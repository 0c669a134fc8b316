package explore

import (
	"context"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sim"
)

// Tests for the claim rule of a pool with a remote seat (remote.go):
// local workers leave whole entries to a live seat and always take the
// split ones, a remote claim is always whole, and a seat gone quiet
// hands its whole entries back to the local workers.

// TestLedgerClaimWhole: whole claims get exactly the roots' own entries
// with empty donation logs, split claims exactly the rest.
func TestLedgerClaimWhole(t *testing.T) {
	l := NewLedger(3)
	l.Open(0, []Choice{{Pick: 0}})
	l.Open(1, []Choice{{Pick: 1}})
	c, _, _ := l.Claim("local", 0)
	if v, n := l.Donate(c.Entry, c.Gen, c.Prefix, []Choice{{Pick: 0}, {Pick: 2}}); v != VerdictAccepted || n != 2 {
		t.Fatalf("donation: %v, %d entries", v, n)
	}
	if v, _ := l.Fail(c.Entry, c.Gen, "lost worker"); v != VerdictAccepted {
		t.Fatalf("fail: %v", v)
	}
	l.Requeue(c.Entry) // root 1's own entry, now with a donation log

	w, _, ok := l.ClaimWhole("remote", 0, true)
	if !ok || w.Root != 0 || w.Donor != "" || w.Logged != 0 {
		t.Fatalf("whole claim %+v (ok %v), want root 0's own entry", w, ok)
	}
	if w, _, ok := l.ClaimWhole("remote", 0, true); ok {
		t.Fatalf("whole claim got split entry %+v", w)
	}
	for i := 0; i < 3; i++ {
		s, _, ok := l.ClaimWhole("local", 0, false)
		if !ok || s.Root != 1 || (s.Donor == "") == (s.Logged == 0) {
			t.Fatalf("split claim %d: %+v (ok %v), want a donated or logged entry of root 1", i, s, ok)
		}
	}
	if s, _, ok := l.ClaimWhole("local", 0, false); ok {
		t.Fatalf("split claim got %+v from an empty queue", s)
	}
}

// flipBuilder is wideTree, except that once armed its third call — the
// second probe of the first local attempt, after that attempt's first
// backtrack donated — turns the seat live and panics: the attempt's
// entry is requeued with a donation log, and its donations are queued.
func flipBuilder(armed *atomic.Bool, live *atomic.Bool) Builder {
	var calls atomic.Int64
	return func() *sim.System {
		if armed.Load() && calls.Add(1) == 3 {
			live.Store(true)
			panic("lost worker")
		}
		return wideTree()
	}
}

type seatedRun struct {
	c     *Census
	stats CheckpointStats
	err   error
}

// runSeated runs wideTree's one-crash census on one local worker with
// seat at its pool, arming armed (if non-nil) at the first claim.
func runSeated(seat *RemoteSeat, b Builder, armed *atomic.Bool, attempts *atomic.Int64, ck Checkpoint) <-chan seatedRun {
	opts := Options{MaxCrashes: 1, Workers: 1, Supervision: &Supervise{
		BackoffBase: time.Microsecond, BackoffMax: time.Microsecond,
		OnEvent: func(e Event) {
			if e.Kind == EventClaim {
				attempts.Add(1)
				if armed != nil {
					armed.Store(true)
				}
			}
		},
	}}
	out := make(chan seatedRun, 1)
	go func() {
		c, stats, err := seat.RunCheckpointed(b, opts, disagreeCheck, ck)
		out <- seatedRun{c, stats, err}
	}()
	return out
}

func awaitRun(t *testing.T, res <-chan seatedRun) seatedRun {
	t.Helper()
	select {
	case r := <-res:
		if r.err != nil {
			t.Fatal(r.err)
		}
		return r
	case <-time.After(60 * time.Second):
		t.Fatal("the seated census never finished")
	}
	return seatedRun{}
}

func TestRemoteSeatClaimRule(t *testing.T) {
	opts := Options{MaxCrashes: 1, Workers: 1}
	want := Run(wideTree, opts, disagreeCheck)
	plan := newPlan(wideTree, opts.withDefaults(), disagreeCheck, true)
	roots := len(plan.Roots())

	t.Run("local-leaves-whole-entries-to-a-live-seat", func(t *testing.T) {
		forceDonation(t)
		var live, armed atomic.Bool
		var attempts atomic.Int64
		seat := NewRemoteSeat(5*time.Second, live.Load, nil)
		res := runSeated(seat, flipBuilder(&armed, &live), &armed, &attempts, Checkpoint{})
		for !live.Load() {
			time.Sleep(time.Millisecond)
		}
		// The test is the remote worker: every lease is a whole root,
		// walked as a worker walks it.
		delivered := 0
		var r seatedRun
	lease:
		for {
			select {
			case r = <-res:
				break lease
			default:
			}
			c, _, ok := seat.Lease("remote", time.Now())
			if !ok {
				time.Sleep(time.Millisecond)
				continue
			}
			if c.Donor != "" || c.Logged != 0 || c.Prefix == nil {
				t.Errorf("remote claim of a split entry: %+v", c)
			}
			sum, _, err := ExploreSubtree(context.Background(), wideTree, opts, disagreeCheck, c.Prefix, Checkpoint{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if v := seat.Deliver(c.Root, c.Gen, sum); v != VerdictAccepted {
				t.Errorf("delivery of root %d: %v", c.Root, v)
			}
			delivered++
		}
		if r.err != nil {
			t.Fatal(r.err)
		}
		censusSame(t, "seated", r.c, want)
		sameReps(t, "seated", r.c, want)
		// One root was claimed locally before the seat went live; the
		// local worker then took only its split entries — the failed
		// attempt's logged entry and at least one donation.
		if delivered != roots-1 {
			t.Fatalf("%d of %d roots delivered remotely, want all but the first local one", delivered, roots)
		}
		if local := attempts.Load() - int64(delivered); local < 3 {
			t.Fatalf("%d local attempts, want the first, its retry and a donated entry's", local)
		}
	})

	t.Run("split-entries-finish-locally-while-the-seat-stays-live", func(t *testing.T) {
		forceDonation(t)
		// Credit every root but the last, which the local worker claims
		// first.
		path := filepath.Join(t.TempDir(), "ck.json")
		if _, _, err := RunCheckpointed(wideTree, opts, disagreeCheck, Checkpoint{Path: path}); err != nil {
			t.Fatal(err)
		}
		f, err := loadCheckpoint(path)
		if err != nil {
			t.Fatal(err)
		}
		delete(f.Done, strconv.Itoa(plan.Roots()[roots-1]))
		if err := saveCheckpoint(path, f); err != nil {
			t.Fatal(err)
		}
		var live, armed atomic.Bool
		var attempts atomic.Int64
		seat := NewRemoteSeat(5*time.Second, live.Load, nil)
		r := awaitRun(t, runSeated(seat, flipBuilder(&armed, &live), &armed, &attempts, Checkpoint{Path: path, Resume: true}))
		if !live.Load() || r.stats.ResumedRoots != roots-1 {
			t.Fatalf("live %v, %d roots resumed; want a live seat and %d", live.Load(), r.stats.ResumedRoots, roots-1)
		}
		censusSame(t, "split-only", r.c, want)
		sameReps(t, "split-only", r.c, want)
		if n := attempts.Load(); n < 3 {
			t.Fatalf("%d attempts, want the first, its retry and a donated entry's", n)
		}
	})

	t.Run("local-takes-whole-entries-once-the-seat-goes-quiet", func(t *testing.T) {
		var live atomic.Bool
		live.Store(true)
		var attempts atomic.Int64
		seat := NewRemoteSeat(200*time.Millisecond, live.Load, nil)
		res := runSeated(seat, wideTree, nil, &attempts, Checkpoint{})
		time.Sleep(200 * time.Millisecond) // four watchdog ticks
		if n := attempts.Load(); n != 0 {
			t.Fatalf("%d local claims while the seat was live", n)
		}
		// A worker of an earlier coordinator delivers under a generation
		// this seat never granted: stale, though the root's entry sits
		// queued at that generation.
		if queued, _, _ := seat.View(); queued != roots {
			t.Fatalf("%d entries queued on the seat, want %d", queued, roots)
		}
		if v := seat.Deliver(plan.Roots()[0], 1, RootSummary{Complete: 1}); v != VerdictStale {
			t.Fatalf("delivery under an ungranted generation: %v, want stale", v)
		}
		live.Store(false)
		r := awaitRun(t, res)
		censusSame(t, "quiet", r.c, want)
		sameReps(t, "quiet", r.c, want)
		if n := attempts.Load(); n != int64(roots) {
			t.Fatalf("%d local claims, want one per root (%d)", n, roots)
		}
	})
}
