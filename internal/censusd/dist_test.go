package censusd

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/distcensus"
	"repro/internal/explore"
)

// testDistJob runs cas k=4 n=3 on a started server whose fleet stays
// live for the next hour, and returns the server and the job's distJob
// once the job's pool runs. The job's own workers leave every root to
// the fleet, so the test's steps are all that moves the job.
func testDistJob(t *testing.T, ttl time.Duration, maxAttempts int) (*Server, *distJob) {
	t.Helper()
	srv, err := New(Config{
		Dir: t.TempDir(), Workers: 1, QueueDepth: 4, LeaseTTL: ttl,
		Supervision: explore.Supervise{MaxAttempts: maxAttempts},
		Logf:        func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	srv.Start(ctx)
	t.Cleanup(func() { cancel(); srv.Drain() })
	srv.dist.touch("fleet", time.Now().Add(time.Hour))
	job, _, err := srv.Submit(Request{Protocol: "cas", K: 4, N: 3, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if d := srv.dist.job(job.ID); d != nil {
			if pending, _, _ := d.seat.View(); pending > 0 {
				return srv, d
			}
		}
	}
	t.Fatal("the job's pool never ran")
	return nil, nil
}

// waitResolved waits until d's view counts n resolved roots: a
// delivered root is reported once its checkpoint save is done, after
// the delivery's answer.
func waitResolved(t *testing.T, d *distJob, n int) *distJobView {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if v := d.view(); v.Resolved >= n {
			return v
		}
	}
	t.Fatalf("%d roots never resolved: %+v", n, d.view())
	return nil
}

// leaseRoot leases from d until it grants root (nil if it never does).
func leaseRoot(d *distJob, worker string, root int, now time.Time) *distcensus.Lease {
	for {
		l := d.lease(worker, now)
		if l == nil || l.Root == root {
			return l
		}
	}
}

// TestLeaseStateMachine drives a job's leases through the one job path
// — the seat of the job's pool — with an explicit clock, through every
// edge the chaos harness exercises with real time: expiry requeue, the
// generation-staleness guard, duplicate idempotence, heartbeats racing
// expiry, the attempt budget, a closed job, and the last delivery
// settling the job. The clock starts an hour ahead, so the pool's own
// watchdog, on the real clock, never takes a lease back.
func TestLeaseStateMachine(t *testing.T) {
	ttl := 10 * time.Second
	t0 := time.Now().Add(time.Hour)
	sum := explore.RootSummary{Complete: 1}

	t.Run("expired-lease-requeues-under-new-generation", func(t *testing.T) {
		_, d := testDistJob(t, ttl, 6)
		l := d.lease("w1", t0)
		if l == nil || l.Generation != 1 {
			t.Fatalf("first lease: %+v", l)
		}
		d.seat.Expire(t0.Add(ttl / 2))
		if n := d.view().Expiries; n != 0 {
			t.Fatalf("mid-ttl expire reaped %d leases", n)
		}
		d.seat.Expire(t0.Add(ttl + time.Millisecond))
		if n := d.view().Expiries; n != 1 {
			t.Fatalf("post-ttl expire reaped %d leases, want 1", n)
		}
		// The root is back in the queue under a bumped generation.
		l2 := leaseRoot(d, "w2", l.Root, t0.Add(ttl))
		if l2 == nil {
			t.Fatal("expired root never re-leased")
		}
		if l2.Generation != 2 {
			t.Fatalf("re-lease generation %d, want 2", l2.Generation)
		}
	})

	t.Run("stale-generation-rejected-after-requeue", func(t *testing.T) {
		_, d := testDistJob(t, ttl, 6)
		l := d.lease("w1", t0)
		d.seat.Expire(t0.Add(ttl + time.Millisecond)) // w1 presumed dead; requeued

		// w1 resurrects and delivers its finished work under gen 1 —
		// the double-count the generation guard exists to stop.
		if v := d.deliver("w1", l.Root, l.Generation, sum, ""); v != distcensus.ResultStale {
			t.Fatalf("superseded delivery verdict %q, want stale", v)
		}
		if got := d.view().Resolved; got != 0 {
			t.Fatalf("stale delivery was merged: %d roots resolved", got)
		}
		// The current generation still delivers fine.
		l2 := leaseRoot(d, "w2", l.Root, t0)
		if v := d.deliver("w2", l2.Root, l2.Generation, sum, ""); l2.Generation != l.Generation+1 || v != distcensus.ResultAccepted {
			t.Fatalf("current-generation (%d) delivery verdict %q, want accepted", l2.Generation, v)
		}
		if v := waitResolved(t, d, 1); v.StaleResults != 1 || v.Resolved != 1 {
			t.Fatalf("stale=%d resolved=%d, want 1/1", v.StaleResults, v.Resolved)
		}
	})

	t.Run("duplicate-delivery-is-idempotent", func(t *testing.T) {
		_, d := testDistJob(t, ttl, 6)
		l := d.lease("w1", t0)
		if v := d.deliver("w1", l.Root, l.Generation, sum, ""); v != distcensus.ResultAccepted {
			t.Fatalf("first delivery verdict %q", v)
		}
		// A retried POST /dist/result (worker crashed between delivery
		// and dropping its in-flight record) must not count twice.
		if v := d.deliver("w1", l.Root, l.Generation, sum, ""); v != distcensus.ResultDuplicate {
			t.Fatalf("second delivery verdict %q, want duplicate", v)
		}
		if v := waitResolved(t, d, 1); v.DupResults != 1 || v.Resolved != 1 {
			t.Fatalf("dup=%d resolved=%d, want 1/1", v.DupResults, v.Resolved)
		}
	})

	t.Run("heartbeat-renewal-races-expiry", func(t *testing.T) {
		_, d := testDistJob(t, ttl, 6)
		l := d.lease("w1", t0)
		// Renewed just before the deadline: the next expiry pass spares it.
		if !d.heartbeat(l.Root, l.Generation, t0.Add(ttl-time.Millisecond)) {
			t.Fatal("pre-deadline heartbeat refused")
		}
		d.seat.Expire(t0.Add(ttl + time.Second))
		if n := d.view().Expiries; n != 0 {
			t.Fatalf("renewed lease expired anyway (%d reaped)", n)
		}
		// But once the renewed deadline passes and the root is requeued,
		// the old generation's heartbeat is answered gone.
		d.seat.Expire(t0.Add(2*ttl + time.Second))
		if n := d.view().Expiries; n != 1 {
			t.Fatalf("expire after renewed deadline reaped %d", n)
		}
		if d.heartbeat(l.Root, l.Generation, t0.Add(2*ttl+time.Second)) {
			t.Fatal("heartbeat renewed a requeued lease")
		}
	})

	t.Run("error-deliveries-exhaust-the-attempt-budget", func(t *testing.T) {
		_, d := testDistJob(t, ttl, 2)
		l := d.lease("w1", t0)
		if v := d.deliver("w1", l.Root, l.Generation, explore.RootSummary{}, "boom"); v != distcensus.ResultAccepted {
			t.Fatalf("error delivery verdict %q", v)
		}
		// Attempt 2 under gen 2, requeued at once.
		l2 := leaseRoot(d, "w1", l.Root, t0)
		if l2 == nil || l2.Generation != 2 {
			t.Fatalf("second attempt lease: %+v", l2)
		}
		d.deliver("w1", l2.Root, l2.Generation, explore.RootSummary{}, "boom again")
		var lost *eventRec
		for _, e := range d.prog.view().Recent {
			if e.Kind == "failed" && e.Root == l.Root {
				lost = &e
			}
		}
		if lost == nil || lost.Attempt != 2 {
			t.Fatalf("root not written off after budget: %+v", d.prog.view().Recent)
		}
		// A write-off is final: even the "current" generation is stale now.
		if v := d.deliver("w1", l.Root, 3, sum, ""); v != distcensus.ResultStale {
			t.Fatalf("post-failure delivery verdict %q, want stale", v)
		}
	})

	t.Run("closed-job-grants-and-renews-nothing", func(t *testing.T) {
		srv, d := testDistJob(t, ttl, 6)
		l := d.lease("w1", t0)
		if code, err := srv.Cancel(d.id); code != 202 {
			t.Fatalf("cancel running: code %d err %v", code, err)
		}
		waitState(t, srv, d.id, StateCancelled)
		if d.lease("w2", t0) != nil {
			t.Fatal("closed job granted a lease")
		}
		if d.heartbeat(l.Root, l.Generation, t0) {
			t.Fatal("closed job renewed a lease")
		}
	})

	t.Run("all-roots-resolved-closes-done", func(t *testing.T) {
		srv, d := testDistJob(t, ttl, 6)
		for {
			l := d.lease("w1", t0)
			if l == nil {
				break
			}
			d.deliver("w1", l.Root, l.Generation, sum, "")
		}
		waitState(t, srv, d.id, StateDone)
	})
}

// TestDistributedEndToEnd runs a real coordinator and a real in-process
// worker over HTTP: the job must distribute (remote roots counted) and
// settle bit-identical to the direct census.
func TestDistributedEndToEnd(t *testing.T) {
	req := Request{Protocol: "cas", K: 4, N: 3, Workers: 2}
	want := groundTruth(t, req)

	srv, err := New(Config{
		Dir: t.TempDir(), Workers: 1, QueueDepth: 4,
		LeaseTTL: 2 * time.Second, WorkerPoll: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srv.Start(ctx)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	w := &distcensus.Worker{
		ID: "w-test", Dir: t.TempDir(),
		Client: &distcensus.Client{Base: ts.URL},
		Build:  BuildRaw,
		Poll:   20 * time.Millisecond,
		Logf:   func(string, ...any) {},
	}
	wctx, wcancel := context.WithCancel(context.Background())
	workerDone := make(chan struct{})
	go func() { defer close(workerDone); _ = w.Run(wctx) }()
	defer func() { wcancel(); <-workerDone }()

	deadline := time.Now().Add(10 * time.Second)
	for srv.Health().WorkersLive == 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never registered")
		}
		time.Sleep(10 * time.Millisecond)
	}

	job, code, err := srv.Submit(req)
	if err != nil || code != 201 {
		t.Fatalf("submit: code %d err %v", code, err)
	}
	v := waitState(t, srv, job.ID, StateDone)
	assertResultMatches(t, "distributed", v.Result, want)
	if h := srv.Health(); h.RemoteRoots == 0 {
		t.Fatalf("job settled without any remote roots: %+v", h)
	}
}

// TestDistributedCappedJob: a job whose frontier split hits maxruns is a
// one-root plan, and the root is the empty prefix. A remote worker leases
// it over the wire as [] (null would read as a leaf), walks the whole
// tree and delivers the census explore.Run counts.
func TestDistributedCappedJob(t *testing.T) {
	req := Request{Protocol: "rw3", MaxRuns: 3, Workers: 2}
	want := groundTruth(t, req)
	srv, err := New(Config{Dir: t.TempDir(), Workers: 1, QueueDepth: 4, LeaseTTL: 10 * time.Second,
		Logf: func(string, ...any) {}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	srv.Start(ctx)
	defer func() { cancel(); srv.Drain() }()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := &distcensus.Client{Base: ts.URL}
	if _, err := client.Register(ctx, "w-test"); err != nil {
		t.Fatal(err)
	}
	job, _, err := srv.Submit(req)
	if err != nil {
		t.Fatal(err)
	}

	var lease *distcensus.Lease
	for deadline := time.Now().Add(30 * time.Second); lease == nil; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the job's one root was never leased")
		}
		if lease, err = client.Lease(ctx, "w-test"); err != nil {
			t.Fatal(err)
		}
	}
	if lease.Prefix == nil || len(lease.Prefix) != 0 {
		t.Fatalf("the one root leased with prefix %v, want []", lease.Prefix)
	}
	b, opts, check, err := BuildRaw(lease.Request)
	if err != nil {
		t.Fatal(err)
	}
	sum, _, err := explore.ExploreSubtree(ctx, b, opts, check, lease.Prefix, explore.Checkpoint{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	status, err := client.Deliver(ctx, distcensus.ResultRequest{
		WorkerID: "w-test", JobID: lease.JobID, Root: lease.Root, Generation: lease.Generation, Summary: sum,
	})
	if err != nil || status != distcensus.ResultAccepted {
		t.Fatalf("delivery: %q, %v", status, err)
	}
	v := waitState(t, srv, job.ID, StateDone)
	assertResultMatches(t, "capped", v.Result, want)
	if v.Result.Exhaustive || v.Result.Complete != 3 {
		t.Fatalf("capped job: %d complete, exhaustive %v; want 3 and false", v.Result.Complete, v.Result.Exhaustive)
	}
}

// TestCancelRunningDistributedJob: DELETE-style cancellation of a
// running job lands it in the persisted cancelled terminal state with
// its partial census, and resubmitting the identical request resumes
// it to a bit-identical completion.
func TestCancelRunningDistributedJob(t *testing.T) {
	req := Request{Protocol: "cas", K: 4, N: 3, Workers: 2}
	want := groundTruth(t, req)

	// Short TTL so the ghost worker's liveness window (2×TTL) passes
	// quickly once the job is cancelled.
	srv, err := New(Config{
		Dir: t.TempDir(), Workers: 1, QueueDepth: 4,
		LeaseTTL: 250 * time.Millisecond, WorkerPoll: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srv.Start(ctx)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// A worker that registers and vanishes: the job takes the
	// distributed path, grants no leases, and sits running — a
	// deterministic window to cancel in.
	ghost := &distcensus.Client{Base: ts.URL}
	if _, err := ghost.Register(context.Background(), "ghost"); err != nil {
		t.Fatal(err)
	}

	job, _, err := srv.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, srv, job.ID, StateRunning)
	if code, err := srv.Cancel(job.ID); code != 202 {
		t.Fatalf("cancel running: code %d err %v", code, err)
	}
	v := waitState(t, srv, job.ID, StateCancelled)
	if v.FinishedAt == nil {
		t.Fatal("cancelled job has no FinishedAt")
	}
	// The terminal state is persisted, not just in memory.
	onDisk, err := srv.store.Load(job.ID)
	if err != nil || onDisk.State != StateCancelled {
		t.Fatalf("persisted state %v err %v, want cancelled", onDisk, err)
	}
	// Cancelling a terminal job conflicts.
	if code, _ := srv.Cancel(job.ID); code != 409 {
		t.Fatalf("cancel terminal: code %d, want 409", code)
	}

	// Let the ghost go stale so the resumed run goes local, then
	// resubmit: the retained checkpoint resumes it to completion.
	for srv.Health().WorkersLive != 0 {
		time.Sleep(20 * time.Millisecond)
	}
	re, code, err := srv.Submit(req)
	if err != nil || code != 200 || re.ID != job.ID {
		t.Fatalf("resubmit: code %d err %v id %s", code, err, re.ID)
	}
	v = waitState(t, srv, job.ID, StateDone)
	assertResultMatches(t, "resumed-after-cancel", v.Result, want)
}

// TestCancelQueuedJob: a queued job cancels synchronously without ever
// running.
func TestCancelQueuedJob(t *testing.T) {
	srv, err := New(Config{Dir: t.TempDir(), Workers: 1, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Not started: the job stays queued.
	job, _, err := srv.Submit(Request{Protocol: "tas2"})
	if err != nil {
		t.Fatal(err)
	}
	if code, err := srv.Cancel(job.ID); code != 200 {
		t.Fatalf("cancel queued: code %d err %v", code, err)
	}
	if v := srv.Job(job.ID); v.State != StateCancelled {
		t.Fatalf("state %s, want cancelled", v.State)
	}
	if code, _ := srv.Cancel("ffffffffffffffff"); code != 404 {
		t.Fatalf("cancel unknown: code %d, want 404", code)
	}
}

// TestResultCacheEviction: with StoreMaxJobs=1, older terminal jobs are
// evicted LRU — record and checkpoint deleted, counters exposed — while
// the newest stays servable.
func TestResultCacheEviction(t *testing.T) {
	srv, err := New(Config{Dir: t.TempDir(), Workers: 1, QueueDepth: 8, StoreMaxJobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srv.Start(ctx)

	var ids []string
	for _, p := range []string{"tas2", "fa2", "rw2"} {
		job, _, err := srv.Submit(Request{Protocol: p, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, srv, job.ID, StateDone)
		ids = append(ids, job.ID)
	}

	h := srv.Health()
	if h.EvictedJobs < 2 || h.EvictedBytes <= 0 {
		t.Fatalf("evicted %d jobs / %d bytes, want >=2 / >0", h.EvictedJobs, h.EvictedBytes)
	}
	if got := len(srv.Jobs()); got != 1 {
		t.Fatalf("%d jobs survive, want 1", got)
	}
	// The survivor is the most recent; the first is gone from disk too.
	if v := srv.Job(ids[2]); v == nil || v.Result == nil {
		t.Fatal("newest job lost its cached result")
	}
	if srv.Job(ids[0]) != nil {
		t.Fatal("oldest job still visible after eviction")
	}
	if _, err := srv.store.Load(ids[0]); err == nil {
		t.Fatal("evicted job record still on disk")
	}
}

// TestRateLimiter: token-bucket arithmetic with a fake clock, and the
// counter the /healthz endpoint surfaces.
func TestRateLimiter(t *testing.T) {
	now := time.Unix(5000, 0)
	rl := newRateLimiter(1, 2) // 1 token/s, burst 2
	rl.now = func() time.Time { return now }

	for i := 0; i < 2; i++ {
		if ok, _ := rl.allow("alice"); !ok {
			t.Fatalf("burst request %d denied", i)
		}
	}
	ok, retry := rl.allow("alice")
	if ok {
		t.Fatal("post-burst request allowed")
	}
	if retry < time.Second {
		t.Fatalf("retry-after %v, want >= 1s", retry)
	}
	// Other clients have their own bucket.
	if ok, _ := rl.allow("bob"); !ok {
		t.Fatal("second client denied by first client's bucket")
	}
	// Refill: one second accrues one token.
	now = now.Add(time.Second)
	if ok, _ := rl.allow("alice"); !ok {
		t.Fatal("request denied after refill")
	}
	if ok, _ := rl.allow("alice"); ok {
		t.Fatal("second request allowed on a single refilled token")
	}
	if rl.deniedCount() != 2 {
		t.Fatalf("denied count %d, want 2", rl.deniedCount())
	}
	// Disabled limiter admits everything.
	off := newRateLimiter(0, 0)
	for i := 0; i < 100; i++ {
		if ok, _ := off.allow("x"); !ok {
			t.Fatal("disabled limiter denied")
		}
	}
}

// TestRateLimitHTTP: over the wire, a throttled POST /jobs is a 429
// with Retry-After, keyed by X-Client-ID, and counted in /healthz.
func TestRateLimitHTTP(t *testing.T) {
	srv, err := New(Config{
		Dir: t.TempDir(), Workers: 1, QueueDepth: 8,
		RatePerSec: 0.001, RateBurst: 1, // one request, then a long wait
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	post := func(client string) *http.Response {
		t.Helper()
		req, _ := http.NewRequest("POST", ts.URL+"/jobs", strings.NewReader(`{"protocol":"tas2"}`))
		req.Header.Set("X-Client-ID", client)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	if resp := post("alice"); resp.StatusCode != http.StatusCreated {
		t.Fatalf("first submit: %d", resp.StatusCode)
	}
	resp := post("alice")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second submit: %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	// A distinct client is not throttled by alice's bucket (it attaches
	// to the existing job: 200).
	if resp := post("bob"); resp.StatusCode != http.StatusOK {
		t.Fatalf("other client: %d, want 200", resp.StatusCode)
	}
	if h := srv.Health(); h.RateLimited != 1 {
		t.Fatalf("rate_limited %d, want 1", h.RateLimited)
	}
}
