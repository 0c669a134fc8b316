package censusd

import (
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/distcensus"
	"repro/internal/explore"
	"repro/internal/sim"
)

// Coordinator side of the distributed census. A job that starts while
// remote workers are live is run as a distJob: its frontier roots are
// leased out over the /dist API, delivered summaries are merged in DFS
// root order (bit-identical to a local run), and the root ledger
// (explore.Ledger) settles every failure the chaos harness throws at
// it. A lease is a ledger claim whose deadline heartbeats renew; the
// coordinator's own fallback claims have none and never expire.
//
//	pending --lease--> leased --result(gen ok)--> resolved
//	   ^                  |
//	   |   expiry/err     |  (generation++ on every requeue)
//	   +------------------+
//
// A result under a superseded generation — a worker killed mid-lease and
// resurrected after the root was reassigned — is stale (409) and never
// merged; a repeated delivery is a duplicate. A root past its attempt
// budget becomes a RootFailure (coverage deficit).

// distDefaultTTL is the default lease duration.
const distDefaultTTL = 10 * time.Second

// distDefaultPoll is the worker poll interval suggested at registration.
const distDefaultPoll = 500 * time.Millisecond

// distDefaultMaxAttempts bounds lease grants per root (expiries and
// worker-reported errors both consume attempts). Higher than the local
// supervisor's budget: losing a worker is routine, not pathological.
const distDefaultMaxAttempts = 6

// distJob drives one distributed job's ledger. It keeps the delivered
// summaries and its counters; the ledger keeps everything else.
type distJob struct {
	id   string
	plan *explore.DistPlan
	req  json.RawMessage
	ttl  time.Duration
	prog *progress
	logf func(format string, args ...any)

	mu       sync.Mutex
	ledger   *explore.Ledger
	resolved map[int]explore.RootSummary

	staleResults int64
	dupResults   int64
	expiries     int64
	requeues     int64
	remoteRoots  int64
	localRoots   int64

	done     chan struct{}
	doneOnce sync.Once
}

func newDistJob(id string, plan *explore.DistPlan, req json.RawMessage, resumed map[int]explore.RootSummary,
	ttl time.Duration, maxAttempts int, prog *progress, logf func(string, ...any)) *distJob {
	d := &distJob{
		id: id, plan: plan, req: req, ttl: ttl, prog: prog, logf: logf,
		ledger:   explore.NewLedger(maxAttempts),
		resolved: make(map[int]explore.RootSummary),
		done:     make(chan struct{}),
	}
	for _, root := range plan.Roots() {
		if r, ok := resumed[root]; ok {
			d.resolved[root] = r
		} else {
			d.ledger.Open(root, plan.Prefix(root))
		}
	}
	d.stepped(nil) // every root resumed: done already
	return d
}

// stepped reports ledger events to the job's progress, counters and log,
// and closes done once every root is resolved or failed. Callers hold
// d.mu.
func (d *distJob) stepped(evs []explore.Event) {
	for _, e := range evs {
		switch e.Kind {
		case explore.EventRetry, explore.EventRequeue:
			d.requeues++
		case explore.EventFailed:
			d.logf("job %s root %d: abandoned after %d attempts: %s", d.id, e.Root, e.Attempt, e.Err)
		}
		d.prog.observe(e)
	}
	if d.ledger.Finished() {
		d.doneOnce.Do(func() { close(d.done) })
	}
}

// close stops the job: no more leases, and every heartbeat is gone.
func (d *distJob) close() {
	d.mu.Lock()
	d.ledger.Close()
	d.mu.Unlock()
}

// lease grants the next pending root to worker (nil: nothing to grant).
// A local lease, the coordinator's own, never expires.
func (d *distJob) lease(worker string, now time.Time, local bool) *distcensus.Lease {
	d.mu.Lock()
	defer d.mu.Unlock()
	var deadline int64
	if !local {
		deadline = now.Add(d.ttl).UnixNano()
	}
	c, ev, ok := d.ledger.Claim(worker, deadline)
	if !ok {
		return nil
	}
	d.stepped(ev)
	return &distcensus.Lease{
		JobID: d.id, Root: c.Root, Generation: c.Gen,
		Prefix: c.Prefix, Request: d.req,
		OptionsFP: d.plan.OptionsFingerprint(),
		TTLMillis: int(d.ttl / time.Millisecond),
	}
}

// heartbeat renews a lease; false means it is gone (requeued, resolved,
// or the job is closing) and the worker should abandon the attempt.
func (d *distJob) heartbeat(root, gen int, now time.Time) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.ledger.Beat(d.ledger.Entry(root), gen, now.Add(d.ttl).UnixNano())
}

// deliver applies one result delivery and returns the verdict. An error
// delivery fails the attempt; the root is requeued within its budget.
func (d *distJob) deliver(worker string, root, gen int, sum explore.RootSummary, errStr string, local bool) string {
	d.mu.Lock()
	defer d.mu.Unlock()
	e := d.ledger.Entry(root)
	var v explore.Verdict
	var ev []explore.Event
	if errStr != "" {
		if v, ev = d.ledger.Fail(e, gen, fmt.Sprintf("worker %s: %s", worker, errStr)); v == explore.VerdictAccepted {
			d.ledger.Requeue(e)
		}
	} else {
		v, ev = d.ledger.Deliver(e, gen)
	}
	switch v {
	case explore.VerdictStale:
		// The generation guard: this attempt was superseded while the
		// deliverer was dead or partitioned. Counting it would
		// double-count the root (its current attempt merges too).
		d.staleResults++
		d.logf("job %s root %d: stale result from %s (gen %d); rejected", d.id, root, worker, gen)
		return distcensus.ResultStale
	case explore.VerdictDuplicate:
		d.dupResults++
		return distcensus.ResultDuplicate
	}
	if errStr == "" {
		d.resolved[root] = sum
		if local {
			d.localRoots++
		} else {
			d.remoteRoots++
		}
	}
	d.stepped(ev)
	return distcensus.ResultAccepted
}

// expire requeues every remote lease whose TTL has run out, returning
// how many it reaped.
func (d *distJob) expire(now time.Time) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	gone, ev := d.ledger.Expire(now.UnixNano(), "lease expired")
	for _, c := range gone {
		d.expiries++
		d.logf("job %s root %d: lease held by %s expired (gen %d)", d.id, c.Root, c.Owner, c.Gen)
	}
	d.stepped(ev)
	return len(gone)
}

// resolvedCopy snapshots the resolved map for checkpointing/merging.
func (d *distJob) resolvedCopy() map[int]explore.RootSummary {
	d.mu.Lock()
	defer d.mu.Unlock()
	return maps.Clone(d.resolved)
}

// failedCopy snapshots the abandoned roots.
func (d *distJob) failedCopy() map[int]explore.RootFailure {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.ledger.Failures()
}

// distJobView is the jobView's distribution block.
type distJobView struct {
	Pending      int             `json:"pending"`
	Leases       []distLeaseView `json:"leases,omitempty"`
	Resolved     int             `json:"resolved"`
	RemoteRoots  int64           `json:"remote_roots"`
	LocalRoots   int64           `json:"local_roots"`
	StaleResults int64           `json:"stale_results"`
	DupResults   int64           `json:"duplicate_results"`
	Expiries     int64           `json:"lease_expiries"`
	Requeues     int64           `json:"requeues"`
}

type distLeaseView struct {
	Root       int       `json:"root"`
	Worker     string    `json:"worker"`
	Generation int       `json:"generation"`
	Expires    time.Time `json:"expires"` // zero for the coordinator's own lease, which never expires
}

func (d *distJob) view() *distJobView {
	d.mu.Lock()
	defer d.mu.Unlock()
	v := &distJobView{
		Pending: d.ledger.Queued(), Resolved: len(d.resolved),
		RemoteRoots: d.remoteRoots, LocalRoots: d.localRoots,
		StaleResults: d.staleResults, DupResults: d.dupResults,
		Expiries: d.expiries, Requeues: d.requeues,
	}
	for _, c := range d.ledger.Claims() {
		lv := distLeaseView{Root: c.Root, Worker: c.Owner, Generation: c.Gen}
		if c.Deadline != 0 {
			lv.Expires = time.Unix(0, c.Deadline)
		}
		v.Leases = append(v.Leases, lv)
	}
	sort.Slice(v.Leases, func(a, b int) bool { return v.Leases[a].Root < v.Leases[b].Root })
	return v
}

// distState is the server's worker registry and live distJob table.
type distState struct {
	ttl         time.Duration
	poll        time.Duration
	maxAttempts int

	mu      sync.Mutex
	workers map[string]time.Time // worker id -> last contact
	jobs    map[string]*distJob
	// Daemon-lifetime counters (distJob counters die with the job).
	staleResults int64
	dupResults   int64
	expiries     int64
	remoteRoots  int64
}

func newDistState(ttl, poll time.Duration, maxAttempts int) *distState {
	if ttl <= 0 {
		ttl = distDefaultTTL
	}
	if poll <= 0 {
		poll = distDefaultPoll
	}
	if maxAttempts <= 0 {
		maxAttempts = distDefaultMaxAttempts
	}
	return &distState{
		ttl: ttl, poll: poll, maxAttempts: maxAttempts,
		workers: make(map[string]time.Time),
		jobs:    make(map[string]*distJob),
	}
}

// touch records worker contact (registration is implicit: a coordinator
// restart re-learns its fleet from their next polls).
func (ds *distState) touch(worker string, now time.Time) {
	if worker == "" {
		return
	}
	ds.mu.Lock()
	ds.workers[worker] = now
	ds.mu.Unlock()
}

// liveWorkers counts workers heard from within two lease TTLs.
func (ds *distState) liveWorkers(now time.Time) int {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	n := 0
	for _, seen := range ds.workers {
		if now.Sub(seen) <= 2*ds.ttl {
			n++
		}
	}
	return n
}

func (ds *distState) add(d *distJob) { ds.mu.Lock(); ds.jobs[d.id] = d; ds.mu.Unlock() }
func (ds *distState) job(id string) *distJob {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	return ds.jobs[id]
}

// remove retires a finished distJob, folding its counters into the
// daemon-lifetime totals.
func (ds *distState) remove(id string) {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if d := ds.jobs[id]; d != nil {
		d.mu.Lock()
		ds.staleResults += d.staleResults
		ds.dupResults += d.dupResults
		ds.expiries += d.expiries
		ds.remoteRoots += d.remoteRoots
		d.mu.Unlock()
	}
	delete(ds.jobs, id)
}

// nextLease scans live distJobs in sorted-id order for a grantable
// root.
func (ds *distState) nextLease(worker string, now time.Time) *distcensus.Lease {
	ds.mu.Lock()
	ids := make([]string, 0, len(ds.jobs))
	for id := range ds.jobs {
		ids = append(ids, id)
	}
	ds.mu.Unlock()
	sort.Strings(ids)
	for _, id := range ids {
		if d := ds.job(id); d != nil {
			if l := d.lease(worker, now, false); l != nil {
				return l
			}
		}
	}
	return nil
}

// totals sums the lifetime counters plus every live job's.
func (ds *distState) totals() (stale, dup, expiries, remote int64, leases int) {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	stale, dup, expiries, remote = ds.staleResults, ds.dupResults, ds.expiries, ds.remoteRoots
	for _, d := range ds.jobs {
		d.mu.Lock()
		stale += d.staleResults
		dup += d.dupResults
		expiries += d.expiries
		remote += d.remoteRoots
		leases += len(d.ledger.Claims())
		d.mu.Unlock()
	}
	return
}

// runJobDistributed executes one job by leasing its frontier roots to
// remote workers, falling back to local exploration whenever the fleet
// goes quiet. Returns false when the exploration cannot be
// frontier-split — the caller owns the plain local path and its exact
// cap semantics.
func (s *Server) runJobDistributed(ctx, jobCtx context.Context, js *jobState, id string, req Request,
	builder explore.Builder, props []sim.Value, settle func(mutate func(j *Job))) bool {
	plan, ok := explore.NewDistPlan(builder, req.Options(), req.Check(props))
	if !ok {
		return false
	}
	fail := func(err error) {
		settle(func(j *Job) {
			j.State = StateFailed
			j.Error = err.Error()
			t := time.Now().UTC()
			j.FinishedAt = &t
		})
	}
	ckPath := s.store.CheckpointPath(id)
	resumed, warn, err := plan.LoadCheckpoint(ckPath)
	if err != nil {
		fail(err)
		return true
	}
	reqJSON, err := json.Marshal(req)
	if err != nil {
		fail(err)
		return true
	}
	roots := plan.Roots()
	dj := newDistJob(id, plan, reqJSON, resumed, s.dist.ttl, s.dist.maxAttempts, &js.progress, s.cfg.Logf)
	s.dist.add(dj)
	defer s.dist.remove(id)
	s.cfg.Logf("job %s: distributing %d roots (%d resumed from checkpoint, %d live workers)",
		id, len(roots), len(resumed), s.dist.liveWorkers(time.Now()))

	saves := 0
	lastSaved := len(resumed)
	saveCk := func() {
		done := dj.resolvedCopy()
		if len(done) == lastSaved {
			return
		}
		if err := plan.SaveCheckpoint(ckPath, done); err != nil {
			s.cfg.Logf("job %s: checkpoint save: %v", id, err)
			return
		}
		lastSaved = len(done)
		saves++
	}
	ckInfo := func() *CheckpointInfo {
		return &CheckpointInfo{
			TotalRoots: len(roots), ResumedRoots: len(resumed), Saves: saves, Warning: warn,
		}
	}

	tick := time.NewTicker(s.dist.ttl / 4)
	defer tick.Stop()
	for {
		select {
		case <-jobCtx.Done():
			dj.close()
			saveCk()
			c := plan.Merge(dj.resolvedCopy(), dj.failedCopy())
			s.settleCancelled(js, id, req, c, ckInfo(), settle)
			return true
		case <-dj.done:
			saveCk()
			c := plan.Merge(dj.resolvedCopy(), dj.failedCopy())
			result := ResultFrom(req.Protocol, *req.Crashes, req.ObjFaults, c, nil)
			info := ckInfo()
			settle(func(j *Job) {
				j.State = StateDone
				j.Result = result
				j.Checkpoint = info
				t := time.Now().UTC()
				j.FinishedAt = &t
			})
			v := dj.view()
			s.cfg.Logf("job %s done distributed: %d complete, %d incomplete, %d violations (%d roots remote, %d local, %d requeues, %d stale rejected)",
				id, c.Complete, c.Incomplete, c.ViolationRuns, v.RemoteRoots, v.LocalRoots, v.Requeues, v.StaleResults)
			return true
		case <-tick.C:
			now := time.Now()
			dj.expire(now)
			saveCk()
			// Graceful degradation: with no live workers the coordinator
			// explores pending roots itself, one per claim, re-checking
			// the fleet between roots so a returning worker takes over.
			for s.dist.liveWorkers(time.Now()) == 0 && jobCtx.Err() == nil {
				l := dj.lease("local", time.Now(), true)
				if l == nil {
					break
				}
				// A cancelled local attempt ends the job: its claim is left
				// to the closing ledger. A root the walk lost is a failed
				// attempt, requeued within the root's budget.
				sum, err := plan.ExploreRootLocal(jobCtx, l.Root)
				if jobCtx.Err() != nil {
					break
				}
				errStr := ""
				if err != nil {
					errStr = err.Error()
				}
				dj.deliver("local", l.Root, l.Generation, sum, errStr, true)
			}
		}
	}
}

// settleCancelled resolves a job whose context ended mid-run,
// disambiguating the three causes exactly like the local path: daemon
// drain re-queues (the checkpoint resumes it), an explicit cancel is
// the terminal cancelled state, a job timeout fails it.
func (s *Server) settleCancelled(js *jobState, id string, req Request, c *explore.Census,
	info *CheckpointInfo, settle func(mutate func(j *Job))) {
	switch {
	case s.draining():
		settle(func(j *Job) {
			j.State = StateQueued
			j.Checkpoint = info
			j.StartedAt = nil
			s.queued++
		})
		s.cfg.Logf("job %s checkpointed and re-queued for the next run (drain)", id)
	case js.cancelRequested():
		result := ResultFrom(req.Protocol, *req.Crashes, req.ObjFaults, c, nil)
		settle(func(j *Job) {
			j.State = StateCancelled
			j.Result = result
			j.Checkpoint = info
			t := time.Now().UTC()
			j.FinishedAt = &t
		})
		s.cfg.Logf("job %s cancelled (checkpoint retained; resubmit to resume)", id)
	default:
		settle(func(j *Job) {
			j.State = StateFailed
			j.Error = fmt.Sprintf("job timeout after %ds (checkpoint retained; resubmit to resume)", req.TimeoutSec)
			j.Checkpoint = info
			t := time.Now().UTC()
			j.FinishedAt = &t
		})
	}
}

// distHandlers mounts the /dist API onto mux.
func (s *Server) distHandlers(mux *http.ServeMux) {
	mux.HandleFunc("POST "+distcensus.PathRegister, func(w http.ResponseWriter, r *http.Request) {
		var req distcensus.RegisterRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.WorkerID == "" {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad register body"})
			return
		}
		s.dist.touch(req.WorkerID, time.Now())
		s.cfg.Logf("worker %s registered", req.WorkerID)
		writeJSON(w, http.StatusOK, distcensus.RegisterReply{
			PollMillis:     int(s.dist.poll / time.Millisecond),
			LeaseTTLMillis: int(s.dist.ttl / time.Millisecond),
		})
	})
	mux.HandleFunc("POST "+distcensus.PathLease, func(w http.ResponseWriter, r *http.Request) {
		var req distcensus.LeaseRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.WorkerID == "" {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad lease body"})
			return
		}
		now := time.Now()
		s.dist.touch(req.WorkerID, now)
		if s.draining() {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		l := s.dist.nextLease(req.WorkerID, now)
		if l == nil {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		writeJSON(w, http.StatusOK, l)
	})
	mux.HandleFunc("POST "+distcensus.PathHeartbeat, func(w http.ResponseWriter, r *http.Request) {
		var req distcensus.HeartbeatRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad heartbeat body"})
			return
		}
		now := time.Now()
		s.dist.touch(req.WorkerID, now)
		d := s.dist.job(req.JobID)
		if d == nil || !d.heartbeat(req.Root, req.Generation, now) {
			http.Error(w, "lease gone", http.StatusConflict)
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "renewed"})
	})
	mux.HandleFunc("POST "+distcensus.PathResult, func(w http.ResponseWriter, r *http.Request) {
		var req distcensus.ResultRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad result body"})
			return
		}
		s.dist.touch(req.WorkerID, time.Now())
		d := s.dist.job(req.JobID)
		if d == nil {
			// The job settled (or never distributed): any late delivery is
			// by definition superseded.
			s.dist.mu.Lock()
			s.dist.staleResults++
			s.dist.mu.Unlock()
			http.Error(w, "stale: job not distributing", http.StatusConflict)
			return
		}
		// A summary the plan cannot have produced fails the attempt, as
		// a worker-reported error does: merging it could crash the fold.
		errStr := req.Err
		if errStr == "" {
			if err := d.plan.CheckSummary(req.Summary); err != nil {
				errStr = "invalid summary: " + err.Error()
			}
		}
		status := d.deliver(req.WorkerID, req.Root, req.Generation, req.Summary, errStr, false)
		if status == distcensus.ResultStale {
			http.Error(w, "stale: generation superseded", http.StatusConflict)
			return
		}
		writeJSON(w, http.StatusOK, distcensus.ResultReply{Status: status})
	})
}
