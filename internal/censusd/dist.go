package censusd

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/distcensus"
	"repro/internal/explore"
)

// Coordinator side of the distributed census. Every job runs through
// the checkpoint loop (explore.RunCheckpointed) on its own
// work-stealing pool, and remote workers claim from that pool through
// the job's seat (explore.RemoteSeat): a lease is a ledger claim whose
// deadline heartbeats renew, a delivered summary settles its root like
// a local one, and the pool's watchdog takes back lapsed leases.
//
//	pending --lease--> leased --result(gen ok)--> resolved
//	   ^                  |
//	   |   expiry/err     |  (generation++ on every requeue)
//	   +------------------+
//
// A result under a superseded generation — a worker killed mid-lease and
// resurrected after the root was reassigned — is stale (409) and never
// merged; a repeated delivery is a duplicate. A root past its attempt
// budget becomes a RootFailure (coverage deficit). While a remote
// worker is live the job's local workers leave whole roots to the
// fleet; when the fleet goes quiet they take them.

// distDefaultTTL is the default lease duration.
const distDefaultTTL = 10 * time.Second

// distDefaultPoll is the worker poll interval suggested at registration.
const distDefaultPoll = 500 * time.Millisecond

// distJob adapts the wire to one running job's seat and keeps the
// job's distribution counters.
type distJob struct {
	id   string
	seat *explore.RemoteSeat
	req  json.RawMessage
	ttl  time.Duration
	prog *progress
	logf func(format string, args ...any)

	mu           sync.Mutex
	staleResults int64
	dupResults   int64
	expiries     int64
	remoteRoots  int64
}

// lease grants the next whole root to worker (nil: nothing to grant).
func (d *distJob) lease(worker string, now time.Time) *distcensus.Lease {
	c, optsFP, ok := d.seat.Lease(worker, now)
	if !ok {
		return nil
	}
	return &distcensus.Lease{
		JobID: d.id, Root: c.Root, Generation: c.Gen,
		Prefix: c.Prefix, Request: d.req, OptionsFP: optsFP,
		TTLMillis: int(d.ttl / time.Millisecond),
	}
}

// heartbeat renews a lease; false means it is gone (requeued, resolved,
// or the job is closing) and the worker should abandon the attempt.
func (d *distJob) heartbeat(root, gen int, now time.Time) bool {
	return d.seat.Beat(root, gen, now)
}

// deliver applies one result delivery and returns the verdict. An error
// delivery fails the attempt; the root is requeued within its budget.
func (d *distJob) deliver(worker string, root, gen int, sum explore.RootSummary, errStr string) string {
	var v explore.Verdict
	if errStr != "" {
		v = d.seat.Fail(root, gen, fmt.Sprintf("worker %s: %s", worker, errStr))
	} else {
		v = d.seat.Deliver(root, gen, sum)
	}
	switch v {
	case explore.VerdictStale:
		// The generation guard: this attempt was superseded while the
		// deliverer was dead or partitioned. Counting it would
		// double-count the root (its current attempt merges too).
		d.count(&d.staleResults)
		d.logf("job %s root %d: stale result from %s (gen %d); rejected", d.id, root, worker, gen)
		return distcensus.ResultStale
	case explore.VerdictDuplicate:
		d.count(&d.dupResults)
		return distcensus.ResultDuplicate
	}
	if errStr == "" {
		d.count(&d.remoteRoots)
	}
	return distcensus.ResultAccepted
}

// count bumps one of the job's counters.
func (d *distJob) count(n *int64) {
	d.mu.Lock()
	*n++
	d.mu.Unlock()
}

// expired counts and logs a lease the job's watchdog took back.
func (d *distJob) expired(c explore.Claim) {
	d.count(&d.expiries)
	d.logf("job %s root %d: lease held by %s expired (gen %d)", d.id, c.Root, c.Owner, c.Gen)
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
	Expires    time.Time `json:"expires"`
}

// view renders the block: the seat's queue and leases, the roots
// settled (resumed ones included), and the counters. Settled roots not
// delivered remotely were walked by the job's own workers.
func (d *distJob) view() *distJobView {
	pending, resumed, leases := d.seat.View()
	p := d.prog.view()
	d.mu.Lock()
	defer d.mu.Unlock()
	v := &distJobView{
		Pending: pending, Resolved: resumed + int(p.RootsDone),
		// A delivered root counts as remote at once, and as done once its
		// checkpoint save is.
		RemoteRoots: d.remoteRoots, LocalRoots: max(0, p.RootsDone-d.remoteRoots),
		StaleResults: d.staleResults, DupResults: d.dupResults,
		Expiries: d.expiries, Requeues: p.Retries + p.Requeues,
	}
	for _, c := range leases {
		v.Leases = append(v.Leases, distLeaseView{Root: c.Root, Worker: c.Owner, Generation: c.Gen, Expires: time.Unix(0, c.Deadline)})
	}
	sort.Slice(v.Leases, func(a, b int) bool { return v.Leases[a].Root < v.Leases[b].Root })
	return v
}

// distState is the server's worker registry and live distJob table.
type distState struct {
	ttl  time.Duration
	poll time.Duration

	mu      sync.Mutex
	workers map[string]time.Time // worker id -> last contact
	jobs    map[string]*distJob
	// Daemon-lifetime counters (distJob counters die with the job).
	staleResults int64
	dupResults   int64
	expiries     int64
	remoteRoots  int64
}

func newDistState(ttl, poll time.Duration) *distState {
	if ttl <= 0 {
		ttl = distDefaultTTL
	}
	if poll <= 0 {
		poll = distDefaultPoll
	}
	return &distState{
		ttl: ttl, poll: poll,
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

// open registers a distJob for job id, whose leases carry the request
// req and whose events feed prog.
func (ds *distState) open(id string, req json.RawMessage, prog *progress, logf func(string, ...any)) *distJob {
	d := &distJob{id: id, req: req, ttl: ds.ttl, prog: prog, logf: logf}
	d.seat = explore.NewRemoteSeat(ds.ttl, func() bool { return ds.liveWorkers(time.Now()) > 0 }, d.expired)
	ds.mu.Lock()
	ds.jobs[id] = d
	ds.mu.Unlock()
	return d
}

func (ds *distState) job(id string) *distJob {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	return ds.jobs[id]
}

// list snapshots the live distJobs in sorted-id order.
func (ds *distState) list() []*distJob {
	ds.mu.Lock()
	out := make([]*distJob, 0, len(ds.jobs))
	for _, d := range ds.jobs {
		out = append(out, d)
	}
	ds.mu.Unlock()
	sort.Slice(out, func(a, b int) bool { return out[a].id < out[b].id })
	return out
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
	for _, d := range ds.list() {
		if l := d.lease(worker, now); l != nil {
			return l
		}
	}
	return nil
}

// totals sums the lifetime counters plus every live job's.
func (ds *distState) totals() (stale, dup, expiries, remote int64, leases int) {
	for _, d := range ds.list() {
		_, _, held := d.seat.View()
		leases += len(held)
	}
	ds.mu.Lock()
	defer ds.mu.Unlock()
	stale, dup, expiries, remote = ds.staleResults, ds.dupResults, ds.expiries, ds.remoteRoots
	for _, d := range ds.jobs {
		d.mu.Lock()
		stale += d.staleResults
		dup += d.dupResults
		expiries += d.expiries
		remote += d.remoteRoots
		d.mu.Unlock()
	}
	return
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
			// The job settled: any late delivery is by definition
			// superseded.
			s.dist.mu.Lock()
			s.dist.staleResults++
			s.dist.mu.Unlock()
			http.Error(w, "stale: job not running", http.StatusConflict)
			return
		}
		// The seat fails the attempt of a summary the plan cannot have
		// produced, as a worker-reported error does: merging it could
		// crash the fold.
		status := d.deliver(req.WorkerID, req.Root, req.Generation, req.Summary, req.Err)
		if status == distcensus.ResultStale {
			http.Error(w, "stale: generation superseded", http.StatusConflict)
			return
		}
		writeJSON(w, http.StatusOK, distcensus.ResultReply{Status: status})
	})
}
