package censusd

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/explore"
)

// Config shapes a Server.
type Config struct {
	// Dir is the job store directory.
	Dir string
	// Workers is the number of jobs run concurrently (default 2). Each
	// job additionally uses its request's engine workers.
	Workers int
	// QueueDepth bounds the admission backlog: submissions beyond this
	// many queued jobs are shed with 429 (default 16).
	QueueDepth int
	// CheckpointEvery is how many completed subtree roots elapse
	// between checkpoint saves (default 1 — maximum durability; the
	// daemon's whole point is surviving kills).
	CheckpointEvery int
	// Supervision is the per-job supervisor template (attempt budget,
	// backoff, stall watchdog) for local and leased attempts alike. Its
	// MaxAttempts defaults to 6: losing a remote worker is routine. Stats
	// and OnEvent are owned per job and must be nil here.
	Supervision explore.Supervise
	// Logf receives operational log lines (default os.Stderr).
	Logf func(format string, args ...any)

	// LeaseTTL is the distributed work-item lease duration (default
	// 10s); a worker that stops renewing for this long loses the item.
	LeaseTTL time.Duration
	// WorkerPoll is the lease-poll interval suggested to workers at
	// registration (default 500ms).
	WorkerPoll time.Duration

	// StoreMaxJobs bounds how many terminal (done/failed/cancelled)
	// jobs the result cache retains; the least recently accessed are
	// evicted past it (0: unbounded).
	StoreMaxJobs int
	// StoreMaxBytes bounds the terminal jobs' on-disk footprint —
	// records plus checkpoints (0: unbounded).
	StoreMaxBytes int64

	// RatePerSec enables per-client rate limiting of POST /jobs at this
	// sustained rate (0: disabled); RateBurst is the bucket size
	// (default 1 when limiting).
	RatePerSec float64
	RateBurst  int
}

// defaultMaxAttempts is a job's attempt budget per ledger entry when
// Config.Supervision leaves it zero.
const defaultMaxAttempts = 6

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 1
	}
	if c.Supervision.MaxAttempts <= 0 {
		c.Supervision.MaxAttempts = defaultMaxAttempts
	}
	if c.Logf == nil {
		c.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "censusd: "+format+"\n", args...)
		}
	}
	return c
}

// eventRec is one supervisor event as exposed over /jobs/{id}.
type eventRec struct {
	Kind    string `json:"kind"`
	Root    int    `json:"root"`
	Attempt int    `json:"attempt,omitempty"`
	Err     string `json:"err,omitempty"`
}

// maxEventRing bounds the per-job recent-event list.
const maxEventRing = 32

// progress is a job's live telemetry, fed by the supervisor's OnEvent
// hook from exploration worker goroutines.
type progress struct {
	mu        sync.Mutex
	attempts  int64
	retries   int64
	requeues  int64
	rootsDone int64
	failed    int64
	recent    []eventRec
}

func (p *progress) observe(e explore.Event) {
	p.mu.Lock()
	defer p.mu.Unlock()
	switch e.Kind {
	case explore.EventClaim:
		p.attempts++
	case explore.EventResolved:
		p.rootsDone++
	case explore.EventRetry:
		p.retries++
	case explore.EventRequeue:
		p.requeues++
	case explore.EventFailed:
		p.failed++
	}
	p.recent = append(p.recent, eventRec{Kind: e.Kind.String(), Root: e.Root, Attempt: e.Attempt, Err: e.Err})
	if len(p.recent) > maxEventRing {
		p.recent = p.recent[len(p.recent)-maxEventRing:]
	}
}

// progressView is the JSON rendering of progress.
type progressView struct {
	Attempts  int64      `json:"attempts"`
	Retries   int64      `json:"retries"`
	Requeues  int64      `json:"requeues"`
	RootsDone int64      `json:"roots_done"`
	Failed    int64      `json:"failed_roots"`
	Recent    []eventRec `json:"recent_events,omitempty"`
}

func (p *progress) view() *progressView {
	p.mu.Lock()
	defer p.mu.Unlock()
	return &progressView{
		Attempts: p.attempts, Retries: p.retries, Requeues: p.requeues,
		RootsDone: p.rootsDone, Failed: p.failed,
		Recent: append([]eventRec(nil), p.recent...),
	}
}

// jobState is a Job plus its live telemetry and cancellation hook.
type jobState struct {
	job      *Job
	progress progress

	// cmu guards the cancellation state (never held with Server.mu
	// acquired after it).
	cmu       sync.Mutex
	cancel    context.CancelFunc
	cancelReq bool
	// access is the LRU clock for result-cache eviction (guarded by
	// Server.mu).
	access time.Time
}

func (js *jobState) setCancel(fn context.CancelFunc) {
	js.cmu.Lock()
	defer js.cmu.Unlock()
	js.cancel = fn
	if js.cancelReq {
		fn() // cancelled while running, before this context existed
	}
}

// requestCancel flips the cancel flag and fires the job's context (a
// no-op if the job is not running right now).
func (js *jobState) requestCancel() {
	js.cmu.Lock()
	js.cancelReq = true
	fn := js.cancel
	js.cmu.Unlock()
	if fn != nil {
		fn()
	}
}

func (js *jobState) cancelRequested() bool {
	js.cmu.Lock()
	defer js.cmu.Unlock()
	return js.cancelReq
}

// Server is the census daemon core: the job table, the bounded
// admission queue, and the worker pool. HTTP is a thin layer over it
// (Handler); cmd/censusd adds listening and signal handling.
type Server struct {
	cfg   Config
	store *Store

	ctx context.Context // drain: cancelled means stop admitting and wind down

	mu     sync.Mutex
	jobs   map[string]*jobState
	queued int // admission backlog (jobs in StateQueued)

	queue chan string
	wg    sync.WaitGroup

	dist    *distState
	limiter *rateLimiter

	evictedJobs  int64 // guarded by mu
	evictedBytes int64
}

// New opens the store, recovers persisted jobs — running jobs (in
// flight when the previous process died) are re-queued to resume from
// their checkpoints — and returns a server ready to Start.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.Supervision.Stats != nil || cfg.Supervision.OnEvent != nil {
		return nil, fmt.Errorf("censusd: Config.Supervision.Stats/OnEvent are per-job; set them nil")
	}
	store, err := OpenStore(cfg.Dir)
	if err != nil {
		return nil, err
	}
	jobs, warnings, err := store.LoadAll()
	if err != nil {
		return nil, err
	}
	for _, w := range warnings {
		cfg.Logf("recovery: %s", w)
	}
	s := &Server{
		cfg:     cfg,
		store:   store,
		jobs:    make(map[string]*jobState, len(jobs)),
		queue:   make(chan string, cfg.QueueDepth+len(jobs)+cfg.Workers+1),
		dist:    newDistState(cfg.LeaseTTL, cfg.WorkerPoll),
		limiter: newRateLimiter(cfg.RatePerSec, cfg.RateBurst),
	}
	for _, j := range jobs {
		if j.State == StateRunning {
			// The previous daemon died with this job in flight: its
			// checkpoint holds every root completed before the kill.
			j.State = StateQueued
			j.Restarts++
			if err := store.Save(j); err != nil {
				return nil, err
			}
			cfg.Logf("recovery: job %s re-queued (restart %d), resuming from checkpoint", j.ID, j.Restarts)
		}
		s.jobs[j.ID] = &jobState{job: j}
		if j.State == StateQueued {
			s.queued++
			s.queue <- j.ID
		}
	}
	return s, nil
}

// Start launches the worker pool. ctx is the drain context: cancelling
// it stops admission, interrupts running jobs at subtree-root
// granularity (flushing their checkpoints), and winds the pool down.
// Call Drain to wait for the wind-down.
func (s *Server) Start(ctx context.Context) {
	s.ctx = ctx
	for w := 0; w < s.cfg.Workers; w++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for {
				select {
				case <-ctx.Done():
					return
				case id := <-s.queue:
					s.runJob(ctx, id)
				}
			}
		}()
	}
}

// Drain blocks until every worker has stopped. Jobs interrupted
// mid-run have been checkpointed and persisted back to queued, ready
// for the next daemon to resume.
func (s *Server) Drain() {
	s.wg.Wait()
}

// draining reports whether the drain context has fired.
func (s *Server) draining() bool {
	return s.ctx != nil && s.ctx.Err() != nil
}

// Submit admits a census request. The returned code is the HTTP-style
// outcome: 201 newly admitted, 200 attached to an existing job or
// served from the result cache, 429 shed (queue full — retryable),
// 503 draining (retryable elsewhere).
func (s *Server) Submit(req Request) (job *Job, code int, err error) {
	if err := req.Normalize(); err != nil {
		return nil, http.StatusBadRequest, err
	}
	if s.draining() {
		return nil, http.StatusServiceUnavailable, fmt.Errorf("daemon is draining; resubmit after restart")
	}
	id := req.ID()
	s.mu.Lock()
	defer s.mu.Unlock()
	if js, ok := s.jobs[id]; ok {
		switch js.job.State {
		case StateFailed, StateCancelled:
			// Resubmission of a failed or cancelled job re-queues it; the
			// retained checkpoint makes this a resume, not a restart.
			if s.queued >= s.cfg.QueueDepth {
				return nil, http.StatusTooManyRequests, fmt.Errorf("admission queue full (%d queued); retry later", s.queued)
			}
			prev := js.job.State
			js.job.State = StateQueued
			js.job.Error = ""
			js.job.Result = nil
			js.job.FinishedAt = nil
			js.cmu.Lock()
			js.cancelReq = false
			js.cmu.Unlock()
			if err := s.store.Save(js.job); err != nil {
				return nil, http.StatusInternalServerError, err
			}
			s.queued++
			s.queue <- id
			s.cfg.Logf("job %s re-queued after %s (identity %q)", id, prev, js.job.Identity)
			return js.job, http.StatusOK, nil
		default:
			// Queued/running: attach. Done: serve the durable cache.
			return js.job, http.StatusOK, nil
		}
	}
	if s.queued >= s.cfg.QueueDepth {
		return nil, http.StatusTooManyRequests, fmt.Errorf("admission queue full (%d queued); retry later", s.queued)
	}
	j := &Job{
		ID:          id,
		Identity:    req.Identity(),
		Request:     req,
		State:       StateQueued,
		SubmittedAt: time.Now().UTC(),
	}
	// Durability before visibility: the record is on disk before the
	// job is queued, so a kill between the two re-queues it on restart.
	if err := s.store.Save(j); err != nil {
		return nil, http.StatusInternalServerError, err
	}
	s.jobs[id] = &jobState{job: j}
	s.queued++
	s.queue <- id
	s.cfg.Logf("job %s admitted (identity %q, %d queued)", id, j.Identity, s.queued)
	return j, http.StatusCreated, nil
}

// runJob executes one job under the supervisor with panic isolation.
func (s *Server) runJob(ctx context.Context, id string) {
	s.mu.Lock()
	js, ok := s.jobs[id]
	if !ok || js.job.State != StateQueued {
		// Stale queue entry (e.g. the job was settled by an earlier
		// duplicate enqueue); nothing to do.
		s.mu.Unlock()
		return
	}
	js.job.State = StateRunning
	now := time.Now().UTC()
	js.job.StartedAt = &now
	s.queued--
	if err := s.store.Save(js.job); err != nil {
		s.cfg.Logf("job %s: persist running state: %v", id, err)
	}
	req := js.job.Request
	s.mu.Unlock()

	settle := func(mutate func(j *Job)) {
		s.mu.Lock()
		defer s.mu.Unlock()
		mutate(js.job)
		if err := s.store.Save(js.job); err != nil {
			s.cfg.Logf("job %s: persist: %v", id, err)
		}
	}

	// Panic isolation: one poisoned job must not take a pool worker (or
	// the daemon) down. The supervisor already retries panics inside
	// the exploration; this guards everything around it.
	defer func() {
		if p := recover(); p != nil {
			s.cfg.Logf("job %s: panic isolated: %v", id, p)
			settle(func(j *Job) {
				j.State = StateFailed
				j.Error = fmt.Sprintf("panic: %v", p)
				t := time.Now().UTC()
				j.FinishedAt = &t
			})
		}
	}()

	// Per-job cancellation: DELETE /jobs/{id} fires this context; the
	// exploration drains at subtree-root granularity and the settle
	// switch below lands the job in the cancelled state.
	jobCtx, cancelJob := context.WithCancel(ctx)
	defer cancelJob()
	js.setCancel(cancelJob)
	if req.TimeoutSec > 0 {
		var cancelT context.CancelFunc
		jobCtx, cancelT = context.WithTimeout(jobCtx, time.Duration(req.TimeoutSec)*time.Second)
		defer cancelT()
	}

	// Leases carry the request, so that workers rebuild the identical
	// exploration.
	builder, props, err := req.Build()
	var reqJSON []byte
	if err == nil {
		reqJSON, err = json.Marshal(req)
	}
	if err != nil {
		settle(func(j *Job) {
			j.State = StateFailed
			j.Error = err.Error()
			t := time.Now().UTC()
			j.FinishedAt = &t
		})
		return
	}

	var supStats explore.SuperviseStats
	sup := s.cfg.Supervision
	sup.Stats = &supStats
	sup.OnEvent = js.progress.observe
	opts := req.Options()
	opts.Context = jobCtx
	opts.Supervision = &sup

	// One path for every job: its own pool, with remote workers seated
	// at it through the job's distJob.
	dj := s.dist.open(id, reqJSON, &js.progress, s.cfg.Logf)
	defer s.dist.remove(id)
	c, ckStats, err := dj.seat.RunCheckpointed(builder, opts, req.Check(props), explore.Checkpoint{
		Path:   s.store.CheckpointPath(id),
		Every:  s.cfg.CheckpointEvery,
		Resume: true,
	})
	ckInfo := &CheckpointInfo{
		TotalRoots:   ckStats.TotalRoots,
		ResumedRoots: ckStats.ResumedRoots,
		Saves:        ckStats.Saves,
		Warning:      ckStats.Warning,
	}
	switch {
	case err != nil:
		settle(func(j *Job) {
			j.State = StateFailed
			j.Error = err.Error()
			j.Checkpoint = ckInfo
			t := time.Now().UTC()
			j.FinishedAt = &t
		})
	case c.Cancelled:
		// Drain, explicit cancel, or job timeout — the checkpoint is
		// retained in every case.
		s.settleCancelled(js, id, req, c, ckInfo, settle)
	default:
		result := ResultFrom(req.Protocol, *req.Crashes, req.ObjFaults, c, &supStats)
		settle(func(j *Job) {
			j.State = StateDone
			j.Result = result
			j.Checkpoint = ckInfo
			t := time.Now().UTC()
			j.FinishedAt = &t
		})
		v := dj.view()
		s.cfg.Logf("job %s done: %d complete, %d incomplete, %d violations (resumed %d/%d roots; %d remote, %d local, %d requeues, %d stale rejected)",
			id, c.Complete, c.Incomplete, c.ViolationRuns, ckStats.ResumedRoots, ckStats.TotalRoots,
			v.RemoteRoots, v.LocalRoots, v.Requeues, v.StaleResults)
	}
	s.evict()
}

// jobView is the /jobs/{id} response: the persisted record plus live
// progress and, while running, the distribution block with its lease
// table.
type jobView struct {
	*Job
	Progress *progressView `json:"progress,omitempty"`
	Dist     *distJobView  `json:"dist,omitempty"`
}

// Job returns a point-in-time view of one job (nil if unknown).
// Viewing a job refreshes its eviction clock: polled jobs are the last
// to be evicted from the result cache.
func (s *Server) Job(id string) *jobView {
	s.mu.Lock()
	js, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return nil
	}
	js.access = time.Now()
	cp := *js.job
	s.mu.Unlock()
	v := &jobView{Job: &cp, Progress: js.progress.view()}
	if d := s.dist.job(id); d != nil {
		v.Dist = d.view()
	}
	return v
}

// Cancel cancels a job: a queued job settles immediately, a running
// job's context fires (the exploration drains, outstanding worker
// leases are revoked via the gone/stale answers, and the job settles
// cancelled with its partial census). The checkpoint is retained —
// resubmitting the identical request resumes. Terminal jobs conflict.
func (s *Server) Cancel(id string) (code int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	js, ok := s.jobs[id]
	if !ok {
		return http.StatusNotFound, fmt.Errorf("no such job")
	}
	switch js.job.State {
	case StateQueued:
		js.requestCancel() // flags the state for a racing runJob pickup
		js.job.State = StateCancelled
		t := time.Now().UTC()
		js.job.FinishedAt = &t
		s.queued--
		if err := s.store.Save(js.job); err != nil {
			return http.StatusInternalServerError, err
		}
		s.cfg.Logf("job %s cancelled while queued", id)
		return http.StatusOK, nil
	case StateRunning:
		js.requestCancel()
		s.cfg.Logf("job %s: cancellation requested", id)
		return http.StatusAccepted, nil
	default:
		return http.StatusConflict, fmt.Errorf("job already %s", js.job.State)
	}
}

// evict enforces the result-cache bounds: terminal jobs beyond
// StoreMaxJobs / StoreMaxBytes are deleted (record, checkpoint, and
// dedup entry), least recently accessed first.
func (s *Server) evict() {
	if s.cfg.StoreMaxJobs <= 0 && s.cfg.StoreMaxBytes <= 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	type cand struct {
		id     string
		access time.Time
		size   int64
	}
	var cands []cand
	var bytes int64
	for id, js := range s.jobs {
		if !terminalState(js.job.State) {
			continue
		}
		at := js.access
		if at.IsZero() && js.job.FinishedAt != nil {
			at = *js.job.FinishedAt
		}
		sz := s.store.Size(id)
		cands = append(cands, cand{id: id, access: at, size: sz})
		bytes += sz
	}
	sort.Slice(cands, func(a, b int) bool { return cands[a].access.Before(cands[b].access) })
	for len(cands) > 0 &&
		((s.cfg.StoreMaxJobs > 0 && len(cands) > s.cfg.StoreMaxJobs) ||
			(s.cfg.StoreMaxBytes > 0 && bytes > s.cfg.StoreMaxBytes)) {
		c := cands[0]
		cands = cands[1:]
		s.store.Delete(c.id)
		delete(s.jobs, c.id)
		bytes -= c.size
		s.evictedJobs++
		s.evictedBytes += c.size
		s.cfg.Logf("job %s evicted from result cache (%d bytes reclaimed)", c.id, c.size)
	}
}

// Jobs lists every job, oldest first.
func (s *Server) Jobs() []*jobView {
	s.mu.Lock()
	states := make([]*jobState, 0, len(s.jobs))
	views := make([]*jobView, 0, len(s.jobs))
	for _, js := range s.jobs {
		cp := *js.job
		states = append(states, js)
		views = append(views, &jobView{Job: &cp})
	}
	s.mu.Unlock()
	for i, js := range states {
		views[i].Progress = js.progress.view()
	}
	sort.Slice(views, func(a, b int) bool { return views[a].SubmittedAt.Before(views[b].SubmittedAt) })
	return views
}

// health is the /healthz response.
type health struct {
	Status  string         `json:"status"` // ok | draining
	Jobs    map[string]int `json:"jobs"`
	Queued  int            `json:"queued"`
	Depth   int            `json:"queue_depth"`
	Workers int            `json:"workers"`

	// Distribution telemetry.
	WorkersLive   int   `json:"workers_live"`
	LeasesActive  int   `json:"leases_active"`
	StaleResults  int64 `json:"stale_results"`
	DupResults    int64 `json:"duplicate_results"`
	LeaseExpiries int64 `json:"lease_expiries"`
	RemoteRoots   int64 `json:"remote_roots"`

	// Admission/eviction telemetry.
	EvictedJobs  int64 `json:"evicted_jobs"`
	EvictedBytes int64 `json:"evicted_bytes"`
	RateLimited  int64 `json:"rate_limited"`
}

// Health summarizes daemon state.
func (s *Server) Health() health {
	stale, dup, expiries, remote, leases := s.dist.totals()
	s.mu.Lock()
	defer s.mu.Unlock()
	h := health{
		Status:  "ok",
		Jobs:    map[string]int{},
		Queued:  s.queued,
		Depth:   s.cfg.QueueDepth,
		Workers: s.cfg.Workers,

		WorkersLive:   s.dist.liveWorkers(time.Now()),
		LeasesActive:  leases,
		StaleResults:  stale,
		DupResults:    dup,
		LeaseExpiries: expiries,
		RemoteRoots:   remote,

		EvictedJobs:  s.evictedJobs,
		EvictedBytes: s.evictedBytes,
		RateLimited:  s.limiter.deniedCount(),
	}
	if s.draining() {
		h.Status = "draining"
	}
	for _, js := range s.jobs {
		h.Jobs[js.job.State]++
	}
	return h
}

// Handler returns the daemon's HTTP API:
//
//	POST   /jobs      submit a Request; 201 admitted, 200 attached/
//	                  cached, 400 invalid, 429 rate-limited or queue
//	                  full (Retry-After set), 503 draining
//	GET    /jobs      list all jobs
//	GET    /jobs/{id} one job: status, progress, lease table, result
//	DELETE /jobs/{id} cancel; 200 settled, 202 cancelling, 404 unknown,
//	                  409 already terminal
//	GET    /healthz   daemon health, job-state histogram, distribution
//	                  and admission counters
//
// plus the /dist worker API (register, lease, heartbeat, result).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
		// Rate limit before queue-depth shedding: a chatty client is
		// throttled on its own budget before it can crowd the shared
		// admission queue.
		if ok, retry := s.limiter.allow(clientKey(r)); !ok {
			w.Header().Set("Retry-After", fmt.Sprintf("%d", int(retry/time.Second)))
			writeJSON(w, http.StatusTooManyRequests, map[string]string{"error": "rate limit exceeded; retry later"})
			return
		}
		var req Request
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad request body: " + err.Error()})
			return
		}
		job, code, err := s.Submit(req)
		if err != nil {
			if code == http.StatusTooManyRequests {
				w.Header().Set("Retry-After", "1")
			}
			writeJSON(w, code, map[string]string{"error": err.Error()})
			return
		}
		writeJSON(w, code, s.Job(job.ID))
	})
	mux.HandleFunc("DELETE /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		code, err := s.Cancel(id)
		if err != nil {
			writeJSON(w, code, map[string]string{"error": err.Error()})
			return
		}
		writeJSON(w, code, s.Job(id))
	})
	mux.HandleFunc("GET /jobs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Jobs())
	})
	mux.HandleFunc("GET /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		v := s.Job(r.PathValue("id"))
		if v == nil {
			writeJSON(w, http.StatusNotFound, map[string]string{"error": "no such job"})
			return
		}
		writeJSON(w, http.StatusOK, v)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Health())
	})
	s.distHandlers(mux)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
