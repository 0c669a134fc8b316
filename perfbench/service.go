package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/censusd"
	"repro/internal/distcensus"
	"repro/internal/explore"
	"repro/internal/sim"
)

// serviceTemplate is one small registry job of the service mix.
type serviceTemplate struct {
	Name string          `json:"name"`
	Req  censusd.Request `json:"request"`
}

// serviceTemplates are the jobs of the service mix: small registry
// censuses, so their time goes into admission, store and checkpoint
// writes, the lease round trips and the per-root rebuilds rather than
// into the reducers.
var serviceTemplates = []serviceTemplate{
	{"rw2", censusd.Request{Protocol: "rw2"}},
	{"tas2", censusd.Request{Protocol: "tas2"}},
	{"fa2", censusd.Request{Protocol: "fa2"}},
	{"queue2", censusd.Request{Protocol: "queue2"}},
	{"sticky-n3", censusd.Request{Protocol: "sticky", N: 3}},
	{"swap-n3", censusd.Request{Protocol: "swap", N: 3}},
	{"cas-k3-n2", censusd.Request{Protocol: "cas", K: 3, N: 2}},
	{"casdegel-k4-n3", censusd.Request{Protocol: "casdegel", K: 4, N: 3}},
	{"casdeg-k3-n2-f1", censusd.Request{Protocol: "casdeg", K: 3, N: 2, ObjFaults: 1,
		FaultModes: []string{"crash", "garble", "omission", "reset"}}},
	{"rw3-sleepsets", censusd.Request{Protocol: "rw3", SleepSets: true}},
}

const (
	// resubmitsPerDeck is how many exact resubmissions of warm-up jobs
	// each deck of ops carries next to one fresh job per template; the
	// result cache serves them.
	resubmitsPerDeck = 2
	// servicePoll is the clients' GET /jobs/{id} interval.
	servicePoll = 10 * time.Millisecond
	// serviceLeaseTTL is short enough that roots longer than a third of
	// it heartbeat; serviceWorkerPoll bounds how long a new job's first
	// root waits for the idle worker.
	serviceLeaseTTL   = 600 * time.Millisecond
	serviceWorkerPoll = 10 * time.Millisecond
)

func serviceParams() any {
	return map[string]any{
		"templates": serviceTemplates, "resubmits_per_deck": resubmitsPerDeck,
		"clients": 2, "job_slots": 1, "workers": 1,
		"client_poll_ms": ms(servicePoll), "lease_ttl_ms": ms(serviceLeaseTTL), "worker_poll_ms": ms(serviceWorkerPoll),
	}
}

// serviceItem is one op of the service sequence.
type serviceItem struct {
	Template int
	Resubmit bool
}

// serviceSequence returns op i of the seeded sequence. Ops come in
// decks of one fresh job per template plus resubmitsPerDeck
// resubmissions, shuffled per deck, so every window sees the same mix
// whatever the seed.
func serviceSequence(seed int64, templates int, i int64) serviceItem {
	size := int64(templates + resubmitsPerDeck)
	deck, pos := i/size, i%size
	rng := rand.New(rand.NewSource(seed*1_000_003 + deck))
	items := make([]serviceItem, 0, size)
	for t := 0; t < templates; t++ {
		items = append(items, serviceItem{Template: t})
	}
	for r := 0; r < resubmitsPerDeck; r++ {
		items = append(items, serviceItem{Template: rng.Intn(templates), Resubmit: true})
	}
	rng.Shuffle(len(items), func(a, b int) { items[a], items[b] = items[b], items[a] })
	return items[pos]
}

var errShed = errors.New("submission shed (429)")

// service is the service-mix workload: an in-process censusd.Server
// with one job slot on a loopback listener, and one in-process
// distcensus.Worker. Everything it writes lives in one temporary
// directory under buildDir, removed by close.
type service struct {
	seed      int64
	templates []serviceTemplate
	dir       string
	ls        *layerStats

	srv        *censusd.Server
	stopServer context.CancelFunc
	hs         *http.Server
	served     chan error
	base       string
	client     *http.Client

	worker     *workerTrace
	stopWorker context.CancelFunc
	workerDone chan error

	traceOnce sync.Once
	health0   serviceHealth
}

func newService(seed int64, templates []serviceTemplate, tr *tracer, ls *layerStats) (_ *service, err error) {
	for _, t := range templates {
		if pinFor("service/"+t.Name) == nil {
			return nil, fmt.Errorf("no pinned census for service template %s", t.Name)
		}
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(buildDir, "service-")
	if err != nil {
		return nil, err
	}
	s := &service{seed: seed, templates: templates, dir: dir, ls: ls}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	quiet := func(string, ...any) {}
	srv, err := censusd.New(censusd.Config{
		Dir: filepath.Join(dir, "store"), Workers: 1,
		LeaseTTL: serviceLeaseTTL, WorkerPoll: serviceWorkerPoll, Logf: quiet,
	})
	if err != nil {
		return nil, err
	}
	sctx, stop := context.WithCancel(context.Background())
	s.srv, s.stopServer = srv, stop
	srv.Start(sctx)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.hs = &http.Server{Handler: srv.Handler()}
	s.served = make(chan error, 1)
	go func() { s.served <- s.hs.Serve(ln) }()
	s.base = "http://" + ln.Addr().String()
	s.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}, Timeout: time.Minute}

	s.worker = &workerTrace{base: &http.Transport{MaxIdleConnsPerHost: 2}, tr: tr, ls: ls, jobs: map[string]*openSpan{}}
	w := &distcensus.Worker{
		ID:     "perfbench-worker",
		Dir:    filepath.Join(dir, "worker"),
		Client: &distcensus.Client{Base: s.base, HTTP: &http.Client{Transport: s.worker, Timeout: 10 * time.Second}},
		Build:  s.worker.build,
		Logf:   quiet,
	}
	wctx, stopWorker := context.WithCancel(context.Background())
	s.stopWorker = stopWorker
	s.workerDone = make(chan error, 1)
	go func() { s.workerDone <- w.Run(wctx) }()

	ctx := context.Background()
	if err := s.awaitWorker(ctx); err != nil {
		return nil, err
	}
	// Warm-up: every template once. These jobs are the targets of the
	// resubmissions in the timed sequence.
	for t := range templates {
		if err := s.run(ctx, serviceItem{Template: t}, -1, nil); err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", templates[t].Name, err)
		}
	}
	return s, nil
}

// awaitWorker waits until the coordinator has heard from the worker, so
// every job is distributed from the first one on.
func (s *service) awaitWorker(ctx context.Context) error {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		h, err := s.health(ctx)
		if err != nil {
			return err
		}
		if h.WorkersLive > 0 {
			return nil
		}
		time.Sleep(servicePoll)
	}
	return errors.New("worker did not register within 10s")
}

// close stops the worker, drains the server and removes the directory.
func (s *service) close() error {
	if s.stopWorker != nil {
		s.stopWorker()
		<-s.workerDone
	}
	if s.stopServer != nil {
		s.stopServer()
		s.srv.Drain()
	}
	if s.hs != nil {
		s.hs.Close()
		<-s.served
	}
	if s.client != nil {
		s.client.CloseIdleConnections()
	}
	if s.worker != nil {
		s.worker.base.CloseIdleConnections()
	}
	return os.RemoveAll(s.dir)
}

// request is the census request of item; i is the op index (-1 for the
// warm-up). Each fresh job gets its own identity through a maxruns
// offset above its run count, so the cap never applies; a resubmission
// repeats its template's warm-up identity, offset 0.
func (s *service) request(it serviceItem, i int64) (censusd.Request, *pinnedCensus) {
	t := s.templates[it.Template]
	want := pinFor("service/" + t.Name)
	req := t.Req
	req.FaultModes = append([]string(nil), t.Req.FaultModes...)
	offset := 0
	if !it.Resubmit {
		offset = int(i + 1)
	}
	req.MaxRuns = want.Complete + want.Incomplete + 1 + offset
	return req, want
}

func (s *service) op(ctx context.Context, i int64, sp *openSpan) error {
	if sp != nil {
		// The /healthz counters are daemon-lifetime totals; the traced
		// window reports their growth from its first op on. Should this
		// read fail, the totals are reported whole.
		s.traceOnce.Do(func() { s.health0, _ = s.health(ctx) })
	}
	return s.run(ctx, serviceSequence(s.seed, len(s.templates), i), i, sp)
}

// run submits one job and waits until it settles, then checks its
// census against the pin.
func (s *service) run(ctx context.Context, it serviceItem, i int64, sp *openSpan) error {
	req, want := s.request(it, i)
	norm := req
	norm.FaultModes = append([]string(nil), req.FaultModes...)
	if err := norm.Normalize(); err != nil {
		return err
	}
	id := norm.ID()
	if sp != nil {
		s.worker.track(id, sp)
		defer s.worker.untrack(id)
	}

	t0 := time.Now()
	sub := sp.child("censusd.submit")
	code, job, err := s.call(ctx, http.MethodPost, "/jobs", req)
	sub.end()
	submitMs := msSince(t0)
	switch {
	case err != nil:
		return fmt.Errorf("submit: %w", err)
	case code == http.StatusTooManyRequests:
		s.ls.add("censusd.shed", 1)
		return errShed
	}
	cached := code == http.StatusOK && job.State == censusd.StateDone
	if cached != it.Resubmit {
		return fmt.Errorf("job %s: resubmission %v but served from the cache %v (HTTP %d, %s)", id, it.Resubmit, cached, code, job.State)
	}
	for job.State != censusd.StateDone && job.State != censusd.StateFailed && job.State != censusd.StateCancelled {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(servicePoll):
		}
		poll := sp.child("censusd.poll")
		code, job, err = s.call(ctx, http.MethodGet, "/jobs/"+id, nil)
		poll.end()
		if err != nil {
			return fmt.Errorf("poll: %w", err)
		}
		if code != http.StatusOK {
			return fmt.Errorf("poll: HTTP %d", code)
		}
	}
	seen := time.Now()
	if job.State != censusd.StateDone {
		return fmt.Errorf("job %s ended %s: %s", id, job.State, job.Error)
	}
	if err := gate(job.Result, want, req.MaxRuns); err != nil {
		return fmt.Errorf("job %s (%s): %w", id, s.templates[it.Template].Name, err)
	}
	if sp == nil {
		return nil
	}
	s.ls.sample("censusd.submit_ms", submitMs)
	if cached {
		s.ls.add("censusd.cache_hits", 1)
		s.ls.sample("censusd.cache_ms", msSince(t0))
		return nil
	}
	s.ls.add("censusd.jobs", 1)
	if job.StartedAt != nil && job.FinishedAt != nil {
		s.ls.sample("censusd.queue_ms", ms(job.StartedAt.Sub(job.SubmittedAt)))
		s.ls.sample("censusd.run_ms", ms(job.FinishedAt.Sub(*job.StartedAt)))
		s.ls.sample("censusd.result_lag_ms", ms(seen.Sub(*job.FinishedAt)))
	}
	if ck := job.Checkpoint; ck != nil {
		s.ls.add("censusd.roots", float64(ck.TotalRoots))
		s.ls.add("censusd.saves", float64(ck.Saves))
	}
	return nil
}

// call makes one JSON request to the daemon's job API. A 2xx answer is
// decoded as a job view; 429 is returned as a code with no error, any
// other status as an error.
func (s *service) call(ctx context.Context, method, path string, body any) (int, *censusd.Job, error) {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return 0, nil, err
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, s.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, err
	}
	switch {
	case resp.StatusCode == http.StatusTooManyRequests:
		return resp.StatusCode, nil, nil
	case resp.StatusCode/100 != 2:
		return resp.StatusCode, nil, fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	var job censusd.Job
	if err := json.Unmarshal(data, &job); err != nil {
		return resp.StatusCode, nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	return resp.StatusCode, &job, nil
}

// serviceHealth is the part of GET /healthz the benchmark reads.
type serviceHealth struct {
	WorkersLive   int   `json:"workers_live"`
	RemoteRoots   int64 `json:"remote_roots"`
	LeaseExpiries int64 `json:"lease_expiries"`
	StaleResults  int64 `json:"stale_results"`
	DupResults    int64 `json:"duplicate_results"`
}

func (s *service) health(ctx context.Context) (serviceHealth, error) {
	var h serviceHealth
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/healthz", nil)
	if err != nil {
		return h, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return h, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return h, fmt.Errorf("healthz: HTTP %d", resp.StatusCode)
	}
	return h, json.NewDecoder(resp.Body).Decode(&h)
}

func (s *service) layers(tw tracedWindow, m metrics) error {
	ls, ops := s.ls, float64(tw.ops)
	h, err := s.health(context.Background())
	if err != nil {
		return err
	}
	h0 := s.health0
	m.set("censusd.submit_ms.p50", ls.p50("censusd.submit_ms"), "ms")
	m.set("censusd.queue_ms.p50", ls.p50("censusd.queue_ms"), "ms")
	m.set("censusd.run_ms.p50", ls.p50("censusd.run_ms"), "ms")
	m.set("censusd.result_lag_ms.p50", ls.p50("censusd.result_lag_ms"), "ms")
	m.set("censusd.cache_ms.p50", ls.p50("censusd.cache_ms"), "ms")
	m.set("censusd.cache_hits", ls.sum("censusd.cache_hits"), "count")
	m.set("censusd.shed", ls.sum("censusd.shed"), "count")
	jobs := ls.sum("censusd.jobs")
	m.set("censusd.roots_per_job", ratio(ls.sum("censusd.roots"), jobs), "count")
	m.set("censusd.checkpoint_saves_per_job", ratio(ls.sum("censusd.saves"), jobs), "count")
	kb, n, err := storeSize(filepath.Join(s.dir, "store"))
	if err != nil {
		return err
	}
	m.set("censusd.store_kb_per_job", ratio(kb, n), "KB")
	m.set("censusd.remote_roots", float64(h.RemoteRoots-h0.RemoteRoots), "count")
	m.set("censusd.lease_expiries", float64(h.LeaseExpiries-h0.LeaseExpiries), "count")
	m.set("censusd.stale_results", float64(h.StaleResults-h0.StaleResults), "count")
	m.set("censusd.duplicate_results", float64(h.DupResults-h0.DupResults), "count")

	polls, leases := ls.sum("distcensus.lease_polls"), ls.sum("distcensus.leases")
	m.set("distcensus.lease_rtt_ms.p50", ls.p50("distcensus.lease_rtt_ms"), "ms")
	m.set("distcensus.lease_polls", polls/ops, "count/op")
	m.set("distcensus.leases", leases/ops, "count/op")
	m.set("distcensus.lease_yield", ratio(leases, polls), "ratio")
	m.set("distcensus.heartbeat_rtt_ms.p50", ls.p50("distcensus.heartbeat_rtt_ms"), "ms")
	m.set("distcensus.heartbeats", ls.sum("distcensus.heartbeats")/ops, "count/op")
	m.set("distcensus.deliver_rtt_ms.p50", ls.p50("distcensus.deliver_rtt_ms"), "ms")
	m.set("distcensus.deliveries", ls.sum("distcensus.deliveries")/ops, "count/op")
	m.set("distcensus.root_ms.p50", ls.p50("distcensus.root_ms"), "ms")
	consensusLayers(ls, ops, m)
	return nil
}

// storeSize is the size in KB of the job records and checkpoints under
// dir, and the number of job records.
func storeSize(dir string) (kb, jobs float64, err error) {
	err = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		kb += float64(info.Size()) / 1024
		if filepath.Base(filepath.Dir(path)) == "jobs" && strings.HasSuffix(path, ".json") {
			jobs++
		}
		return nil
	})
	return kb, jobs, err
}

// workerTrace is the in-process worker's HTTP transport and job
// builder. While tracing is on it times the lease, heartbeat and
// deliver round trips and wraps each leased root's builder and check;
// the worker explores one root at a time, so the root in flight is
// the one between a granted lease and its delivery.
type workerTrace struct {
	base *http.Transport
	tr   *tracer
	ls   *layerStats

	mu     sync.Mutex
	jobs   map[string]*openSpan // job id → its op's span
	root   *openSpan
	rootT0 time.Time
	builds *callAgg
	checks *callAgg
}

func (w *workerTrace) track(id string, sp *openSpan) {
	w.mu.Lock()
	w.jobs[id] = sp
	w.mu.Unlock()
}

func (w *workerTrace) untrack(id string) {
	w.mu.Lock()
	delete(w.jobs, id)
	w.mu.Unlock()
}

func (w *workerTrace) RoundTrip(req *http.Request) (*http.Response, error) {
	if !w.tr.on.Load() {
		return w.base.RoundTrip(req)
	}
	path := req.URL.Path
	w.mu.Lock()
	root := w.root
	w.mu.Unlock()
	var sp *openSpan
	switch path {
	case distcensus.PathLease:
		sp = w.tr.start("distcensus.lease", -1)
	case distcensus.PathHeartbeat:
		sp = root.child("distcensus.heartbeat")
	case distcensus.PathResult:
		sp = root.child("distcensus.deliver")
	}
	t0 := time.Now()
	resp, err := w.base.RoundTrip(req)
	rtt := msSince(t0)
	sp.end()
	if err != nil {
		return resp, err
	}
	switch path {
	case distcensus.PathLease:
		w.ls.add("distcensus.lease_polls", 1)
		w.ls.sample("distcensus.lease_rtt_ms", rtt)
		if resp.StatusCode != http.StatusOK {
			break
		}
		data, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil {
			return nil, rerr
		}
		resp.Body = io.NopCloser(bytes.NewReader(data))
		w.ls.add("distcensus.leases", 1)
		var l distcensus.Lease
		if json.Unmarshal(data, &l) == nil {
			w.startRoot(l.JobID)
		}
	case distcensus.PathHeartbeat:
		w.ls.add("distcensus.heartbeats", 1)
		w.ls.sample("distcensus.heartbeat_rtt_ms", rtt)
	case distcensus.PathResult:
		w.ls.add("distcensus.deliveries", 1)
		w.ls.sample("distcensus.deliver_rtt_ms", rtt)
		w.endRoot()
	}
	return resp, nil
}

func (w *workerTrace) startRoot(jobID string) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.root = w.jobs[jobID].child("distcensus.root")
	w.rootT0 = time.Now()
	w.builds, w.checks = &callAgg{}, &callAgg{}
}

func (w *workerTrace) endRoot() {
	w.mu.Lock()
	root, t0, builds, checks := w.root, w.rootT0, w.builds, w.checks
	w.root, w.builds, w.checks = nil, nil, nil
	w.mu.Unlock()
	if builds == nil {
		return
	}
	w.ls.sample("distcensus.root_ms", msSince(t0))
	recordConsensus(w.ls, builds, checks)
	root.aggregate("consensus.check", checks)
	root.end()
}

// build is the worker's JobBuilder: the registry's, with the leased
// root's builder and check wrapped while a root is being traced.
func (w *workerTrace) build(raw []byte) (explore.Builder, explore.Options, func(*sim.Result) error, error) {
	b, opts, check, err := censusd.BuildRaw(raw)
	w.mu.Lock()
	root, builds, checks := w.root, w.builds, w.checks
	w.mu.Unlock()
	if err != nil || builds == nil {
		return b, opts, check, err
	}
	return builds.wrapBuilder(b, root), opts, checks.wrapCheck(check), nil
}
