package censusd

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"repro/internal/explore"
)

func intp(v int) *int { return &v }

// waitState polls until the job reaches want or the deadline passes.
func waitState(t *testing.T, s *Server, id, want string) *jobView {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		if v := s.Job(id); v != nil && v.State == want {
			return v
		}
		time.Sleep(10 * time.Millisecond)
	}
	v := s.Job(id)
	t.Fatalf("job %s never reached %q (now %+v)", id, want, v)
	return nil
}

// groundTruth runs the request's census directly (no daemon, no
// supervisor) — the bit-identical reference.
func groundTruth(t *testing.T, req Request) *explore.Census {
	t.Helper()
	if err := req.Normalize(); err != nil {
		t.Fatal(err)
	}
	b, props, err := req.Build()
	if err != nil {
		t.Fatal(err)
	}
	return explore.Run(b, req.Options(), req.Check(props))
}

func assertResultMatches(t *testing.T, label string, got *Result, want *explore.Census) {
	t.Helper()
	if got == nil {
		t.Fatalf("%s: no result", label)
	}
	if got.Complete != want.Complete || got.Incomplete != want.Incomplete ||
		got.ViolationRuns != want.ViolationRuns || got.Exhaustive != want.Exhaustive {
		t.Fatalf("%s: result %d/%d viol=%d ex=%v, want %d/%d viol=%d ex=%v",
			label, got.Complete, got.Incomplete, got.ViolationRuns, got.Exhaustive,
			want.Complete, want.Incomplete, want.ViolationRuns, want.Exhaustive)
	}
	if len(got.Outcomes) != len(want.Outcomes) {
		t.Fatalf("%s: outcomes %v, want %v", label, got.Outcomes, want.Outcomes)
	}
	for k, v := range want.Outcomes {
		if got.Outcomes[k] != v {
			t.Fatalf("%s: outcomes %v, want %v", label, got.Outcomes, want.Outcomes)
		}
	}
}

// TestRequestIdentity: tuning must not shape the identity; tree-shaping
// budgets must; ignored dimensions must normalize away.
func TestRequestIdentity(t *testing.T) {
	base := Request{Protocol: "tas2"}
	if err := base.Normalize(); err != nil {
		t.Fatal(err)
	}
	same := []Request{
		{Protocol: "tas2", K: 7},                              // ignored dimension
		{Protocol: "tas2", Workers: 8, Prune: true},           // tuning
		{Protocol: "tas2", Symmetry: true, SleepSets: true},   // reducers are count-preserving
		{Protocol: "tas2", MaxRuns: DefaultMaxRuns},           // explicit default
		{Protocol: "tas2", Crashes: intp(1), TimeoutSec: 300}, // explicit default + timeout
	}
	for i, r := range same {
		if err := r.Normalize(); err != nil {
			t.Fatal(err)
		}
		if r.ID() != base.ID() {
			t.Fatalf("variant %d: identity %q != base %q", i, r.Identity(), base.Identity())
		}
	}
	diff := []Request{
		{Protocol: "fa2"},
		{Protocol: "tas2", Crashes: intp(0)},
		{Protocol: "tas2", MaxRuns: 12345},
		{Protocol: "tas2", StepLimit: 9},
	}
	for i, r := range diff {
		if err := r.Normalize(); err != nil {
			t.Fatal(err)
		}
		if r.ID() == base.ID() {
			t.Fatalf("variant %d: identity %q collided with base", i, r.Identity())
		}
	}

	// Fault modes are stored by their parsed names, sorted and distinct:
	// a padded duplicate, a blank entry or a comma inside one entry names
	// the job of the canonical list, which normalizes to itself.
	for _, tc := range []struct {
		canon    []string
		identity string
		same     [][]string
	}{
		{[]string{"crash"}, "casdeg k=3 n=2 c=1 f=1 m=crash r=200000 s=0",
			[][]string{{"crash", "crash "}, {" crash"}, {"crash", ""}, {""}, nil}},
		{[]string{"crash", "omission"}, "casdeg k=3 n=2 c=1 f=1 m=crash,omission r=200000 s=0",
			[][]string{{"omission,crash"}, {"omission", "crash", "omission"}}},
	} {
		want := Request{Protocol: "casdeg", K: 3, N: 2, ObjFaults: 1, FaultModes: slices.Clone(tc.canon)}
		if err := want.Normalize(); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(want.FaultModes, tc.canon) || want.Identity() != tc.identity {
			t.Fatalf("canonical modes %q normalized to %q, identity %q; want them unchanged, identity %q",
				tc.canon, want.FaultModes, want.Identity(), tc.identity)
		}
		for _, modes := range tc.same {
			r := Request{Protocol: "casdeg", K: 3, N: 2, ObjFaults: 1, FaultModes: modes}
			if err := r.Normalize(); err != nil {
				t.Fatal(err)
			}
			if r.ID() != want.ID() {
				t.Fatalf("fault modes %q: identity %q, want %q", modes, r.Identity(), want.Identity())
			}
		}
	}

	bad := []Request{
		{Protocol: "nope"},
		{Protocol: "cas"},                         // needs k, n
		{Protocol: "cas", K: 3, N: 3},             // n > k-1
		{Protocol: "cas", K: 20, N: MaxProcs + 1}, // n > MaxProcs
		{Protocol: "sticky", N: MaxProcs + 1},     // n > MaxProcs
		{Protocol: "tas2", ObjFaults: 1},          // not fault-wrapped
		{Protocol: "casdeg", K: 4, N: 2, ObjFaults: 1, FaultModes: []string{"zap"}}, // unknown mode
		{Protocol: "tas2", MaxRuns: -1},
	}
	for i, r := range bad {
		if err := r.Normalize(); err == nil {
			t.Fatalf("bad request %d (%+v) normalized without error", i, r)
		}
	}
}

// TestSubmitRunDedupCache: a job runs to a census bit-identical to the
// direct walk; an identical resubmission never spawns a second
// exploration — it is served from the durable result cache.
func TestSubmitRunDedupCache(t *testing.T) {
	// cas k=4 n=3 is big enough to frontier-split, so the run goes
	// through the supervised checkpoint path and emits progress events.
	req := Request{Protocol: "cas", K: 4, N: 3, Workers: 2}
	want := groundTruth(t, req)

	srv, err := New(Config{Dir: t.TempDir(), Workers: 1, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srv.Start(ctx)

	job, code, err := srv.Submit(req)
	if err != nil || code != http.StatusCreated {
		t.Fatalf("submit: code %d err %v", code, err)
	}
	v := waitState(t, srv, job.ID, StateDone)
	assertResultMatches(t, "first run", v.Result, want)
	if v.Progress == nil || v.Progress.RootsDone == 0 {
		t.Fatalf("no progress events observed: %+v", v.Progress)
	}

	// Identical request (different tuning): cache hit, same job, no new
	// exploration.
	dup, code, err := srv.Submit(Request{Protocol: "cas", K: 4, N: 3, Workers: 1, Symmetry: true})
	if err != nil || code != http.StatusOK {
		t.Fatalf("dup submit: code %d err %v", code, err)
	}
	if dup.ID != job.ID {
		t.Fatalf("duplicate got its own job %s != %s", dup.ID, job.ID)
	}
	if dup.State != StateDone || dup.Result == nil {
		t.Fatalf("duplicate not served from cache: state %s", dup.State)
	}
	if got := len(srv.Jobs()); got != 1 {
		t.Fatalf("%d jobs exist after duplicate submit, want 1", got)
	}
}

// TestAdmissionShedding: with the queue full, new work is shed with a
// retryable 429 — never blocked, never dropped silently — while
// duplicates of queued jobs still attach without consuming capacity.
func TestAdmissionShedding(t *testing.T) {
	srv, err := New(Config{Dir: t.TempDir(), Workers: 1, QueueDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	// No Start: everything stays queued, making admission deterministic.
	a, code, err := srv.Submit(Request{Protocol: "tas2"})
	if err != nil || code != http.StatusCreated {
		t.Fatalf("first: code %d err %v", code, err)
	}
	if _, code, err = srv.Submit(Request{Protocol: "fa2"}); err != nil || code != http.StatusCreated {
		t.Fatalf("second: code %d err %v", code, err)
	}

	// Queue full: distinct identity is shed.
	_, code, err = srv.Submit(Request{Protocol: "queue2"})
	if code != http.StatusTooManyRequests || err == nil {
		t.Fatalf("overload submit: code %d err %v, want 429", code, err)
	}

	// Duplicate of a queued job attaches fine even at capacity.
	dup, code, err := srv.Submit(Request{Protocol: "tas2", Prune: true})
	if err != nil || code != http.StatusOK || dup.ID != a.ID {
		t.Fatalf("dup at capacity: code %d err %v id %s", code, err, dup.ID)
	}

	// Draining: everything is refused with 503.
	ctx, cancel := context.WithCancel(context.Background())
	srv.Start(ctx)
	cancel()
	srv.Drain()
	if _, code, _ = srv.Submit(Request{Protocol: "rw2"}); code != http.StatusServiceUnavailable {
		t.Fatalf("drain submit: code %d, want 503", code)
	}
}

// TestRestartRecovery: jobs persisted by one daemon instance — queued
// or (as after a SIGKILL) running — are recovered by the next one and
// complete bit-identical to direct runs.
func TestRestartRecovery(t *testing.T) {
	dir := t.TempDir()
	reqA := Request{Protocol: "tas2", Workers: 2}
	reqB := Request{Protocol: "fa2", Workers: 2}
	wantA := groundTruth(t, reqA)
	wantB := groundTruth(t, reqB)

	srv1, err := New(Config{Dir: dir, Workers: 1, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Never started: submissions persist as queued, then the process
	// "dies" (srv1 is simply abandoned).
	jobA, _, err := srv1.Submit(reqA)
	if err != nil {
		t.Fatal(err)
	}
	jobB, _, err := srv1.Submit(reqB)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate a kill mid-run for jobB: the store says running, exactly
	// what a SIGKILLed daemon leaves behind.
	jb, err := srv1.store.Load(jobB.ID)
	if err != nil {
		t.Fatal(err)
	}
	jb.State = StateRunning
	if err := srv1.store.Save(jb); err != nil {
		t.Fatal(err)
	}

	srv2, err := New(Config{Dir: dir, Workers: 2, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srv2.Start(ctx)
	va := waitState(t, srv2, jobA.ID, StateDone)
	vb := waitState(t, srv2, jobB.ID, StateDone)
	assertResultMatches(t, "recovered-A", va.Result, wantA)
	assertResultMatches(t, "recovered-B", vb.Result, wantB)
	if vb.Restarts != 1 {
		t.Fatalf("jobB restarts = %d, want 1", vb.Restarts)
	}
}

// TestHTTPAPI drives the real handler over HTTP: submit, status,
// listing, health, and the error paths.
func TestHTTPAPI(t *testing.T) {
	srv, err := New(Config{Dir: t.TempDir(), Workers: 1, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srv.Start(ctx)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	post := func(body string) (*http.Response, map[string]any) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewBufferString(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var m map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatal(err)
		}
		return resp, m
	}

	resp, m := post(`{"protocol":"tas2","workers":2}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST /jobs: %d (%v)", resp.StatusCode, m)
	}
	id, _ := m["id"].(string)
	if id == "" {
		t.Fatalf("no job id in response: %v", m)
	}
	waitState(t, srv, id, StateDone)

	get := func(path string) (int, map[string]any) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var m map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, m
	}

	code, jm := get("/jobs/" + id)
	if code != http.StatusOK || jm["state"] != StateDone || jm["result"] == nil {
		t.Fatalf("GET /jobs/%s: %d %v", id, code, jm["state"])
	}
	if code, _ := get("/jobs/ffffffffffffffff"); code != http.StatusNotFound {
		t.Fatalf("GET missing job: %d, want 404", code)
	}
	code, hm := get("/healthz")
	if code != http.StatusOK || hm["status"] != "ok" {
		t.Fatalf("GET /healthz: %d %v", code, hm)
	}
	if resp, m := post(`{"protocol":"bogus"}`); resp.StatusCode != http.StatusBadRequest || m["error"] == "" {
		t.Fatalf("bad protocol: %d %v", resp.StatusCode, m)
	}
	if resp, _ := post(`not json`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad body: %d, want 400", resp.StatusCode)
	}
}
