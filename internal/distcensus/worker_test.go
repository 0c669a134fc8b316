package distcensus

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/durable/durabletest"
	"repro/internal/explore"
	"repro/internal/registers"
	"repro/internal/sim"
)

// coordinator is an httptest stand-in for censusd's worker endpoints:
// it registers workers with a 10 s lease TTL, hands out its leases in
// order and then none, answers heartbeats, and accepts and records
// every delivery.
type coordinator struct {
	*httptest.Server
	leases  int
	polls   atomic.Int64
	mu      sync.Mutex
	results []ResultRequest
}

func newCoordinator(t *testing.T, leases ...Lease) *coordinator {
	c := &coordinator{leases: len(leases)}
	c.Server = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case PathRegister:
			w.Write([]byte(`{"poll_millis":1,"lease_ttl_millis":10000}`))
		case PathLease:
			if n := int(c.polls.Add(1)); n <= len(leases) {
				json.NewEncoder(w).Encode(leases[n-1])
				return
			}
			w.WriteHeader(http.StatusNoContent)
		case PathResult:
			var res ResultRequest
			if err := json.NewDecoder(r.Body).Decode(&res); err != nil {
				t.Errorf("result body: %v", err)
			}
			c.mu.Lock()
			c.results = append(c.results, res)
			c.mu.Unlock()
			w.Write([]byte(`{"status":"accepted"}`))
		default:
			w.Write([]byte(`{}`))
		}
	}))
	t.Cleanup(c.Close)
	return c
}

// delivered returns a copy of the deliveries so far.
func (c *coordinator) delivered() []ResultRequest {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]ResultRequest(nil), c.results...)
}

// idle reports whether the worker polled for a lease after the last
// one: it has executed every lease, resumed ones included, and cleaned
// up after each delivery.
func (c *coordinator) idle() bool { return c.polls.Load() > int64(c.leases) }

// runWorker runs w until done reports true, then stops it. It fails the
// test if that takes 30 s.
func runWorker(t *testing.T, w *Worker, done func() bool) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	stopped := make(chan error, 1)
	go func() { stopped <- w.Run(ctx) }()
	defer func() {
		cancel()
		if err := <-stopped; !errors.Is(err, context.Canceled) {
			t.Errorf("worker stopped with %v, want context.Canceled", err)
		}
	}()
	for deadline := time.Now().Add(30 * time.Second); !done(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the worker did not finish within 30 s")
		}
	}
}

// TestWorkerSurvivesPanickingBuilder: a lease whose exploration panics
// — in the job builder itself, in the symmetry audit of the options
// fingerprint, or in the split of the leased subtree — comes back to the
// coordinator as the attempt's error, and the worker goes on polling.
func TestWorkerSurvivesPanickingBuilder(t *testing.T) {
	panics := func() *sim.System { panic("builder bug") }
	plainFP := explore.FingerprintOptions(panics, explore.Options{})
	leases := []Lease{
		{JobID: "build", Root: 0, Generation: 1, Request: json.RawMessage(`"build"`)},
		{JobID: "fingerprint", Root: 1, Generation: 1, Request: json.RawMessage(`"symmetry"`)},
		{JobID: "split", Root: 2, Generation: 1, Prefix: []explore.Choice{{Pick: 0}},
			Request: json.RawMessage(`"plain"`), OptionsFP: plainFP},
	}
	c := newCoordinator(t, leases...)
	w := &Worker{
		ID: "w1", Dir: t.TempDir(), Client: fastClient(c.URL), Logf: func(string, ...any) {},
		Build: func(req []byte) (explore.Builder, explore.Options, func(*sim.Result) error, error) {
			switch string(req) {
			case `"build"`:
				panic("job builder bug")
			case `"symmetry"`:
				return panics, explore.Options{Prune: true, Symmetry: true}, nil, nil
			}
			return panics, explore.Options{}, nil, nil
		},
	}

	// Every lease delivered, and the worker still polling after them.
	runWorker(t, w, func() bool {
		return len(c.delivered()) == len(leases) && c.polls.Load() > int64(len(leases)+1)
	})
	for i, res := range c.delivered() {
		if res.JobID != leases[i].JobID || !strings.Contains(res.Err, "panic") || !strings.Contains(res.Err, "bug") {
			t.Errorf("delivery %d: job %s err %q, want lease %s's panic as its error", i, res.JobID, res.Err, leases[i].JobID)
		}
		if strings.Count(res.Err, "explore: ") > 1 {
			t.Errorf("delivery %d: err %q carries the \"explore: \" prefix twice", i, res.Err)
		}
	}
}

// wideTree is a three-process tree whose subtree under leasedPrefix
// splits into several sub-roots: each process reads one register three
// times.
func wideTree() *sim.System {
	sys := sim.NewSystem()
	r := registers.NewMWMR("r", 0)
	sys.Add(r)
	sys.SpawnN(3, func(id sim.ProcID) sim.Program {
		return func(e *sim.Env) (sim.Value, error) {
			for i := 0; i < 3; i++ {
				r.Read(e)
			}
			return int(id), nil
		}
	})
	return sys
}

var (
	leasedOpts   = explore.Options{MaxCrashes: 1}
	leasedPrefix = []explore.Choice{{Pick: 2}, {Pick: 0}}
)

// wideLease is a lease of wideTree's subtree under leasedPrefix, and
// wideBuild the job builder that decodes it.
func wideLease(job string) Lease {
	return Lease{JobID: job, Root: 3, Generation: 2, Prefix: leasedPrefix, Request: json.RawMessage(`"wide"`),
		OptionsFP: explore.FingerprintOptions(wideTree, leasedOpts)}
}

func wideBuild([]byte) (explore.Builder, explore.Options, func(*sim.Result) error, error) {
	return wideTree, leasedOpts, nil, nil
}

// wideSummary is the monolithic walk of the leased subtree: the summary
// every split walk of it must deliver.
func wideSummary(t *testing.T) explore.RootSummary {
	t.Helper()
	want, _, err := explore.ExploreSubtree(context.Background(), wideTree, leasedOpts, nil, leasedPrefix, explore.Checkpoint{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// checkDelivered asserts the coordinator got exactly one delivery, the
// exact summary of the lease, and that the worker's in-flight directory
// is empty after it.
func checkDelivered(t *testing.T, c *coordinator, w *Worker, want explore.RootSummary) {
	t.Helper()
	got := c.delivered()
	if len(got) != 1 || got[0].Err != "" || !reflect.DeepEqual(got[0].Summary, want) {
		t.Fatalf("deliveries %+v, want one of summary %+v", got, want)
	}
	left, err := os.ReadDir(w.inflightDir())
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Fatalf("in-flight directory holds %d files after the delivery, want none", len(left))
	}
}

// TestWorkerShortLeaseSavesNothing: a lease that finishes inside its
// heartbeat interval writes no checkpoint, so a worker whose every
// durable write fails still delivers the exact summary of a split lease
// and leaves nothing in flight.
func TestWorkerShortLeaseSavesNothing(t *testing.T) {
	want := wideSummary(t)
	durabletest.Inject(t, "create", 1, false)
	c := newCoordinator(t, wideLease("short"))
	w := &Worker{ID: "w1", Dir: t.TempDir(), Client: fastClient(c.URL), Build: wideBuild, Logf: func(string, ...any) {}}
	runWorker(t, w, c.idle)
	checkDelivered(t, c, w, want)
}

// TestWorkerResumesFlushedCheckpoint: a worker restarted over a
// directory holding an in-flight record and the subtree checkpoint a
// cancelled walk flushed resumes the saved sub-roots and delivers the
// exact summary.
func TestWorkerResumesFlushedCheckpoint(t *testing.T) {
	want := wideSummary(t)
	c := newCoordinator(t)
	var (
		logMu sync.Mutex
		logs  []string
	)
	w := &Worker{ID: "w1", Dir: t.TempDir(), Client: fastClient(c.URL), Build: wideBuild,
		Logf: func(format string, args ...any) {
			logMu.Lock()
			logs = append(logs, fmt.Sprintf(format, args...))
			logMu.Unlock()
		}}
	lease := wideLease("restart")
	if err := os.MkdirAll(w.inflightDir(), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := w.saveRec(inflightRec{JobID: lease.JobID, Root: lease.Root, Generation: lease.Generation,
		OptionsFP: lease.OptionsFP, Prefix: lease.Prefix, Request: lease.Request}); err != nil {
		t.Fatal(err)
	}

	// The killed worker's walk: cancelled halfway through its engine
	// steps, inside its save interval, so its one save is the flush.
	var steps, walked atomic.Int64
	_, _, err := explore.ExploreSubtree(context.Background(), wideTree, leasedOpts, nil, leasedPrefix, explore.Checkpoint{}, func() { steps.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ck := explore.Checkpoint{Path: w.ckPath(lease.JobID, lease.Root), Every: 1, Interval: time.Hour}
	_, killed, err := explore.ExploreSubtree(ctx, wideTree, leasedOpts, nil, leasedPrefix, ck, func() {
		if walked.Add(1) == steps.Load()/2 {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) || killed.Saves != 1 {
		t.Fatalf("cancelled walk: err %v, %d saves; want context.Canceled and one flush", err, killed.Saves)
	}
	data, err := os.ReadFile(ck.Path)
	if err != nil {
		t.Fatal(err)
	}
	var flushed struct {
		Done map[string]json.RawMessage `json:"done"`
	}
	if err := json.Unmarshal(data, &flushed); err != nil {
		t.Fatal(err)
	}
	if n := len(flushed.Done); n == 0 || n >= killed.SubRoots {
		t.Fatalf("the flush recorded %d of %d sub-roots, want some but not all", n, killed.SubRoots)
	}

	runWorker(t, w, c.idle)
	checkDelivered(t, c, w, want)
	resumed := fmt.Sprintf("resumed %d/%d sub-roots", len(flushed.Done), killed.SubRoots)
	logMu.Lock()
	defer logMu.Unlock()
	if !slices.ContainsFunc(logs, func(l string) bool { return strings.Contains(l, resumed) }) {
		t.Fatalf("the worker did not log %q: %q", resumed, logs)
	}
}
