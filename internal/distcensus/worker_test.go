package distcensus

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/explore"
	"repro/internal/sim"
)

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
	var (
		mu      sync.Mutex
		results []ResultRequest
		polls   atomic.Int64
	)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case PathRegister:
			w.Write([]byte(`{"poll_millis":1,"lease_ttl_millis":10000}`))
		case PathLease:
			if n := int(polls.Add(1)); n <= len(leases) {
				json.NewEncoder(w).Encode(leases[n-1])
				return
			}
			w.WriteHeader(http.StatusNoContent)
		case PathResult:
			var res ResultRequest
			if err := json.NewDecoder(r.Body).Decode(&res); err != nil {
				t.Errorf("result body: %v", err)
			}
			mu.Lock()
			results = append(results, res)
			mu.Unlock()
			w.Write([]byte(`{"status":"accepted"}`))
		default:
			w.Write([]byte(`{}`))
		}
	}))
	defer ts.Close()

	w := &Worker{
		ID: "w1", Dir: t.TempDir(), Client: fastClient(ts.URL), Logf: func(string, ...any) {},
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
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- w.Run(ctx) }()
	defer func() {
		cancel()
		if err := <-done; !errors.Is(err, context.Canceled) {
			t.Errorf("worker stopped with %v, want context.Canceled", err)
		}
	}()

	// Every lease delivered, and the worker still polling after them.
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
		mu.Lock()
		n := len(results)
		mu.Unlock()
		if n == len(leases) && polls.Load() > int64(len(leases)+1) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d leases delivered after %d polls", n, len(leases), polls.Load())
		}
	}
	mu.Lock()
	defer mu.Unlock()
	for i, res := range results {
		if res.JobID != leases[i].JobID || !strings.Contains(res.Err, "panic") || !strings.Contains(res.Err, "bug") {
			t.Errorf("delivery %d: job %s err %q, want lease %s's panic as its error", i, res.JobID, res.Err, leases[i].JobID)
		}
	}
}
