package censusd

import (
	"net/http"
	"testing"

	"repro/internal/durable/durabletest"
)

// TestStoreSaveFaults injects the checkpoint saves' write-side faults —
// a failing create, a short write with ENOSPC, a failing fsync — into
// the job store: Store.Save returns the error, the previous record still
// loads, and Submit answers 500 without queueing the job.
func TestStoreSaveFaults(t *testing.T) {
	for _, fault := range []string{"create", "enospc", "fsync"} {
		t.Run(fault, func(t *testing.T) {
			srv, err := New(Config{Dir: t.TempDir(), Workers: 1, QueueDepth: 4, Logf: func(string, ...any) {}})
			if err != nil {
				t.Fatal(err)
			}
			job, code, err := srv.Submit(Request{Protocol: "tas2"})
			if err != nil || code != http.StatusCreated {
				t.Fatalf("submit before the fault: code %d err %v", code, err)
			}
			durabletest.Inject(t, fault, 1, false)

			changed := *job
			changed.State = StateFailed
			if err := srv.store.Save(&changed); err == nil {
				t.Fatal("a failed save returned no error")
			}
			if got, err := srv.store.Load(job.ID); err != nil || got.State != StateQueued {
				t.Fatalf("previous record: %+v err %v, want it queued", got, err)
			}

			if _, code, err := srv.Submit(Request{Protocol: "fa2"}); err == nil || code != http.StatusInternalServerError {
				t.Fatalf("submit under the fault: code %d err %v, want 500", code, err)
			}
			if h := srv.Health(); h.Queued != 1 || len(srv.Jobs()) != 1 {
				t.Fatalf("%d queued, %d jobs after a refused submit; want the first job alone", h.Queued, len(srv.Jobs()))
			}
		})
	}
}
