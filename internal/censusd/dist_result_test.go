package censusd

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/distcensus"
	"repro/internal/explore"
	"repro/internal/sim"
)

// TestDistResultRefusesInvalidSummary: a delivered summary the plan
// cannot have produced — here a representative with a fault in a
// fault-free census, which would crash the merge — fails the attempt
// like a worker-reported error: nothing is merged, and the root is
// requeued under a new generation.
func TestDistResultRefusesInvalidSummary(t *testing.T) {
	srv, d := testDistJob(t, 10*time.Second, 6)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	l := d.lease("w1", time.Now())
	bad := explore.RootSummary{Complete: 1, Violations: 1, Reps: [][]explore.Choice{{{Pick: 0, Fault: sim.FaultGarble}}}}
	c := &distcensus.Client{Base: ts.URL}
	status, err := c.Deliver(context.Background(), distcensus.ResultRequest{
		WorkerID: "w1", JobID: d.id, Root: l.Root, Generation: l.Generation, Summary: bad,
	})
	if err != nil || status != distcensus.ResultAccepted {
		t.Fatalf("delivery: status %q err %v, want the failed attempt accepted", status, err)
	}
	v := d.view()
	if v.Resolved != 0 {
		t.Fatalf("invalid summary was merged: %d roots resolved", v.Resolved)
	}
	if v.Requeues != 1 {
		t.Fatalf("requeues = %d, want the invalid delivery's one", v.Requeues)
	}
	if l2 := d.lease("w2", time.Now()); l2 == nil || l2.Root != l.Root || l2.Generation != l.Generation+1 {
		t.Fatalf("re-lease %+v, want root %d under generation %d", l2, l.Root, l.Generation+1)
	}
}
