// Command censusworker is the remote worker of the distributed
// census: it registers with a censusd coordinator, leases subtree work
// items, explores them with local checkpointing and heartbeat renewal,
// and delivers partial censuses that the coordinator merges
// bit-identical to a single-process run.
//
// Crash safety: a worker killed mid-lease (SIGKILL) and restarted over
// the same -dir resumes the interrupted subtree from its checkpoint
// and delivers under its recorded lease generation; if the
// coordinator reassigned the item meanwhile, the delivery is rejected
// as stale and discarded — never double-counted. The checkpoint is
// saved at most once per heartbeat interval (a third of the lease TTL),
// so a kill costs at most that much walking plus the sub-root in
// flight, and a lease that finishes sooner is walked again from its
// start. Transient coordinator
// outages (restart, partition) are ridden out with seeded exponential
// backoff.
//
// Quick start (against a running censusd):
//
//	censusworker -coordinator http://127.0.0.1:8347 -dir worker-data
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"repro/internal/censusd"
	"repro/internal/distcensus"
	"repro/internal/runctx"
)

func main() {
	if err := run(); err != nil && err != context.Canceled {
		fmt.Fprintln(os.Stderr, "censusworker:", err)
		os.Exit(1)
	}
}

func run() error {
	coordinator := flag.String("coordinator", "http://127.0.0.1:8347", "coordinator base URL")
	dir := flag.String("dir", "censusworker-data", "in-flight lease records and subtree checkpoints")
	id := flag.String("id", "", "worker id (default hostname-pid)")
	poll := flag.Duration("poll", 0, "lease poll interval (0 = coordinator's suggestion)")
	seed := flag.Int64("seed", 0, "retry-backoff jitter seed (reproducible failure handling)")
	flag.Parse()

	ctx, stop := runctx.WithDrain(context.Background(), 0)
	defer stop()

	w := &distcensus.Worker{
		ID:  *id,
		Dir: *dir,
		Client: &distcensus.Client{
			Base:    *coordinator,
			Backoff: runctx.Backoff{Seed: *seed},
		},
		Build: censusd.BuildRaw,
		Poll:  *poll,
	}
	return w.Run(ctx)
}
