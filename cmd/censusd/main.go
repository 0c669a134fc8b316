// Command censusd runs the census daemon: an HTTP/JSON service that
// accepts census job requests, runs them as supervised checkpointed
// explorations on a bounded worker pool, and persists every job so a
// crash (SIGKILL) or a graceful drain (SIGTERM) never loses work — on
// the next start, in-flight jobs resume from their checkpoints and
// complete bit-identical to uninterrupted runs.
//
// Quick start:
//
//	censusd -dir /var/lib/censusd -addr 127.0.0.1:8347
//	curl -s localhost:8347/jobs -d '{"protocol":"cas","k":4,"n":3}'
//	curl -s localhost:8347/jobs/<id>
//	curl -s localhost:8347/healthz
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/censusd"
	"repro/internal/explore"
	"repro/internal/runctx"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "censusd:", err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", "127.0.0.1:8347", "listen address (host:port; port 0 picks a free port)")
	dir := flag.String("dir", "censusd-data", "job store directory (jobs, results, checkpoints)")
	workers := flag.Int("workers", 2, "concurrent jobs")
	queueDepth := flag.Int("queue", 16, "admission queue depth; submissions beyond it are shed with 429")
	ckEvery := flag.Int("checkpoint-every", 1, "save each job's checkpoint after this many completed subtree roots")
	retries := flag.Int("retries", 0, "attempts per subtree inside each job, local or leased, before it is written off (0 = default 6)")
	stallTimeout := flag.Duration("stall-timeout", 0, "per-job stall watchdog: requeue a subtree whose worker makes no progress for this long (0 = off)")
	leaseTTL := flag.Duration("lease-ttl", 10*time.Second, "distributed work-item lease duration; an unrenewed lease is requeued")
	workerPoll := flag.Duration("worker-poll", 500*time.Millisecond, "lease-poll interval suggested to registering workers")
	storeMaxJobs := flag.Int("store-max-jobs", 0, "retain at most this many terminal jobs in the result cache, LRU-evicting past it (0 = unbounded)")
	storeMaxBytes := flag.Int64("store-max-bytes", 0, "bound the terminal jobs' on-disk footprint in bytes (0 = unbounded)")
	rate := flag.Float64("rate", 0, "per-client POST /jobs rate limit in requests/second (0 = off)")
	rateBurst := flag.Int("rate-burst", 4, "per-client rate-limit burst size")
	flag.Parse()

	// First SIGINT/SIGTERM drains: stop admitting, checkpoint running
	// jobs at root granularity, persist, exit 0. A second signal — or a
	// SIGKILL at any point — leaves the store in a state the next start
	// recovers from.
	ctx, stop := runctx.WithDrain(context.Background(), 0)
	defer stop()

	srv, err := censusd.New(censusd.Config{
		Dir:             *dir,
		Workers:         *workers,
		QueueDepth:      *queueDepth,
		CheckpointEvery: *ckEvery,
		Supervision: explore.Supervise{
			MaxAttempts:  *retries,
			StallTimeout: *stallTimeout,
		},
		LeaseTTL:      *leaseTTL,
		WorkerPoll:    *workerPoll,
		StoreMaxJobs:  *storeMaxJobs,
		StoreMaxBytes: *storeMaxBytes,
		RatePerSec:    *rate,
		RateBurst:     *rateBurst,
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	// The bound address goes to stdout (port 0 resolves here) so
	// scripts and tests can discover it.
	fmt.Printf("censusd: listening on %s\n", ln.Addr())

	httpSrv := &http.Server{Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	srv.Start(ctx)

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	// Graceful drain: stop accepting HTTP, then wait for the workers to
	// flush checkpoints and persist job states.
	shCtx, shCancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer shCancel()
	_ = httpSrv.Shutdown(shCtx)
	srv.Drain()
	fmt.Println("censusd: drained; all jobs checkpointed")
	return nil
}
