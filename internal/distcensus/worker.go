package distcensus

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/explore"
	"repro/internal/sim"
)

// JobBuilder decodes a leased job request into the exploration it
// names: the system builder, resolved engine options, and the per-run
// verdict check. cmd/censusworker supplies one backed by the shared
// censusd request registry, so worker and coordinator reproduce the
// identical exploration from the identical bytes.
type JobBuilder func(req []byte) (explore.Builder, explore.Options, func(*sim.Result) error, error)

// Worker is the distributed-census worker loop: poll the coordinator
// for a lease, explore the leased subtree with heartbeat renewal and
// local checkpointing, deliver the summary, repeat.
//
// Crash safety: before exploring, the worker persists the lease
// (job, root, generation) to Dir, and the exploration itself
// checkpoints settled sub-roots there, at most once per heartbeat
// interval (TTL/3), so a lease that finishes inside one writes no
// checkpoint. A worker killed mid-lease and restarted over the same Dir
// resumes the subtree from its last save and delivers under the
// RECORDED generation — if the lease expired meanwhile and the
// coordinator requeued the item, the delivery is rejected as stale and
// discarded; the worker never double-counts. A kill costs at most one
// heartbeat interval of walking plus the sub-root in flight, less than
// the TTL the coordinator waits before it requeues the lease.
type Worker struct {
	// ID names this worker to the coordinator.
	ID string
	// Dir holds in-flight lease records and subtree checkpoints.
	Dir string
	// Client talks to the coordinator.
	Client *Client
	// Build decodes leased job requests.
	Build JobBuilder
	// Poll is the sleep between empty lease polls (0: coordinator's
	// suggestion, else 500ms).
	Poll time.Duration
	// Logf receives operational log lines (default os.Stderr).
	Logf func(format string, args ...any)

	ttl time.Duration
}

// inflightRec is the persisted record of one in-flight lease.
type inflightRec struct {
	JobID      string           `json:"job_id"`
	Root       int              `json:"root"`
	Generation int              `json:"generation"`
	OptionsFP  string           `json:"options_fp"`
	Prefix     []explore.Choice `json:"prefix"`
	Request    json.RawMessage  `json:"request"`
}

func (w *Worker) logf(format string, args ...any) {
	if w.Logf != nil {
		w.Logf(format, args...)
		return
	}
	fmt.Fprintf(os.Stderr, "censusworker: "+format+"\n", args...)
}

func (w *Worker) inflightDir() string { return filepath.Join(w.Dir, "inflight") }

func (w *Worker) recPath(jobID string, root int) string {
	return filepath.Join(w.inflightDir(), fmt.Sprintf("%s-%d.json", jobID, root))
}

func (w *Worker) ckPath(jobID string, root int) string {
	return filepath.Join(w.inflightDir(), fmt.Sprintf("%s-%d.ck.json", jobID, root))
}

// saveRec persists an in-flight record atomically (temp + rename).
func (w *Worker) saveRec(rec inflightRec) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	path := w.recPath(rec.JobID, rec.Root)
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

func (w *Worker) dropRec(jobID string, root int, dropCheckpoint bool) {
	_ = os.Remove(w.recPath(jobID, root))
	if dropCheckpoint {
		_ = os.Remove(w.ckPath(jobID, root))
	}
}

// Run is the worker main loop; it returns when ctx is cancelled.
func (w *Worker) Run(ctx context.Context) error {
	if w.ID == "" {
		host, _ := os.Hostname()
		w.ID = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	if err := os.MkdirAll(w.inflightDir(), 0o755); err != nil {
		return err
	}
	reg, err := w.Client.Register(ctx, w.ID)
	if err != nil {
		return fmt.Errorf("register: %w", err)
	}
	w.ttl = time.Duration(reg.LeaseTTLMillis) * time.Millisecond
	poll := w.Poll
	if poll <= 0 {
		poll = time.Duration(reg.PollMillis) * time.Millisecond
	}
	if poll <= 0 {
		poll = 500 * time.Millisecond
	}
	w.logf("registered as %s (lease ttl %v, poll %v)", w.ID, w.ttl, poll)

	// Resume pass: finish and deliver every lease that was in flight
	// when the previous process died. The recorded generation rides
	// along verbatim — the coordinator's generation guard decides
	// whether the work is still wanted (accepted) or was reassigned
	// while we were dead (stale, discarded).
	w.resumeInflight(ctx)

	for ctx.Err() == nil {
		lease, err := w.Client.Lease(ctx, w.ID)
		if err != nil {
			if ctx.Err() != nil {
				break
			}
			w.logf("lease poll: %v", err)
			sleep(ctx, poll)
			continue
		}
		if lease == nil {
			sleep(ctx, poll)
			continue
		}
		w.execute(ctx, lease, false)
	}
	return ctx.Err()
}

// resumeInflight replays every persisted in-flight lease: resume the
// subtree from its checkpoint, deliver under the recorded generation,
// and drop the local state whatever the verdict.
func (w *Worker) resumeInflight(ctx context.Context) {
	entries, err := os.ReadDir(w.inflightDir())
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".json") || strings.HasSuffix(name, ".ck.json") || strings.HasSuffix(name, ".tmp") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(w.inflightDir(), name))
		if err != nil {
			continue
		}
		var rec inflightRec
		if err := json.Unmarshal(data, &rec); err != nil {
			w.logf("resume: dropping unreadable in-flight record %s: %v", name, err)
			_ = os.Remove(filepath.Join(w.inflightDir(), name))
			continue
		}
		w.logf("resume: job %s root %d gen %d (in flight when the previous worker died)",
			rec.JobID, rec.Root, rec.Generation)
		lease := &Lease{
			JobID: rec.JobID, Root: rec.Root, Generation: rec.Generation,
			Prefix: rec.Prefix, Request: rec.Request, OptionsFP: rec.OptionsFP,
			TTLMillis: int(w.ttl / time.Millisecond),
		}
		w.execute(ctx, lease, true)
		if ctx.Err() != nil {
			return
		}
	}
}

// execute explores one leased subtree and delivers its summary.
// resumed marks an attempt replayed from a persisted in-flight record:
// its recorded generation may have been superseded while the worker was
// dead, so a gone heartbeat is expected — the attempt still finishes
// and delivers, and the coordinator's generation guard (not a worker
// pre-check) decides whether the result counts. Live attempts keep the
// opposite behavior: a gone heartbeat means the item was reassigned,
// and finishing would only burn cycles on a result known to be stale.
func (w *Worker) execute(ctx context.Context, lease *Lease, resumed bool) {
	rec := inflightRec{
		JobID: lease.JobID, Root: lease.Root, Generation: lease.Generation,
		OptionsFP: lease.OptionsFP, Prefix: lease.Prefix, Request: lease.Request,
	}
	if err := w.saveRec(rec); err != nil {
		w.logf("job %s root %d: persist in-flight record: %v", lease.JobID, lease.Root, err)
	}
	res := ResultRequest{
		WorkerID: w.ID, JobID: lease.JobID, Root: lease.Root, Generation: lease.Generation,
	}

	b, opts, check, err := w.prepare(lease)
	if err != nil {
		res.Err = err.Error()
		w.deliver(ctx, res, true)
		return
	}

	// Heartbeat renewal, gated on engine progress: a wedged exploration
	// stops beating, renewal stops, the lease expires, and the
	// coordinator requeues the item — the distributed stall watchdog.
	attemptCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var beats atomic64
	revoked := make(chan struct{})
	hbDone := make(chan struct{})
	ttl := time.Duration(lease.TTLMillis) * time.Millisecond
	if ttl <= 0 {
		ttl = w.ttl
	}
	interval := ttl / 3
	if interval <= 0 {
		interval = time.Second
	}
	go func() {
		defer close(hbDone)
		t := time.NewTicker(interval)
		defer t.Stop()
		last := int64(-1)
		for {
			select {
			case <-attemptCtx.Done():
				return
			case <-t.C:
				cur := beats.load()
				if cur == last {
					continue // no progress: let the lease run down
				}
				last = cur
				err := w.Client.Heartbeat(attemptCtx, HeartbeatRequest{
					WorkerID: w.ID, JobID: lease.JobID, Root: lease.Root, Generation: lease.Generation,
				})
				if IsGone(err) {
					if resumed {
						w.logf("job %s root %d gen %d: recorded lease no longer live; finishing anyway (the generation guard settles it)",
							lease.JobID, lease.Root, lease.Generation)
						return
					}
					w.logf("job %s root %d gen %d: lease revoked; abandoning attempt",
						lease.JobID, lease.Root, lease.Generation)
					close(revoked)
					cancel()
					return
				}
				if err != nil && attemptCtx.Err() == nil {
					w.logf("job %s root %d: heartbeat: %v", lease.JobID, lease.Root, err)
				}
			}
		}
	}()

	summary, stats, exploreErr := explore.ExploreSubtree(attemptCtx, b, opts, check, lease.Prefix,
		explore.Checkpoint{Path: w.ckPath(lease.JobID, lease.Root), Every: 1, Interval: interval, Resume: true},
		beats.bump)
	cancel()
	<-hbDone

	select {
	case <-revoked:
		// The item was reassigned. Keep the subtree checkpoint — a
		// re-lease of the same root resumes from it — but drop the
		// lease record: its generation is dead.
		w.dropRec(lease.JobID, lease.Root, false)
		return
	default:
	}
	if exploreErr != nil {
		if ctx.Err() != nil {
			// Shutdown mid-lease: keep everything; the restarted worker
			// resumes and delivers.
			return
		}
		res.Err = exploreErr.Error() // ExploreSubtree prefixes its errors "explore: "
		w.deliver(ctx, res, true)
		return
	}
	if stats.Resumed > 0 {
		w.logf("job %s root %d: resumed %d/%d sub-roots from local checkpoint",
			lease.JobID, lease.Root, stats.Resumed, stats.SubRoots)
	}
	res.Summary = summary
	w.deliver(ctx, res, true)
}

// prepare decodes a lease into its exploration. Wrong-options refusal,
// across processes: exploring under a different effective reduction
// than the coordinator resolved would corrupt the merge, so a
// fingerprint mismatch is refused and reported instead. A panic while
// building or fingerprinting (the symmetry audit runs the builder) is
// the attempt's error too: delivered, it lets the coordinator requeue
// the root within its budget, where it would kill the worker and replay
// from the in-flight record on every restart.
func (w *Worker) prepare(lease *Lease) (b explore.Builder, opts explore.Options, check func(*sim.Result) error, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("build: panic: %v", r)
		}
	}()
	if b, opts, check, err = w.Build(lease.Request); err != nil {
		return nil, opts, nil, fmt.Errorf("build: %v", err)
	}
	if fp := explore.FingerprintOptions(b, opts); fp != lease.OptionsFP {
		return nil, opts, nil, fmt.Errorf("options fingerprint mismatch (worker %q, coordinator %q)", fp, lease.OptionsFP)
	}
	return b, opts, check, nil
}

// deliver posts a result and logs the verdict; drop clears the local
// in-flight state afterwards (the item is settled either way: counted
// if accepted, someone else's if stale).
func (w *Worker) deliver(ctx context.Context, res ResultRequest, drop bool) {
	status, err := w.Client.Deliver(ctx, res)
	switch {
	case status == ResultStale:
		w.logf("job %s root %d gen %d: result rejected as stale (item was reassigned); discarded",
			res.JobID, res.Root, res.Generation)
	case err != nil:
		if ctx.Err() == nil {
			w.logf("job %s root %d: deliver: %v", res.JobID, res.Root, err)
		}
		return // keep local state: a restart retries the delivery
	case status == ResultDuplicate:
		w.logf("job %s root %d gen %d: duplicate delivery dropped idempotently",
			res.JobID, res.Root, res.Generation)
	default:
		w.logf("job %s root %d gen %d: delivered (%d complete, %d incomplete)",
			res.JobID, res.Root, res.Generation, res.Summary.Complete, res.Summary.Incomplete)
	}
	if drop {
		w.dropRec(res.JobID, res.Root, true)
	}
}

// atomic64 is the heartbeat progress counter shared between the
// exploring goroutine (bump, via the engine beat hook) and the
// heartbeat goroutine (load).
type atomic64 struct{ v atomic.Int64 }

func (a *atomic64) bump()       { a.v.Add(1) }
func (a *atomic64) load() int64 { return a.v.Load() }

func sleep(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}
