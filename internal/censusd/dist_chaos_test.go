package censusd

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// The distributed chaos test: a real coordinator and real censusworker
// binaries, with a worker SIGKILLed mid-lease. The census must still
// complete bit-identical to a direct run (lease expiry requeues the
// orphaned root to the surviving worker), and when the killed worker is
// resurrected over its old state directory, its late delivery must be
// rejected by the generation guard — observable as a stale_results
// bump in /healthz — never double-counted.

// buildWorker compiles cmd/censusworker into dir (with -race iff this
// test binary has it) and returns the binary path.
func buildWorker(t *testing.T, dir string) string {
	t.Helper()
	bin := filepath.Join(dir, "censusworker")
	args := []string{"build"}
	if raceEnabled {
		args = append(args, "-race")
	}
	args = append(args, "-o", bin, "repro/cmd/censusworker")
	cmd := exec.Command("go", args...)
	cmd.Dir = filepath.Join("..", "..")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building censusworker: %v\n%s", err, out)
	}
	return bin
}

// startCoordinator launches censusd with a short lease TTL.
func startCoordinator(t *testing.T, bin, dir string) (string, *exec.Cmd) {
	t.Helper()
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-dir", dir,
		"-workers", "1", "-queue", "8", "-checkpoint-every", "1",
		"-lease-ttl", "2s", "-worker-poll", "100ms")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(stdout)
	addr := ""
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "censusd: listening on "); ok {
			addr = rest
			break
		}
	}
	if addr == "" {
		_ = cmd.Process.Kill()
		t.Fatalf("coordinator never reported its address (scan err %v)", sc.Err())
	}
	go io.Copy(io.Discard, stdout)
	return "http://" + addr, cmd
}

// startWorker launches a censusworker against base over dir.
func startWorker(t *testing.T, bin, base, dir, id string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(bin, "-coordinator", base, "-dir", dir, "-id", id, "-poll", "100ms")
	cmd.Stdout = io.Discard
	cmd.Stderr = io.Discard
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	return cmd
}

func stopProcess(cmd *exec.Cmd) {
	if cmd == nil || cmd.Process == nil {
		return
	}
	_ = cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() { _ = cmd.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		_ = cmd.Process.Kill()
		<-done
	}
}

// inflightRecs reads a worker dir's persisted in-flight lease records
// (root → recorded generation). Records are written atomically
// (temp + rename), so presence implies a complete record.
func inflightRecs(dir string) map[int]int {
	recs := map[int]int{}
	inflight := filepath.Join(dir, "inflight")
	entries, err := os.ReadDir(inflight)
	if err != nil {
		return recs
	}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".json") || strings.HasSuffix(name, ".ck.json") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(inflight, name))
		if err != nil {
			continue
		}
		var rec struct {
			Root       int `json:"root"`
			Generation int `json:"generation"`
		}
		if err := json.Unmarshal(data, &rec); err != nil {
			continue
		}
		recs[rec.Root] = rec.Generation
	}
	return recs
}

// holdsPersistedLease reports whether the job view shows a lease held by
// worker whose in-flight record, under the same generation, the worker
// has persisted in dir.
func holdsPersistedLease(v *jobView, worker, dir string) bool {
	if v.Dist == nil {
		return false
	}
	recs := inflightRecs(dir)
	for _, l := range v.Dist.Leases {
		if gen, persisted := recs[l.Root]; l.Worker == worker && persisted && gen == l.Generation {
			return true
		}
	}
	return false
}

// getHealth fetches /healthz (ok false on transport errors).
func getHealth(base string) (*health, bool) {
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		return nil, false
	}
	defer resp.Body.Close()
	var h health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return nil, false
	}
	return &h, true
}

func TestDistWorkerKillStaleRejection(t *testing.T) {
	if testing.Short() {
		t.Skip("process-level chaos test; skipped in -short")
	}
	scratch := t.TempDir()
	daemonBin := buildDaemon(t, scratch)
	workerBin := buildWorker(t, scratch)

	req := Request{Protocol: "rw3", Workers: 1}
	want := groundTruth(t, req)

	base, coord := startCoordinator(t, daemonBin, filepath.Join(scratch, "store"))
	defer stopProcess(coord)

	w1dir := filepath.Join(scratch, "w1")
	w1 := startWorker(t, workerBin, base, w1dir, "w1")
	w1Stopped := false
	defer func() {
		if !w1Stopped {
			stopProcess(w1)
		}
	}()

	// The coordinator only distributes jobs submitted while a worker is
	// live; wait for w1's registration to land.
	deadline := time.Now().Add(60 * time.Second)
	for {
		if h, ok := getHealth(base); ok && h.WorkersLive >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("worker never registered with the coordinator")
		}
		time.Sleep(20 * time.Millisecond)
	}

	id := submitJob(t, base, req)

	// Wait until w1 genuinely holds a lease AND has persisted the
	// matching in-flight record, then SIGKILL it mid-lease. Gating on
	// the on-disk record (not just the coordinator's lease table)
	// matters: the coordinator records the grant before the worker
	// writes the record, and a kill inside that window would leave the
	// resurrected worker nothing to resume — no late delivery, no
	// stale rejection to observe.
	//
	// The look and the kill are two steps: w1 can deliver the lease it
	// was seen holding before the signal lands and die holding none,
	// which leaves no lease to expire. A dead w1 cannot change the lease
	// table, so the look is repeated after the kill, once any delivery
	// it had in flight has landed; a miss brings w1 back and tries again.
	deadline = time.Now().Add(120 * time.Second)
	killed := false
	for !killed && time.Now().Before(deadline) {
		v, ok := getJob(base, id)
		if ok && v.State == StateDone {
			t.Fatal("job finished before the kill; grow its budget")
		}
		if !ok || !holdsPersistedLease(v, "w1", w1dir) {
			time.Sleep(5 * time.Millisecond)
			continue
		}
		if err := w1.Process.Signal(syscall.SIGKILL); err != nil {
			t.Fatal(err)
		}
		_ = w1.Wait()
		w1Stopped = true
		time.Sleep(100 * time.Millisecond)
		if v, ok := getJob(base, id); ok && holdsPersistedLease(v, "w1", w1dir) {
			killed = true
		} else {
			w1 = startWorker(t, workerBin, base, w1dir, "w1")
			w1Stopped = false
		}
	}
	if !killed {
		t.Fatal("worker never held a lease with a persisted in-flight record")
	}

	// A fresh worker joins; the orphaned lease expires (2s TTL), the
	// root requeues under a bumped generation, and the job completes.
	w2 := startWorker(t, workerBin, base, filepath.Join(scratch, "w2"), "w2")
	defer stopProcess(w2)

	deadline = time.Now().Add(10 * time.Minute)
	var final *jobView
	for {
		if time.Now().After(deadline) {
			t.Fatal("job did not finish after the worker kill")
		}
		v, ok := getJob(base, id)
		if ok && v.State == StateDone {
			final = v
			break
		}
		if ok && v.State == StateFailed {
			t.Fatalf("job failed after worker kill: %s", v.Error)
		}
		time.Sleep(50 * time.Millisecond)
	}
	assertResultMatches(t, "census after worker kill", final.Result, want)

	h, ok := getHealth(base)
	if !ok {
		t.Fatal("healthz unreachable")
	}
	if h.RemoteRoots == 0 {
		t.Fatalf("no roots ran remotely: %+v", h)
	}
	if h.LeaseExpiries == 0 {
		t.Fatalf("the kill produced no lease expiry: %+v", h)
	}
	baselineStale := h.StaleResults

	// Resurrect w1 over its old state directory: it resumes the
	// interrupted subtree from its persisted in-flight record and
	// delivers under the RECORDED (superseded) generation. The
	// coordinator must reject it as stale — the root was re-explored
	// and merged by w2 — and never double-count.
	w1b := startWorker(t, workerBin, base, w1dir, "w1")
	defer stopProcess(w1b)

	deadline = time.Now().Add(4 * time.Minute)
	for {
		if h, ok := getHealth(base); ok && h.StaleResults > baselineStale {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("resurrected worker's late delivery was never rejected as stale")
		}
		time.Sleep(50 * time.Millisecond)
	}

	// The settled census is untouched by the late delivery.
	v, ok := getJob(base, id)
	if !ok {
		t.Fatal("job unreachable after resurrection")
	}
	assertResultMatches(t, "census after stale rejection", v.Result, want)
}
