package censusd

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/durable"
)

// Job states. The lifecycle is queued → running → done | failed |
// cancelled, with two recovery edges: a daemon restart re-queues every
// job found running (it was in flight when the process died), and
// resubmitting a failed or cancelled job re-queues it (its checkpoint
// was retained, so it resumes rather than restarts).
const (
	StateQueued    = "queued"
	StateRunning   = "running"
	StateDone      = "done"
	StateFailed    = "failed"
	StateCancelled = "cancelled"
)

// terminalState reports whether state is settled — eligible for
// result-cache eviction and safe to delete.
func terminalState(state string) bool {
	return state == StateDone || state == StateFailed || state == StateCancelled
}

// Job is one census job record — the unit the store persists. Request
// and identity never change after admission; state, progress, and
// result do.
type Job struct {
	ID       string  `json:"id"`
	Identity string  `json:"identity"`
	Request  Request `json:"request"`
	State    string  `json:"state"`
	// Error is the failure detail of a failed job.
	Error string `json:"error,omitempty"`
	// Result is the completed census (the durable result cache).
	Result *Result `json:"result,omitempty"`
	// Checkpoint summarizes the last completed run's recovery stats.
	Checkpoint *CheckpointInfo `json:"checkpoint,omitempty"`

	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at,omitempty"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`
	// Restarts counts how many times a daemon restart re-queued this
	// job while it was running (crash-recovery resumptions).
	Restarts int `json:"restarts,omitempty"`
}

// CheckpointInfo is the per-job slice of explore.CheckpointStats worth
// persisting.
type CheckpointInfo struct {
	TotalRoots   int    `json:"total_roots"`
	ResumedRoots int    `json:"resumed_roots"`
	Saves        int    `json:"saves"`
	Warning      string `json:"warning,omitempty"`
}

// Store is the on-disk job store: one JSON file per job under
// dir/jobs/, one exploration checkpoint per job under
// dir/checkpoints/. Every write is atomic (temp file + fsync + rename)
// so a SIGKILL mid-write leaves the previous record intact.
type Store struct {
	dir string
}

// OpenStore creates/opens the store directories.
func OpenStore(dir string) (*Store, error) {
	for _, d := range []string{filepath.Join(dir, "jobs"), filepath.Join(dir, "checkpoints")} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("censusd: store: %w", err)
		}
	}
	return &Store{dir: dir}, nil
}

// CheckpointPath is where the job's exploration checkpoint lives.
func (s *Store) CheckpointPath(id string) string {
	return filepath.Join(s.dir, "checkpoints", id+".json")
}

func (s *Store) jobPath(id string) string {
	return filepath.Join(s.dir, "jobs", id+".json")
}

// Save persists a job record atomically and durably.
func (s *Store) Save(j *Job) error {
	data, err := json.Marshal(j)
	if err != nil {
		return err
	}
	return durable.WriteFile(s.jobPath(j.ID), data)
}

// Delete removes a job record and its checkpoint (eviction). Missing
// files are fine: eviction is idempotent.
func (s *Store) Delete(id string) {
	_ = os.Remove(s.jobPath(id))
	_ = os.Remove(s.CheckpointPath(id))
}

// Size is the on-disk footprint of one job: record plus checkpoint.
func (s *Store) Size(id string) int64 {
	var total int64
	for _, p := range []string{s.jobPath(id), s.CheckpointPath(id)} {
		if fi, err := os.Stat(p); err == nil {
			total += fi.Size()
		}
	}
	return total
}

// Load reads one job record; os.IsNotExist(err) means no such job.
func (s *Store) Load(id string) (*Job, error) {
	data, err := os.ReadFile(s.jobPath(id))
	if err != nil {
		return nil, err
	}
	var j Job
	if err := json.Unmarshal(data, &j); err != nil {
		return nil, fmt.Errorf("censusd: job %s: %w", id, err)
	}
	return &j, nil
}

// LoadAll reads every job record, skipping (and reporting) corrupt
// ones — a torn write of one record must not take the daemon down.
func (s *Store) LoadAll() (jobs []*Job, warnings []string, err error) {
	entries, err := os.ReadDir(filepath.Join(s.dir, "jobs"))
	if err != nil {
		return nil, nil, err
	}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".json") || strings.HasSuffix(name, ".tmp") {
			continue
		}
		j, err := s.Load(strings.TrimSuffix(name, ".json"))
		if err != nil {
			warnings = append(warnings, fmt.Sprintf("job file %s unreadable, skipped: %v", name, err))
			continue
		}
		jobs = append(jobs, j)
	}
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].SubmittedAt.Before(jobs[b].SubmittedAt) })
	return jobs, warnings, nil
}
