package explore

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"

	"repro/internal/sim"
)

// Checkpointed census exploration: long-running censuses periodically
// persist their progress so a killed process can resume instead of
// restarting. The unit of checkpointing is a frontier root (the same
// subtree split every pooled census uses): roots are deterministic
// given the builder and options, each root's census summary is
// self-contained, and a summary is only ever recorded after its root
// settled — every item of its subtree resolved — so a resumed run
// credits recorded roots and re-explores the rest, landing on the exact
// census a single uninterrupted run produces. Representative violation
// outcomes are persisted as schedules and rebuilt by replay on load, so
// the file stays small and plain JSON.

// Checkpoint configures RunCheckpointed.
type Checkpoint struct {
	// Path is the checkpoint file. It is written atomically
	// (temp file + rename), so a kill mid-save leaves the previous
	// checkpoint intact.
	Path string
	// Every saves the file after every Every newly completed roots
	// (plus once at the end). Zero means 8.
	Every int
	// Resume loads Path before exploring, crediting its recorded roots
	// — provided its key matches this builder/options frontier; a
	// mismatched or unreadable file is ignored and the run starts
	// fresh.
	Resume bool

	// stopAfterRoots is a test hook: abort the run (with errStopped)
	// after this many newly completed roots, simulating a kill between
	// checkpoint saves.
	stopAfterRoots int
}

// CheckpointStats reports what a checkpointed run did.
type CheckpointStats struct {
	// TotalRoots is the number of frontier roots to explore; orbit
	// twins, credited from their representative, are not counted.
	TotalRoots int
	// ResumedRoots is how many were credited from the checkpoint file.
	ResumedRoots int
	// Saves counts checkpoint writes (including the final one).
	Saves int
	// Retries and Requeues count supervisor recoveries during the run
	// (failed-attempt retries and watchdog requeues respectively).
	Retries  int
	Requeues int
	// Warning is set when Resume found a file it could not use — a
	// corrupt or unreadable checkpoint, or one keyed to a different
	// exploration. The run starts fresh; a missing file is a normal
	// fresh start and produces no warning.
	Warning string
}

// errStopped reports a run aborted by the stopAfterRoots test hook.
var errStopped = errors.New("explore: checkpointed run stopped")

// ckFile is the checkpoint file layout.
type ckFile struct {
	// Key fingerprints the exploration (options + frontier prefixes):
	// a checkpoint is only resumable into the identical exploration.
	Key uint64 `json:"key"`
	// Frontier and Opts split Key's two ingredients so resume can tell
	// "different exploration" (ignore, start fresh) from "same
	// exploration under different engine options" (refuse loudly: the
	// caller almost certainly forgot a -symmetry/-sleepsets/-objfaults
	// flag, and silently restarting would explore under the wrong
	// reduction). Zero/empty in files from before this split — those
	// degrade to the old ignore-with-warning behavior.
	Frontier uint64                 `json:"frontier,omitempty"`
	Opts     string                 `json:"opts,omitempty"`
	Done     map[string]RootSummary `json:"done"`
}

// RunCheckpointed is Run with periodic progress persistence. It
// explores the frontier roots on the work-stealing pool with
// Options.Workers workers — donation, orbit-twin skipping, retry with
// backoff, the stall watchdog and chaos all as in Run — records each
// root as it settles, saves every Checkpoint.Every settled roots, and —
// with Checkpoint.Resume — credits roots recorded by a previous
// (interrupted) invocation with the same builder and options. The final
// census is bit-identical to Run's, violation representatives
// included; like every pooled census, MaxRuns is enforced per pool item
// rather than globally.
//
// Cancellation through Options.Context stops the pool: settled roots
// are flushed to the checkpoint, and the returned census carries them
// plus whatever the live attempts had walked, with Cancelled set —
// resuming later completes to the identical census. Roots that exhaust
// the supervisor's attempt budget are reported in FailedRoots and
// deliberately NOT persisted, so a resume retries them.
//
// If the tree cannot be frontier-split under MaxRuns, it falls back to
// a plain Run with no checkpointing (stats zero).
func RunCheckpointed(b Builder, opts Options, check func(*sim.Result) error, ck Checkpoint) (*Census, CheckpointStats, error) {
	var stats CheckpointStats
	pl, ok := NewDistPlan(b, opts, check)
	if !ok {
		return Run(b, opts, check), stats, nil
	}
	stats.TotalRoots = len(pl.Roots())
	done := make(map[int]RootSummary)
	var resumed map[int]RootSummary
	if ck.Resume {
		var err error
		if resumed, stats.Warning, err = pl.LoadCheckpoint(ck.Path); err != nil {
			return nil, stats, err
		}
		for i, r := range resumed {
			done[i] = r
		}
		stats.ResumedRoots = len(resumed)
	}
	every := ck.Every
	if every <= 0 {
		every = 8
	}
	var table *pruneTable
	if pl.opts.Prune {
		table = newPruneTable(pl.opts.PruneTableEntries)
	}

	// stop lets the stopAfterRoots test hook cancel the pool through
	// the same path a real kill or deadline takes.
	ctx, stop := context.WithCancel(pl.opts.ctx())
	defer stop()
	var (
		saveMu   sync.Mutex
		unsaved  int
		newly    int
		hookStop bool
	)
	save := func() error { // callers hold saveMu
		if err := pl.SaveCheckpoint(ck.Path, done); err != nil {
			return err
		}
		stats.Saves++
		unsaved = 0
		return nil
	}
	c, cfg := poolCensus(ctx, pl, table, resumed, func(i int, s *summary, capped bool) {
		saveMu.Lock()
		done[i] = s.record(capped)
		newly++
		unsaved++
		if unsaved >= every {
			save() // best-effort mid-run; the final save reports errors
		}
		stopNow := ck.stopAfterRoots > 0 && newly >= ck.stopAfterRoots && !hookStop
		hookStop = hookStop || stopNow
		saveMu.Unlock()
		if stopNow {
			stop()
		}
	})
	stats.Retries = int(cfg.stats.Retries.Load())
	stats.Requeues = int(cfg.stats.Requeues.Load())

	saveMu.Lock()
	err := save()
	saveMu.Unlock()
	if err != nil {
		return nil, stats, fmt.Errorf("explore: checkpoint save: %w", err)
	}
	if hookStop {
		return nil, stats, errStopped
	}
	return c, stats, nil
}

// LoadCheckpoint loads a checkpoint file for resume and returns the
// recorded roots it credits. It is the one resume routine —
// RunCheckpointed, ExploreSubtree and the census daemon's coordinator
// all go through it: a missing file is a silent fresh start, a corrupt
// or foreign file is ignored with a warning, and a file recording the
// same exploration under different engine options is a hard error.
// Records carrying the legacy Err field are not credited.
func (p *DistPlan) LoadCheckpoint(path string) (map[int]RootSummary, string, error) {
	f, warn := loadCheckpointTolerant(path)
	switch {
	case f == nil:
		return nil, warn, nil
	case f.Key != p.key:
		// Same exploration tree but different engine options is a hard
		// error: the caller believes they are resuming the run that
		// wrote the checkpoint, and silently starting fresh would
		// explore under the wrong reduction/budget settings. (Files from
		// before the Frontier/Opts split, and subtree checkpoints, carry
		// neither field and start fresh with a warning.)
		if f.Frontier == p.frontierFP && f.Opts != "" && f.Opts != p.optsFP {
			return nil, "", fmt.Errorf(
				"explore: checkpoint %s records the same exploration under different engine options (checkpoint %q, this run %q); refusing to resume — rerun with the original options or delete the checkpoint",
				path, f.Opts, p.optsFP)
		}
		return nil, "checkpoint ignored: key mismatch (different builder or options); starting fresh", nil
	}
	done := make(map[int]RootSummary)
	for k, v := range f.Done {
		if i, err := strconv.Atoi(k); err == nil && i >= 0 && i < len(p.items) &&
			p.items[i].prefix != nil && v.Err == "" {
			done[i] = v
		}
	}
	return done, "", nil
}

// SaveCheckpoint persists the completed roots atomically and durably,
// in the standard checkpoint file format.
func (p *DistPlan) SaveCheckpoint(path string, done map[int]RootSummary) error {
	f := ckFile{Key: p.key, Frontier: p.frontierFP, Opts: p.optsFP, Done: make(map[string]RootSummary, len(done))}
	for i, r := range done {
		f.Done[strconv.Itoa(i)] = r
	}
	return saveCheckpoint(path, &f)
}

// optionsFingerprint renders the option fields that shape the census —
// budgets and reducers — as a short stable string. It is stored
// verbatim in the checkpoint file so an options mismatch can be
// reported in the error, not just detected.
func optionsFingerprint(opts Options) string {
	return fmt.Sprintf("d%d c%d f%d m%v r%d s%d y%t z%t",
		opts.MaxDepth, opts.MaxCrashes, opts.ObjectFaults, opts.FaultModes,
		opts.MaxRuns, opts.MaxStepsPerProc, opts.Symmetry, opts.SleepSets)
}

// foldString continues an FNV-1a fold over s.
func foldString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

// foldFrontier continues an FNV-1a fold over every frontier item —
// a root's prefix or a leaf's schedule. Builders are functions and
// cannot be hashed directly; the frontier, being the builder's
// observable branching structure down to the split, stands in for it.
// A checkpoint key folds the options string first, then the frontier;
// that order is preserved from earlier releases so their checkpoints
// still resume.
func foldFrontier(h uint64, items []frontierItem) uint64 {
	for _, it := range items {
		if it.prefix != nil {
			h = foldString(h, "|"+FormatSchedule(it.prefix))
		} else {
			h = foldString(h, "|leaf:"+FormatSchedule(it.leaf.Schedule))
		}
	}
	return h
}

// FNV-1a constants (local copy; sim keeps its own unexported ones).
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func loadCheckpoint(path string) (*ckFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f ckFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, err
	}
	return &f, nil
}

// loadCheckpointTolerant loads a checkpoint for resume. A missing file
// is a normal fresh start (nil, no warning); an unreadable or corrupt
// (e.g. truncated) file is tolerated — the run starts fresh and the
// warning says why, instead of failing a resumable run.
func loadCheckpointTolerant(path string) (*ckFile, string) {
	f, err := loadCheckpoint(path)
	switch {
	case err == nil:
		return f, ""
	case os.IsNotExist(err):
		return nil, ""
	default:
		return nil, fmt.Sprintf("checkpoint ignored (unreadable or corrupt: %v); starting fresh", err)
	}
}

// saveCheckpoint writes the file durably: the temp file is fsynced
// before the atomic rename and the parent directory after it, so a
// machine crash cannot surface an empty or stale file under the final
// name despite the rename's atomicity. The directory sync is
// best-effort — not every filesystem supports it.
func saveCheckpoint(path string, f *ckFile) error {
	data, err := json.Marshal(f)
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	tf, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := tf.Write(data); err != nil {
		tf.Close()
		return err
	}
	if err := tf.Sync(); err != nil {
		tf.Close()
		return err
	}
	if err := tf.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	if dir, err := os.Open(filepath.Dir(path)); err == nil {
		_ = dir.Sync()
		dir.Close()
	}
	return nil
}
