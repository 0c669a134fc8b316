package explore

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"os"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/internal/durable"
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
// outcomes are persisted as schedules, as every summary keeps them, and
// the census replays the ones it reports, so the file stays small and
// plain JSON.

// Checkpoint configures the checkpoint loop of RunCheckpointed and
// ExploreSubtree.
type Checkpoint struct {
	// Path is the checkpoint file. It is written atomically
	// (temp file + rename), so a kill mid-save leaves the previous
	// checkpoint intact. Empty disables persistence.
	Path string
	// Every saves the file after every Every newly settled roots (plus
	// once at the end if a settled root is still unsaved). Zero means 8.
	Every int
	// Interval, when positive, is the least time between saves: a save,
	// mid-run or final, is due only once the last save — or the start
	// of the walk — is at least Interval old. A walk that ends early
	// (cancelled, stopped, or with a lost root) still flushes every
	// root it settled. Zero saves on the root count alone.
	Interval time.Duration
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
	// Saves counts checkpoint writes.
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
// backoff, the stall watchdog and chaos all as in Run — through the
// checkpoint loop (distPlan.checkpointed): each root is recorded as it
// settles, the file is saved every Checkpoint.Every settled roots, and —
// with Checkpoint.Resume — roots recorded by a previous (interrupted)
// invocation with the same builder and options are credited. The final
// census is bit-identical to Run's in every count; like every pooled
// census, MaxRuns is enforced per pool item rather than globally.
//
// Cancellation through Options.Context stops the pool: settled roots
// are flushed to the checkpoint, and the returned census carries them
// plus whatever the live attempts had walked, with Cancelled set —
// resuming later completes to the identical census. Roots that exhaust
// the supervisor's attempt budget are reported in FailedRoots and
// deliberately NOT persisted, so a resume retries them.
//
// A tree that cannot be frontier-split under MaxRuns is checkpointed
// as a one-root plan: its one root, walked at width 1, is recorded once
// it settles.
func RunCheckpointed(b Builder, opts Options, check func(*sim.Result) error, ck Checkpoint) (*Census, CheckpointStats, error) {
	return runCheckpointed(b, opts, check, ck, nil)
}

// runCheckpointed is RunCheckpointed with seat (nil: none) seating
// remote workers at the census's pool.
func runCheckpointed(b Builder, opts Options, check func(*sim.Result) error, ck Checkpoint, seat *RemoteSeat) (*Census, CheckpointStats, error) {
	opts, table := opts.resolve(b)
	pl := newPlan(b, opts, check, true)
	r, stats, err := pl.checkpointed(table, ck, nil, seat)
	if err != nil {
		return nil, stats, err
	}
	return r.census(pl), stats, nil
}

// checkpointed is the one checkpoint loop, behind RunCheckpointed (with
// or without a remote seat) and ExploreSubtree. It credits the roots
// LoadCheckpoint finds in ck.Path (with ck.Resume), runs the rest on
// the work-stealing pool sharing table, records each root from the
// pool's onSettle, and saves every ck.Every settled roots once the last
// save is ck.Interval old. Mid-run saves are best-effort: a failed one
// leaves its roots unsaved for the next. At the end the loop saves only
// if a settled root is still unsaved and either the walk ended early or
// the last save is ck.Interval old, and that save's error is its error.
// beat, when non-nil, is bumped on every engine step, and seat, when
// non-nil, seats remote workers at the pool. An empty ck.Path loads and
// saves nothing.
func (pl *distPlan) checkpointed(table *pruneTable, ck Checkpoint, beat func(), seat *RemoteSeat) (*pooled, CheckpointStats, error) {
	stats := CheckpointStats{TotalRoots: len(pl.Roots())}
	done := make(map[int]RootSummary)
	var resumed map[int]RootSummary
	if ck.Resume && ck.Path != "" {
		var err error
		if resumed, stats.Warning, err = pl.LoadCheckpoint(ck.Path); err != nil {
			return nil, stats, err
		}
		maps.Copy(done, resumed)
		stats.ResumedRoots = len(resumed)
	}
	every := ck.Every
	if every <= 0 {
		every = 8
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
		last     = time.Now()
	)
	// aged and save run under saveMu, or once the pool is done.
	aged := func() bool { return ck.Interval <= 0 || time.Since(last) >= ck.Interval }
	save := func() error {
		if err := pl.save(ck.Path, done); err != nil {
			return err
		}
		stats.Saves++
		unsaved = 0
		last = time.Now()
		return nil
	}
	var onSettle func(int, RootSummary)
	if ck.Path != "" {
		onSettle = func(i int, r RootSummary) {
			saveMu.Lock()
			done[i] = r
			newly++
			if unsaved++; unsaved >= every && aged() {
				_ = save() // best-effort: a failed save leaves its roots to the next
			}
			stopNow := ck.stopAfterRoots > 0 && newly >= ck.stopAfterRoots && !hookStop
			hookStop = hookStop || stopNow
			saveMu.Unlock()
			if stopNow {
				stop()
			}
		}
	}
	r := runPool(ctx, pl, table, resumed, onSettle, beat, seat)
	stats.Retries = int(r.cfg.stats.Retries.Load())
	stats.Requeues = int(r.cfg.stats.Requeues.Load())
	early := hookStop || r.cancelled || len(r.failures) > 0
	if unsaved > 0 && (early || aged()) {
		if err := save(); err != nil {
			return nil, stats, fmt.Errorf("explore: checkpoint save: %w", err)
		}
	}
	if hookStop {
		return nil, stats, errStopped
	}
	return r, stats, nil
}

// LoadCheckpoint loads a checkpoint file for resume and returns the
// recorded roots it credits. It is the one resume routine — the
// checkpoint loop (RunCheckpointed, census daemon jobs included, and
// ExploreSubtree) goes through it: a missing file is a silent
// fresh start, a corrupt or foreign file is ignored with a warning, and
// a file recording the same exploration under different engine options
// is a hard error. Records carrying the legacy Err field are not
// credited, nor — with a warning — records CheckSummary refuses: those
// roots are explored again.
func (p *distPlan) LoadCheckpoint(path string) (map[int]RootSummary, string, error) {
	f, warn := loadCheckpointTolerant(path)
	switch {
	case f == nil:
		return nil, warn, nil
	case f.Key != p.key:
		// Same exploration tree but different engine options is a hard
		// error: the caller believes they are resuming the run that
		// wrote the checkpoint, and silently starting fresh would
		// explore under the wrong reduction/budget settings. (Files from
		// before the Frontier/Opts split, and one-root and subtree
		// checkpoints, carry no frontier and start fresh with a warning.)
		if p.frontierFP != 0 && f.Frontier == p.frontierFP && f.Opts != "" && f.Opts != p.optsFP {
			return nil, "", fmt.Errorf(
				"explore: checkpoint %s records the same exploration under different engine options (checkpoint %q, this run %q); refusing to resume — rerun with the original options or delete the checkpoint",
				path, f.Opts, p.optsFP)
		}
		return nil, "checkpoint ignored: key mismatch (different builder or options); starting fresh", nil
	}
	done := make(map[int]RootSummary)
	bad, first := 0, -1
	var firstErr error
	for k, v := range f.Done {
		i, err := strconv.Atoi(k)
		if err != nil || i < 0 || i >= len(p.items) || p.items[i].prefix == nil || v.Err != "" {
			continue
		}
		if err := p.CheckSummary(v); err != nil {
			if bad++; first < 0 || i < first {
				first, firstErr = i, err
			}
			continue
		}
		done[i] = v
	}
	if bad > 0 {
		warn = fmt.Sprintf("checkpoint: %d recorded roots not credited (root %d: %v); exploring them again", bad, first, firstErr)
	}
	return done, warn, nil
}

// CheckSummary reports why r cannot be the summary of a root of the
// plan: a negative count, or a representative schedule holding a choice
// the walk never makes — a fault mode outside Options.FaultModes, a
// crash and a fault at once, or a process ID outside the 0..65535 that
// dfsKey encodes. LoadCheckpoint does not credit such a record, and a
// remote seat fails a delivery of one.
func (p *distPlan) CheckSummary(r RootSummary) error {
	if r.Complete < 0 || r.Incomplete < 0 || r.Violations < 0 {
		return errors.New("negative count")
	}
	for key, n := range r.Outcomes {
		if n < 0 {
			return fmt.Errorf("negative count for outcome %s", key)
		}
	}
	for _, sched := range r.Reps {
		for _, c := range sched {
			switch {
			case c.Pick < 0 || c.Pick > 0xffff:
				return fmt.Errorf("representative %s: process %d outside 0..65535", FormatSchedule(sched), c.Pick)
			case c.Fault == sim.FaultNone:
			case c.Crash:
				return fmt.Errorf("representative %s: a crash and a fault at once", FormatSchedule(sched))
			case !slices.Contains(p.opts.FaultModes, c.Fault):
				return fmt.Errorf("representative %s: fault mode %v is not enumerated", FormatSchedule(sched), c.Fault)
			}
		}
	}
	return nil
}

// save persists the settled roots atomically and durably, in the
// standard checkpoint file format.
func (p *distPlan) save(path string, done map[int]RootSummary) error {
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

// saveCheckpoint writes the file durably (durable.WriteFile): a failed
// create, write or fsync leaves the previous file under the final name.
func saveCheckpoint(path string, f *ckFile) error {
	data, err := json.Marshal(f)
	if err != nil {
		return err
	}
	return durable.WriteFile(path, data)
}
