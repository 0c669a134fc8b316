// Package explore enumerates schedules of small simulated systems
// exhaustively: every interleaving of process steps and, optionally,
// every placement of a bounded number of crash failures.
//
// The paper leans on impossibility results (FLP for two-process
// read/write consensus, the set-consensus impossibility of Borowsky–
// Gafni/Herlihy–Shavit/Saks–Zaharoglou) that cannot be re-proved
// mechanically here; what can be reproduced is their observable shape
// on concrete protocols: for a given protocol the explorer either finds
// a schedule violating agreement/validity, or exhibits unboundedly long
// bivalent schedules. The election and hierarchy experiments are built
// on this census.
//
// Exploration is path-structured: one execution descends all the way
// to a terminal run, discovering the ready set at each decision point
// on the way down (engine.go), instead of one execution per tree node
// (the original walker, now the tests' VisitReplay oracle; DESIGN.md
// §5.2 ablates the difference). Machine-backed systems are built once and backtracked in
// place from snapshots; other systems are rebuilt by their Builder for
// every probe. Censuses can additionally prune reconverging schedule
// prefixes through a state-fingerprint transposition table (prune.go,
// Options.Prune). Every census runs on one work-stealing pool
// (steal.go): at one worker as a single root, and with Options.Workers
// split into frontier roots folded back together in root order
// (dist.go). Visit alone walks the engine directly, on the caller's
// goroutine.
package explore

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strings"

	"repro/internal/sim"
)

// Builder deterministically constructs a fresh instance of the system
// under exploration. It must produce identical systems on every call.
type Builder func() *sim.System

// Choice is one branch decision: schedule Pick for a step, crash Pick
// (fail-stop) at this decision point, or schedule Pick for a step whose
// object operation misbehaves with fault mode Fault (object faults are
// a schedule dimension exactly like crashes; see internal/faults).
// Crash and Fault are mutually exclusive.
type Choice struct {
	Pick  sim.ProcID
	Crash bool
	Fault sim.FaultMode
}

// String renders the choice compactly ("3", "3†", or "3!c" with the
// fault mode's initial letter).
func (c Choice) String() string {
	if c.Crash {
		return fmt.Sprintf("%d†", c.Pick)
	}
	if c.Fault != sim.FaultNone {
		return fmt.Sprintf("%d!%c", c.Pick, c.Fault.String()[0])
	}
	return fmt.Sprint(c.Pick)
}

// FormatSchedule renders a schedule as "0 1 2† 0 …".
func FormatSchedule(cs []Choice) string {
	parts := make([]string, len(cs))
	for i, c := range cs {
		parts[i] = c.String()
	}
	return strings.Join(parts, " ")
}

// Options tunes an exploration.
type Options struct {
	// MaxDepth bounds schedule length; prefixes reaching it are counted
	// as incomplete runs (evidence of non-termination under adversarial
	// scheduling when the protocol is supposed to be wait-free).
	// Zero means DefaultMaxDepth.
	MaxDepth int
	// MaxCrashes bounds the number of crash choices per schedule.
	MaxCrashes int
	// ObjectFaults bounds the number of object-fault choices per
	// schedule: with a positive budget, every scheduling point also
	// branches into fault-injected variants of each ready process's
	// step, one per mode in FaultModes — enumerated exhaustively,
	// exactly like crash placements.
	ObjectFaults int
	// FaultModes lists the fault modes enumerated when ObjectFaults is
	// positive. Empty means crash-only (sim.FaultCrash).
	FaultModes []sim.FaultMode
	// MaxRuns caps the number of enumerated terminal runs (complete or
	// incomplete) as a safety net. Zero means DefaultMaxRuns.
	MaxRuns int
	// MaxStepsPerProc is forwarded to sim.Config.
	MaxStepsPerProc int
	// Workers is the width of a census's work-stealing pool (Run,
	// RunCheckpointed): above 1 the tree is split into frontier roots
	// the workers share; census totals are identical at every width.
	// 0 or 1 means one worker, which Run gives the whole tree as one
	// root; negative means GOMAXPROCS. Visit ignores it.
	Workers int
	// Prune enables transposition-table pruning in Run censuses: a
	// subtree whose root state (fingerprint + remaining budgets) was
	// already fully explored is credited its stored summary instead of
	// being re-walked. Requires every object in the system to implement
	// sim.StateKeyer; nodes where the system is not fingerprintable are
	// simply not pruned. Census counts are exact (see prune.go);
	// recorded representative violations may come from the first
	// encounter of a shared subtree. Ignored by Visit, which must
	// deliver every run.
	Prune bool
	// PruneTableEntries bounds the transposition table's entry count;
	// at the bound a new entry replaces the entry of its bucket whose
	// subtree took the fewest probes to walk (see prune.go). Eviction only
	// weakens pruning (an evicted subtree is re-walked), never the
	// census counts. Zero means the package default (see prune.go).
	PruneTableEntries int
	// Symmetry enables process-symmetry canonicalization of the
	// transposition keys: states equal up to a process permutation from
	// the protocol's declared group share one table entry, so the walk
	// explores one subtree per symmetry CLASS. Strictly opt-in and
	// verified: the builder's system must carry a sim.Symmetry spec
	// (DeclareSymmetry), which is structurally validated and empirically
	// audited before the first probe — on any failure the census runs
	// unreduced and records why in PruneStats.SymmetryNote, never
	// silently trusting an unsound spec. Census counts, outcome
	// histograms and violation counts are bit-identical to the unreduced
	// walk (stored summaries are published in canonical coordinates and
	// translated back per hit). Implies Prune.
	Symmetry bool
	// SleepSets enables independence (sleep-set/DPOR-style) pruning:
	// when two adjacent plain steps of different processes touch
	// DISTINCT objects they commute exactly, so the sibling order
	// reconverges to the same state — the engine memoizes the reordered
	// node's table key at first visit and credits the sibling subtree
	// straight from the table at backtrack time, skipping the whole
	// replay probe that plain pruning would still pay. Counts are exact
	// (it is the transposition argument applied eagerly); the savings
	// show up as fewer probes, not fewer credited runs. Implies Prune.
	SleepSets bool
	// VerifyFingerprints forwards sim.Config.VerifyFingerprints to every
	// probe: each granted step's incrementally maintained fingerprint
	// vector (plain and, under Symmetry, all |G| canonical words) is
	// cross-checked against a from-scratch recompute, panicking on the
	// first divergence. A soundness audit for the incremental cache —
	// orders of magnitude slower, for verification runs and CI smokes,
	// never for production censuses. It must not change any count or
	// fingerprint, so it is excluded from checkpoint keys.
	VerifyFingerprints bool
	// Context, when non-nil, cancels the walk cooperatively: engines
	// check it once per terminal probe (and the pool between item
	// claims), so a cancelled run stops within one probe per worker and
	// reports Census.Cancelled with every already-counted run intact.
	// Excluded from checkpoint keys — it does not shape the tree.
	Context context.Context
	// Supervision configures the pool's supervisor: retry policy for
	// panicked items, the stall watchdog, chaos injection and event
	// telemetry. Nil means the defaults (see Supervise); it never
	// changes which runs a successful walk counts. It applies to every
	// census at every width; Visit ignores it (a panic in Visit
	// propagates).
	Supervision *Supervise

	// canon is the validated Canonicalizer resolved from the builder's
	// declared symmetry spec (resolveSymmetry); non-nil only when
	// Symmetry survived validation and audit. symNote records why
	// symmetry was refused. Both are plumbing, set by the census entry
	// points, never by callers.
	canon   *sim.Canonicalizer
	symNote string
}

// Tune is a functional option for exploration entry points that take
// fixed Options (hierarchy/election/consensus experiments).
type Tune func(*Options)

// WithWorkers tunes Options.Workers.
func WithWorkers(n int) Tune { return func(o *Options) { o.Workers = n } }

// WithPrune enables Options.Prune.
func WithPrune() Tune { return func(o *Options) { o.Prune = true } }

// WithSymmetry enables Options.Symmetry (which implies Prune).
func WithSymmetry() Tune { return func(o *Options) { o.Symmetry = true } }

// WithSleepSets enables Options.SleepSets (which implies Prune).
func WithSleepSets() Tune { return func(o *Options) { o.SleepSets = true } }

// WithObjectFaults tunes the object-fault budget and, optionally, the
// enumerated modes (crash-only when none given).
func WithObjectFaults(n int, modes ...sim.FaultMode) Tune {
	return func(o *Options) {
		o.ObjectFaults = n
		if len(modes) > 0 {
			o.FaultModes = modes
		}
	}
}

// WithPruneBudget tunes Options.PruneTableEntries.
func WithPruneBudget(entries int) Tune {
	return func(o *Options) { o.PruneTableEntries = entries }
}

// WithStepLimit tunes Options.MaxStepsPerProc: a process exceeding the
// bound is stopped with sim.ErrStepLimit and the run stays countable,
// converting runaway executions into census entries.
func WithStepLimit(n int) Tune {
	return func(o *Options) { o.MaxStepsPerProc = n }
}

// WithVerifyFingerprints enables Options.VerifyFingerprints, auditing
// the incremental fingerprint caches against from-scratch recomputes on
// every granted step of every probe.
func WithVerifyFingerprints() Tune {
	return func(o *Options) { o.VerifyFingerprints = true }
}

// WithContext tunes Options.Context, threading cooperative cancellation
// into entry points that take fixed Options (the hierarchy/election/
// consensus experiment wrappers).
func WithContext(ctx context.Context) Tune {
	return func(o *Options) { o.Context = ctx }
}

// WithSupervision tunes Options.Supervision.
func WithSupervision(s Supervise) Tune {
	return func(o *Options) { o.Supervision = &s }
}

// With returns a copy of o with the tunes applied.
func (o Options) With(tunes ...Tune) Options {
	for _, t := range tunes {
		if t != nil {
			t(&o)
		}
	}
	return o
}

// ctx resolves Options.Context, never returning nil.
func (o Options) ctx() context.Context {
	if o.Context != nil {
		return o.Context
	}
	return context.Background()
}

// workerCount resolves Options.Workers to an actual worker count.
func (o Options) workerCount() int {
	switch {
	case o.Workers < 0:
		return runtime.GOMAXPROCS(0)
	case o.Workers == 0:
		return 1
	default:
		return o.Workers
	}
}

// DefaultMaxDepth bounds schedule length when Options.MaxDepth is 0.
const DefaultMaxDepth = 400

// DefaultMaxRuns bounds run count when Options.MaxRuns is 0.
const DefaultMaxRuns = 1 << 20

func (o Options) withDefaults() Options {
	if o.MaxDepth == 0 {
		o.MaxDepth = DefaultMaxDepth
	}
	if o.MaxRuns == 0 {
		o.MaxRuns = DefaultMaxRuns
	}
	if o.ObjectFaults > 0 && len(o.FaultModes) == 0 {
		o.FaultModes = []sim.FaultMode{sim.FaultCrash}
	}
	// A repeated mode would enumerate its fault choices twice.
	var modes []sim.FaultMode
	for _, m := range o.FaultModes {
		if !slices.Contains(modes, m) {
			modes = append(modes, m)
		}
	}
	o.FaultModes = modes
	if o.Symmetry || o.SleepSets {
		o.Prune = true // both reducers live on the transposition table
	}
	return o
}

// resolve is withDefaults plus, when the census prunes, the symmetry
// audit and the transposition table the walk shares (nil unpruned): its
// keys hold absolute states and remaining budgets, so one table serves
// walks from any prefix.
func (o Options) resolve(b Builder) (Options, *pruneTable) {
	o = o.withDefaults()
	if !o.Prune {
		return o, nil
	}
	o = resolveSymmetry(b, o)
	return o, newPruneTable(o.PruneTableEntries)
}

// Outcome is one terminal run discovered by the explorer.
type Outcome struct {
	// Schedule is the full choice sequence of the run.
	Schedule []Choice
	// Result is the run's result. Result.Halted marks an incomplete run
	// (MaxDepth reached with live processes).
	Result *sim.Result
}

// Visit walks every terminal run reachable under opts in depth-first
// order, calling visit for each; visit returning false stops the walk.
// It returns the number of terminal runs visited and whether the walk
// was exhaustive (false if stopped early or MaxRuns was hit). Visit
// walks the engine directly on the caller's goroutine, never on the
// pool (Options.Workers and Options.Supervision apply to censuses
// only): its callers rely on the DFS delivery order, and a supervised
// retry would deliver runs twice.
func Visit(b Builder, opts Options, visit func(Outcome) bool) (runs int, exhaustive bool) {
	opts = opts.withDefaults()
	en := &engine{b: b, opts: opts, visit: visit, ctx: opts.Context}
	en.run()
	return en.runs, !en.capped && !en.stopped && !en.cancelled
}

// replayPrefix runs a fresh system under the given choice prefix.
func replayPrefix(b Builder, opts Options, prefix []Choice) (*sim.Result, []sim.ProcID) {
	plan := &planCursor{plan: prefix}
	sys := b()
	cfg := sim.Config{
		Scheduler:       plan,
		Faults:          plan,
		MaxStepsPerProc: opts.MaxStepsPerProc,
		MaxTotalSteps:   opts.MaxDepth + 1,
		DisableTrace:    true,
	}
	if opts.ObjectFaults > 0 {
		cfg.ObjectFaults = plan
	}
	res, err := sys.Run(cfg)
	if err != nil {
		// A Builder that yields scheduler misuse is a programming error.
		panic(fmt.Sprintf("explore: replay failed: %v", err))
	}
	return res, res.ReadyAtHalt
}

// planCursor feeds a planned choice sequence to the runner, acting as
// Scheduler, FaultPlan and ObjectFaultPlan at once: the one plan
// replayer behind prefix replay, the engine's prober and the orbit
// keying of frontier roots. Crash choices are consumed by CrashNow (the
// runner consults faults first at each decision point), pick choices by
// Next; as a Scheduler of its own it halts the run once the plan is
// exhausted. A fault-pick arms pendingFault in Next, and the granted
// step collects it through FaultOp — no step arithmetic is needed
// because FaultOp is consulted exactly once per granted step.
type planCursor struct {
	plan    []Choice
	i       int  // next plan index
	crashes int  // crash choices consumed so far
	faults  int  // object-fault choices consumed so far
	dead    bool // a planned pick was not ready (builder bug)
	// pendingFault is armed by Next when the consumed choice carries an
	// object fault and collected by FaultOp from the granted step.
	pendingFault sim.FaultMode
	// crashBuf backs CrashNow's return value, reusable across runs.
	crashBuf []sim.ProcID
}

// FaultOp implements sim.ObjectFaultPlan: it hands the armed fault to
// the step being executed and disarms it.
func (c *planCursor) FaultOp(_ int) sim.FaultMode {
	m := c.pendingFault
	c.pendingFault = sim.FaultNone
	return m
}

// CrashNow implements sim.FaultPlan: it consumes all consecutive
// planned crash choices at the current position. The returned slice is
// reused across calls; the runner consumes it immediately.
func (c *planCursor) CrashNow(_ []sim.ProcID, _ int) []sim.ProcID {
	if c.i >= len(c.plan) || !c.plan[c.i].Crash {
		return nil
	}
	out := c.crashBuf[:0]
	for c.i < len(c.plan) && c.plan[c.i].Crash {
		out = append(out, c.plan[c.i].Pick)
		c.i++
		c.crashes++
	}
	c.crashBuf = out
	return out
}

// Next implements sim.Scheduler: the planned pick, and a halt once the
// plan is exhausted.
func (c *planCursor) Next(ready []sim.ProcID, _ int) sim.ProcID {
	if pick, planned := c.next(ready); planned {
		return pick
	}
	return sim.Halt
}

// next consumes one planned pick, arming the step's object fault if the
// choice carries one. planned is false once the plan is exhausted; a
// planned pick that is not ready marks the cursor dead and halts.
func (c *planCursor) next(ready []sim.ProcID) (pick sim.ProcID, planned bool) {
	if c.i >= len(c.plan) {
		return 0, false
	}
	ch := c.plan[c.i]
	c.i++
	for _, r := range ready {
		if r == ch.Pick {
			c.pendingFault = ch.Fault
			if ch.Fault != sim.FaultNone {
				c.faults++
			}
			return ch.Pick, true
		}
	}
	c.dead = true
	return sim.Halt, true
}

// DecisionFingerprint canonically renders the decided values of a run,
// sorted, e.g. "[1 1 2]". Two runs with the same fingerprint decided
// the same multiset of values.
func DecisionFingerprint(res *sim.Result) string {
	var vals []string
	for _, id := range res.Decided() {
		vals = append(vals, fmt.Sprint(res.Values[id]))
	}
	sort.Strings(vals)
	return "[" + strings.Join(vals, " ") + "]"
}

// Census summarizes an exhaustive exploration.
type Census struct {
	// Complete and Incomplete count terminal runs.
	Complete   int
	Incomplete int
	// Outcomes histograms complete runs by decision fingerprint.
	Outcomes map[string]int
	// Violations holds the first few outcomes failing the check;
	// ViolationRuns counts ALL complete runs that failed it.
	Violations    []Outcome
	ViolationRuns int
	// Exhaustive is false if the walk was truncated by MaxRuns or a
	// count saturated at math.MaxInt.
	Exhaustive bool
	// Errors lists roots permanently lost to worker failures after the
	// supervisor's retry budget, at any width: a one-worker census's one
	// root is lost like any other. A non-empty Errors forces Exhaustive
	// to false: every run counted is real, but coverage is partial.
	// FailedRoots carries the same failures structured.
	Errors      []string
	FailedRoots []RootFailure
	// Cancelled is true when the walk was cut short by Options.Context.
	// Counts remain real but partial — a pooled census includes what
	// the live attempts had walked — and Exhaustive is false.
	Cancelled bool
	// Prune reports transposition-table and work-stealing activity of a
	// pruned census (nil when Options.Prune was off).
	Prune *PruneStats
}

// MaxRecordedViolations bounds Census.Violations.
const MaxRecordedViolations = 5

// Run explores all schedules and classifies every terminal run.
// check, if non-nil, is evaluated on complete runs; a non-nil error
// records the outcome as a violation. With Options.Prune the walk
// skips subtrees whose root state was already censused, crediting
// their stored summaries — counts stay exact. The census runs on the
// work-stealing pool (steal.go), where MaxRuns caps each pool item:
// at one worker the whole tree is one root, and so one item; with
// Options.Workers > 1 the tree is split into frontier roots, falling
// back to the one root when the split would hit MaxRuns.
func Run(b Builder, opts Options, check func(*sim.Result) error) *Census {
	opts, table := opts.resolve(b)
	pl := newPlan(b, opts, check, opts.workerCount() > 1)
	return runPool(opts.ctx(), pl, table, nil, nil, nil, nil).census(pl)
}
