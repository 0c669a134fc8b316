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
// (the original walker, kept as VisitReplay; DESIGN.md §5.2 ablates the
// difference). Machine-backed systems are built once and backtracked in
// place from snapshots; other systems are rebuilt by their Builder for
// every probe. Censuses can additionally prune reconverging schedule
// prefixes through a state-fingerprint transposition table (prune.go,
// Options.Prune), and with Options.Workers they split the tree into
// frontier roots explored on one work-stealing pool (steal.go) and
// folded back together in root order (dist.go).
package explore

import (
	"context"
	"fmt"
	"runtime"
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
	// Workers fans a census (Run, RunCheckpointed) out to parallel
	// workers over frontier subtree roots on the work-stealing pool;
	// census totals are identical to the sequential walk. 0 or 1 means
	// sequential; negative means GOMAXPROCS. Visit always walks
	// sequentially.
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
	// beyond it the oldest entries are evicted FIFO. Eviction only
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
	// ForceGoroutines disables the machine fast paths: probes run the
	// goroutine runner even when the builder's system is machine-backed,
	// and the engines' in-place backtracking DFS is never engaged. An
	// execution-strategy switch for cross-checking and ablation — it
	// must not change any count or fingerprint, which the equivalence
	// tests enforce. Excluded from checkpoint keys (like Context, it
	// does not shape the tree).
	ForceGoroutines bool
	// Context, when non-nil, cancels the walk cooperatively: engines
	// check it once per terminal probe (and the pool between item
	// claims), so a cancelled run stops within one probe per worker and
	// reports Census.Cancelled with every already-counted run intact.
	// Excluded from checkpoint keys — it does not shape the tree.
	Context context.Context
	// Supervision configures the pool's supervisor: retry policy for
	// panicked items, the stall watchdog, chaos injection and event
	// telemetry. Nil means the defaults (see Supervise); it never
	// changes which runs a successful walk counts. Sequential walks
	// ignore it (a sequential panic propagates).
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

// WithForceGoroutines enables Options.ForceGoroutines, pinning every
// probe to the goroutine runner for cross-checking the machine paths.
func WithForceGoroutines() Tune {
	return func(o *Options) { o.ForceGoroutines = true }
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
	if o.Symmetry || o.SleepSets {
		o.Prune = true // both reducers live on the transposition table
	}
	return o
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
// was exhaustive (false if stopped early or MaxRuns was hit). Visit is
// always sequential (Options.Workers applies to censuses only): its
// callers rely on the DFS delivery order.
func Visit(b Builder, opts Options, visit func(Outcome) bool) (runs int, exhaustive bool) {
	runs, exhaustive, _ = sequentialVisit(b, opts.withDefaults(), visit)
	return runs, exhaustive
}

func sequentialVisit(b Builder, opts Options, visit func(Outcome) bool) (int, bool, bool) {
	en := &engine{b: b, opts: opts, visit: visit, ctx: opts.Context}
	en.run()
	return en.runs, !en.capped && !en.stopped && !en.cancelled, en.cancelled
}

// VisitReplay is the original exploration engine: one full replay per
// tree node, O(depth) simulated steps each, strictly sequential. It is
// retained as the independent reference implementation — the engine
// cross-check tests compare Visit against it run for run — and for the
// DESIGN.md §5.2 ablation. New code should call Visit.
func VisitReplay(b Builder, opts Options, visit func(Outcome) bool) (runs int, exhaustive bool) {
	opts = opts.withDefaults()
	w := &walker{b: b, opts: opts, visit: visit}
	ok := w.expand(nil, 0, 0)
	return w.runs, ok && !w.capped
}

type walker struct {
	b      Builder
	opts   Options
	visit  func(Outcome) bool
	runs   int
	capped bool
}

// expand replays prefix, then branches on the ready set at its end.
// It returns false to abort the whole walk. Branch order — picks, then
// crash-picks, then fault-picks mode-major — is the canonical child
// order the path engine must reproduce exactly.
func (w *walker) expand(prefix []Choice, crashes, faults int) bool {
	if w.runs >= w.opts.MaxRuns {
		w.capped = true
		return false
	}
	res, ready := w.replay(prefix)
	if !res.Halted || len(prefix) >= w.opts.MaxDepth {
		// Terminal: either the run completed within the prefix, or we
		// are at the depth bound with live processes.
		w.runs++
		sched := make([]Choice, len(prefix))
		copy(sched, prefix)
		return w.visit(Outcome{Schedule: sched, Result: res})
	}
	for _, id := range ready {
		if !w.expand(extend(prefix, Choice{Pick: id}), crashes, faults) {
			return false
		}
	}
	if crashes < w.opts.MaxCrashes {
		for _, id := range ready {
			if !w.expand(extend(prefix, Choice{Pick: id, Crash: true}), crashes+1, faults) {
				return false
			}
		}
	}
	if faults < w.opts.ObjectFaults {
		for _, mode := range w.opts.FaultModes {
			for _, id := range ready {
				if !w.expand(extend(prefix, Choice{Pick: id, Fault: mode}), crashes, faults+1) {
					return false
				}
			}
		}
	}
	return true
}

// extend returns prefix with c appended in a fresh backing array of
// capacity exactly len+1. A plain append(prefix, c) would let sibling
// branches share (and overwrite) one backing array whenever prefix has
// spare capacity — latent even single-threaded, fatal the moment
// prefixes are handed to parallel workers or retained in outcomes.
func extend(prefix []Choice, c Choice) []Choice {
	out := make([]Choice, len(prefix)+1)
	copy(out, prefix)
	out[len(prefix)] = c
	return out
}

// replay runs a fresh system under the given choice prefix and returns
// the result plus the ready set at the halt frontier (nil if complete).
func (w *walker) replay(prefix []Choice) (*sim.Result, []sim.ProcID) {
	return replayPrefix(w.b, w.opts, prefix)
}

// replayPrefix runs a fresh system under the given choice prefix.
func replayPrefix(b Builder, opts Options, prefix []Choice) (*sim.Result, []sim.ProcID) {
	plan := newChoicePlan(prefix)
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

// choicePlan feeds a choice sequence to the runner, acting as
// Scheduler, FaultPlan and ObjectFaultPlan at once. Crash choices are
// consumed by CrashNow (the runner consults faults first at each
// decision point), pick choices by Next; when the sequence is exhausted
// Next halts the run. A fault-pick arms pendingFault in Next, and the
// granted step's Env.Apply collects it through FaultOp — no step
// arithmetic is needed because FaultOp is consulted exactly once per
// granted step.
type choicePlan struct {
	choices      []Choice
	i            int
	pendingFault sim.FaultMode
}

func newChoicePlan(cs []Choice) *choicePlan { return &choicePlan{choices: cs} }

// CrashNow implements sim.FaultPlan: it consumes all consecutive crash
// choices at the current position.
func (p *choicePlan) CrashNow(_ []sim.ProcID, _ int) []sim.ProcID {
	var out []sim.ProcID
	for p.i < len(p.choices) && p.choices[p.i].Crash {
		out = append(out, p.choices[p.i].Pick)
		p.i++
	}
	return out
}

// Next implements sim.Scheduler: it consumes one pick choice, arming
// the step's object fault if the choice carries one.
func (p *choicePlan) Next(ready []sim.ProcID, _ int) sim.ProcID {
	if p.i >= len(p.choices) {
		return sim.Halt
	}
	c := p.choices[p.i]
	p.i++
	for _, r := range ready {
		if r == c.Pick {
			p.pendingFault = c.Fault
			return c.Pick
		}
	}
	return sim.Halt
}

// FaultOp implements sim.ObjectFaultPlan: it hands the armed fault to
// the step being executed and disarms it.
func (p *choicePlan) FaultOp(_ int) sim.FaultMode {
	m := p.pendingFault
	p.pendingFault = sim.FaultNone
	return m
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
	// Errors lists frontier roots permanently lost to worker failures
	// after the supervisor's retry budget (pooled censuses only; a
	// sequential walk lets the panic propagate). A non-empty Errors
	// forces Exhaustive to false: every run counted is real, but
	// coverage is partial. FailedRoots carries the same failures
	// structured.
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
// their stored summaries — counts stay exact. With Options.Workers > 1
// the frontier roots run on the work-stealing pool (steal.go), where
// MaxRuns caps each pool item rather than the whole census.
func Run(b Builder, opts Options, check func(*sim.Result) error) *Census {
	opts = opts.withDefaults()
	var table *pruneTable
	if opts.Prune {
		opts = resolveSymmetry(b, opts)
		table = newPruneTable(opts.PruneTableEntries)
	}
	if opts.workerCount() > 1 {
		if p, ok := newPlan(b, opts, check); ok {
			c, _ := poolCensus(opts.ctx(), p, table, nil, nil)
			return c
		}
	}
	en := &engine{b: b, opts: opts, acc: newSummary(), check: check, table: table, ctx: opts.Context}
	en.run()
	c := censusFrom(en.acc, !en.capped && !en.cancelled)
	c.Cancelled = en.cancelled
	if table != nil {
		c.Prune = table.statsSnapshot()
		opts.markReducers(c.Prune)
	}
	return c
}
