// Package sim provides a deterministic simulator for asynchronous
// shared-memory systems, the computation model of Afek & Stupp,
// "Delimiting the Power of Bounded Size Synchronization Objects"
// (PODC 1994).
//
// A System hosts a set of shared objects (registers, compare&swap
// registers, and any other type implementing Object) and a set of
// processes. A process is either a Program — an ordinary Go function
// on its own host goroutine, which parks in its Env at every shared
// operation — or a Machine, a resumable state machine that names its
// next operation as data. One runner (MachineExec) serves both: at
// each decision point it asks the Scheduler for a ready process and
// executes that process's pending operation as exactly one atomic
// step, then lets the process run its local code up to its next
// operation. Runner and processes alternate in strict lockstep, so a
// run is fully determined by the Scheduler's choices — the same seed
// always yields the same trace.
//
// The model is the standard asynchronous one: processes may be
// arbitrarily slow (the scheduler may starve them) and may fail by
// crashing (fail-stop); a crashed process takes no further steps.
// Wait-freedom of a protocol is checked by bounding the number of steps
// any process may take.
package sim

import (
	"errors"
	"fmt"
)

// ProcID identifies a process within a System. IDs are dense and start
// at zero in spawn order.
type ProcID int

// Value is the type of data held by shared objects and returned by
// operations. Protocols use small ints and immutable composites.
type Value = any

// Program is the code of one process. It runs on its own host
// goroutine and must perform all shared-memory interaction through the
// Env. The returned Value is the process's decision (its output in a
// decision task); returning an error marks the process as failed.
//
// Programs must be deterministic and must not communicate with each
// other except through shared objects.
type Program func(e *Env) (Value, error)

// ErrCrashed is the error recorded for a process that was crashed by
// the fault plan before it decided.
var ErrCrashed = errors.New("sim: process crashed")

// ErrStepLimit is the error recorded for a process that exceeded the
// per-process step bound (a wait-freedom violation under the bound).
var ErrStepLimit = errors.New("sim: per-process step limit exceeded")

// ErrHalted is the error recorded for processes still live when the
// scheduler halted the run.
var ErrHalted = errors.New("sim: run halted by scheduler")

// System is a single-use simulated shared-memory machine. Configure it
// with objects and processes, then call Run exactly once.
type System struct {
	objects map[string]Object
	procs   []*proc
	trace   *Trace
	steps   int
	ran     bool
	// fingerprint enables observation hashing (Config.Fingerprint);
	// objNames caches the sorted object names for StateHash.
	fingerprint bool
	objNames    []string
	// fp is the incremental fingerprint cache (see fingerprint.go);
	// verifyFP (Config.VerifyFingerprints) cross-checks it against
	// from-scratch recomputes on every read. scratch is Config.Scratch,
	// retained so the cache can draw its vectors from it.
	fp       fpState
	verifyFP bool
	scratch  *Scratch
	// objFaults is Config.ObjectFaults, consulted once per step.
	objFaults ObjectFaultPlan
	// symmetry is the protocol's declared process-symmetry spec (see
	// DeclareSymmetry); canon is the validated Canonicalizer installed
	// by Config.Canon for this run. Both nil unless symmetry reduction
	// is in play.
	symmetry *Symmetry
	canon    *Canonicalizer
}

type proc struct {
	id ProcID
	// Exactly one of program and machine is set. A Program talks to the
	// runner over host (see Env.apply); a Machine is called directly.
	program Program
	machine Machine
	host    chan Value
	// obj, op and args are the operation a Program's next granted step
	// performs, published by Env.apply just before it parks (a
	// Machine's is its Pending; see proc.next).
	obj     Object
	op      OpKind
	args    []Value
	steps   int
	value   Value
	err     error
	crashed bool
	done    bool
	// lastStep is the global index of this process's most recent shared
	// step; -1 before its first step. Used to close operation spans.
	lastStep int
	// opHash is the FNV-1a fold of this process's observation history
	// (every operation it performed with its result), maintained only
	// when Config.Fingerprint is set. See System.StateHash.
	opHash uint64
	// permHash[k-1] is opHash as it would be in the execution renamed
	// under the canonicalizer's permutation k (identity elided — it
	// provably equals opHash). Maintained only when Config.Canon is set.
	permHash []uint64
	// spans are the high-level operation spans this process opened;
	// pending are those whose start index is not yet known (no shared
	// step since BeginOp).
	spans   []*Span
	pending []*Span
	// env is this process's Env handle, embedded so starting a Program
	// does not allocate one per process per run.
	env Env
	// argbuf backs the fixed-arity Apply0/1/2 fast paths and a Machine's
	// staged arguments, so common operations need no per-call argument
	// slice.
	argbuf [3]Value
}

// NewSystem returns an empty system.
func NewSystem() *System {
	return &System{
		objects: make(map[string]Object),
		trace:   &Trace{},
	}
}

// Add registers a shared object. It panics if the name is already
// taken: object sets are static protocol structure, and a duplicate is
// a programming error, not a runtime condition.
func (s *System) Add(o Object) {
	name := o.Name()
	if _, ok := s.objects[name]; ok {
		panic(fmt.Sprintf("sim: duplicate object %q", name))
	}
	s.objects[name] = o
}

// Object returns the registered object with the given name, or nil.
func (s *System) Object(name string) Object {
	return s.objects[name]
}

// Spawn adds a process running the given program and returns its ID.
func (s *System) Spawn(p Program) ProcID { return s.spawn(&proc{program: p}) }

func (s *System) spawn(p *proc) ProcID {
	p.id = ProcID(len(s.procs))
	p.lastStep = -1
	p.opHash = fnvOffset64
	s.procs = append(s.procs, p)
	return p.id
}

// SpawnN adds n processes whose programs are produced by f(id).
func (s *System) SpawnN(n int, f func(id ProcID) Program) {
	for i := 0; i < n; i++ {
		s.Spawn(f(ProcID(len(s.procs))))
	}
}

// NumProcs reports the number of spawned processes.
func (s *System) NumProcs() int { return len(s.procs) }

// Config controls a run.
type Config struct {
	// Scheduler picks the next process to step. Defaults to RoundRobin.
	Scheduler Scheduler
	// Faults optionally crashes processes during the run.
	Faults FaultPlan
	// ObjectFaults optionally injects object-level faults: before each
	// step's operation executes, the plan is asked whether that
	// operation misbehaves (see ObjectFaultPlan and Faultable).
	ObjectFaults ObjectFaultPlan
	// MaxStepsPerProc bounds the steps of any single process; a process
	// exceeding it is stopped with ErrStepLimit. Zero means no bound.
	MaxStepsPerProc int
	// MaxTotalSteps bounds the whole run as a safety net against
	// non-terminating protocols. Zero means DefaultMaxTotalSteps.
	MaxTotalSteps int
	// DisableTrace turns off event recording (useful in benchmarks).
	DisableTrace bool
	// Fingerprint enables per-step observation hashing so that
	// System.StateHash is available, mid-run at decision points or on
	// the final state after Run returns. Off by default.
	Fingerprint bool
	// Canon, if set (and Fingerprint is on), additionally maintains the
	// per-permutation observation hashes that System.StateHashCanon
	// needs. The Canonicalizer is read-only and safely shared across
	// concurrent runs; see NewCanonicalizer.
	Canon *Canonicalizer
	// VerifyFingerprints cross-checks the incrementally maintained
	// fingerprints against from-scratch recomputes at every read,
	// panicking on divergence. Debug mode: it restores the O(state)
	// (× |G| for canon) per-probe cost the incremental scheme removes.
	VerifyFingerprints bool
	// OnStep, if set, is called from the runner goroutine after each
	// granted shared-memory step with the cumulative step count. It is
	// the progress-heartbeat hook for exploration supervisors; it must
	// not block and must not touch the System.
	OnStep func(step int)
	// Scratch, if set, supplies reusable buffers for the Result and the
	// fingerprint caches, eliminating per-run allocations in tight
	// exploration loops. The returned Result aliases the Scratch; see
	// the Scratch ownership contract.
	Scratch *Scratch
}

// DefaultMaxTotalSteps is the total step safety bound used when
// Config.MaxTotalSteps is zero.
const DefaultMaxTotalSteps = 1 << 20

// Result reports the outcome of a run.
type Result struct {
	// Values[i] is the decision of process i (nil if it failed).
	Values []Value
	// Errors[i] is non-nil if process i crashed, was halted, exceeded
	// its step bound, returned an error, or performed an illegal
	// operation.
	Errors []error
	// Crashed[i] reports whether process i was crashed by the fault plan.
	Crashed []bool
	// Steps[i] is the number of shared-memory steps process i took.
	Steps []int
	// TotalSteps is the number of shared-memory steps in the run.
	TotalSteps int
	// Halted reports that the scheduler stopped the run early (see
	// Scheduler); ReadyAtHalt lists the processes that were still live.
	Halted      bool
	ReadyAtHalt []ProcID
	// Trace is the recorded event history (nil if disabled).
	Trace *Trace
}

// Decided returns the IDs of processes that produced a decision.
func (r *Result) Decided() []ProcID {
	var ids []ProcID
	for i, err := range r.Errors {
		if err == nil {
			ids = append(ids, ProcID(i))
		}
	}
	return ids
}

// Decisions returns the multiset of decision values of all processes
// that decided, indexed by process.
func (r *Result) Decisions() map[ProcID]Value {
	m := make(map[ProcID]Value, len(r.Values))
	for _, id := range r.Decided() {
		m[id] = r.Values[id]
	}
	return m
}

// DistinctDecisions returns the set of distinct decision values among
// processes that decided. Values must be comparable.
func (r *Result) DistinctDecisions() []Value {
	seen := make(map[Value]bool)
	var out []Value
	for _, id := range r.Decided() {
		v := r.Values[id]
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// Run executes the system to completion under cfg and returns the
// result: StartMachines followed by MachineExec.Run. A System can be
// run only once; rebuild it (deterministically) to replay. Run returns
// an error only on misuse (no processes, second run, or an invalid
// scheduler choice); protocol-level failures are reported per process
// inside the Result.
func (s *System) Run(cfg Config) (*Result, error) {
	m, err := s.StartMachines(cfg)
	if err != nil {
		return nil, err
	}
	return m.Run()
}

// buildResult assembles the Result after a run's scheduling loop ends,
// killing every still-ready process with ErrHalted if the run halted.
func (s *System) buildResult(cfg *Config, ready []ProcID, halted bool) *Result {
	var res *Result
	if cfg.Scratch != nil {
		res = cfg.Scratch.prep(len(s.procs))
	} else {
		res = &Result{
			Values:  make([]Value, len(s.procs)),
			Errors:  make([]error, len(s.procs)),
			Crashed: make([]bool, len(s.procs)),
			Steps:   make([]int, len(s.procs)),
		}
	}
	res.TotalSteps = s.steps
	res.Halted = halted
	res.Trace = s.trace
	if halted {
		if cfg.Scratch != nil {
			res.ReadyAtHalt = cfg.Scratch.haltList(ready)
		} else {
			res.ReadyAtHalt = append([]ProcID(nil), ready...)
		}
		for _, id := range ready {
			s.kill(s.procs[id], ErrHalted)
		}
	}
	for i, p := range s.procs {
		res.Values[i] = p.value
		res.Errors[i] = p.err
		res.Crashed[i] = p.crashed
		res.Steps[i] = p.steps
		if s.trace != nil {
			// Drop spans that never took a shared step: they have no
			// footprint in the run.
			for _, sp := range p.spans {
				if sp.Start >= 0 {
					s.trace.addSpan(sp)
				}
			}
		}
	}
	return res
}

// insertReady inserts id into the sorted ready slice. Ready sets have
// at most NumProcs elements, so a backwards linear scan is both the
// simplest and the fastest ordered insert.
func insertReady(ready []ProcID, id ProcID) []ProcID {
	i := len(ready)
	for i > 0 && ready[i-1] > id {
		i--
	}
	ready = append(ready, 0)
	copy(ready[i+1:], ready[i:])
	ready[i] = id
	return ready
}

// removeReady removes id from the sorted ready slice, reporting whether
// it was present.
func removeReady(ready []ProcID, id ProcID) ([]ProcID, bool) {
	for i, r := range ready {
		if r == id {
			copy(ready[i:], ready[i+1:])
			return ready[:len(ready)-1], true
		}
		if r > id {
			break
		}
	}
	return ready, false
}
