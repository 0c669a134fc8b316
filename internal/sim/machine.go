package sim

import (
	"errors"
	"fmt"
)

// This file is the runner. A process is a Program (a Go function on a
// host goroutine, see env.go) or a Machine: an explicit resumable state
// machine that exposes its next shared operation as data (Pending) and
// advances one operation at a time (Finish). A Program publishes its
// next operation in Env.apply before it parks; a Machine's is its
// Pending. One loop (MachineExec.loop) and one step function
// (MachineExec.step) execute it: argument staging, fault plan, trace,
// fingerprint fold, op-error wrapping. A
// Machine step is a plain function call — no goroutine, no channel
// operation; a Program step adds the two channel operations that hand
// the result to its goroutine and wait for its next operation. Because
// machine-local state lives in a plain struct, a System of Machines can
// also be snapshotted and restored in place, which is what the explore
// package's in-place backtracking DFS builds on.

// MachineOp is the next shared operation a Machine wants to perform,
// described as data. At most two arguments — every operation in this
// repository has arity ≤ 2 (compare&swap) — staged in a fixed array so
// describing an op allocates nothing.
type MachineOp struct {
	// Obj is the target object (a pointer the machine holds, so no
	// name lookup is needed per step).
	Obj Object
	// Op is the operation kind.
	Op OpKind
	// NArgs is how many of Args are meaningful (0, 1 or 2).
	NArgs int
	// Args holds the operation arguments.
	Args [2]Value
}

// Machine is one process expressed as a resumable state machine. The
// contract mirrors a Program parked at its next operation:
//
//   - Pending returns the operation the process will perform when next
//     scheduled. It must be a pure read (no state change) and stable:
//     repeated calls between Finish calls return the same op.
//   - Finish delivers the operation's result and advances the local
//     state. done=true ends the process with the given decision (or
//     error, like a Program returning one); done=false means the
//     machine has a next Pending op.
//   - Save/Restore serialize the machine-local state ("PC + locals")
//     into a Snap arena, enabling in-place backtracking. Restore must
//     leave the machine exactly as it was when Save ran.
//
// A Machine performs at least one shared operation (Pending must be
// valid before the first Finish); a protocol that can decide without
// any shared step must stay a Program. An operation whose result is an
// error kills the process exactly as it would a Program — Finish only
// ever sees successful results. (Failed-object sentinels from the
// faults package arrive as ordinary values.)
type Machine interface {
	Pending() MachineOp
	Finish(result Value) (done bool, decision Value, err error)
	Save(s *Snap)
	Restore(r *SnapReader)
}

// Restorable is implemented by Objects whose state can be saved into a
// Snap and restored in place. Like StateKeyer, the contract is
// observational: after RestoreState the object must be observationally
// identical to when SaveState ran. Implementations should reuse
// internal capacity on restore so steady-state backtracking allocates
// nothing.
type Restorable interface {
	SaveState(s *Snap)
	RestoreState(r *SnapReader)
}

// RestoreProber is an optional refinement for wrapper objects (e.g. a
// fault proxy) whose own Restorable support depends on the wrapped
// object's. Snapshotable consults it when present.
type RestoreProber interface {
	CanRestore() bool
}

// Snap is an append-only snapshot arena: machine words in one slice,
// boxed Values (decisions, errors, register contents) in another.
// Snapshots of nested states share one arena — a consumer records the
// arena lengths before writing a snapshot and truncates back to them
// when the snapshot is popped — so steady-state snapshotting reuses
// capacity and allocates nothing.
type Snap struct {
	words []uint64
	vals  []Value
}

// Len returns the current arena lengths, for later Truncate/ReaderAt.
func (s *Snap) Len() (words, vals int) { return len(s.words), len(s.vals) }

// Truncate drops everything written at or after the given lengths.
func (s *Snap) Truncate(words, vals int) {
	// Clear the dropped Values so the arena does not pin dead objects.
	for i := vals; i < len(s.vals); i++ {
		s.vals[i] = nil
	}
	s.words = s.words[:words]
	s.vals = s.vals[:vals]
}

// Reset empties the arena, keeping capacity.
func (s *Snap) Reset() { s.Truncate(0, 0) }

// Uint64 appends one machine word.
func (s *Snap) Uint64(v uint64) { s.words = append(s.words, v) }

// Uint64s appends a run of machine words in one copy.
func (s *Snap) Uint64s(ws []uint64) { s.words = append(s.words, ws...) }

// Int appends v as its two's-complement word image.
func (s *Snap) Int(v int) { s.Uint64(uint64(v)) }

// Bool appends one word holding 0 or 1.
func (s *Snap) Bool(b bool) {
	if b {
		s.Uint64(1)
	} else {
		s.Uint64(0)
	}
}

// Value appends one boxed value.
func (s *Snap) Value(v Value) { s.vals = append(s.vals, v) }

// ReaderAt returns a cursor positioned at the given arena offsets,
// ready to read back a snapshot written there.
func (s *Snap) ReaderAt(words, vals int) SnapReader {
	return SnapReader{s: s, w: words, v: vals}
}

// SnapReader reads a snapshot back in the order it was written.
type SnapReader struct {
	s    *Snap
	w, v int
}

// Uint64 reads the next machine word.
func (r *SnapReader) Uint64() uint64 {
	v := r.s.words[r.w]
	r.w++
	return v
}

// Uint64s fills dst with the next len(dst) words, the read-back of a
// run written by Snap.Uint64s.
func (r *SnapReader) Uint64s(dst []uint64) {
	r.w += copy(dst, r.s.words[r.w:r.w+len(dst)])
}

// Int reads the next word as an int.
func (r *SnapReader) Int() int { return int(r.Uint64()) }

// Bool reads the next word as a bool.
func (r *SnapReader) Bool() bool { return r.Uint64() != 0 }

// Value reads the next boxed value.
func (r *SnapReader) Value() Value {
	v := r.s.vals[r.v]
	r.v++
	return v
}

// SpawnMachine adds a process driven by the given state machine and
// returns its ID. The runner calls the machine directly: no goroutine,
// no channel operation per step.
func (s *System) SpawnMachine(m Machine) ProcID { return s.spawn(&proc{machine: m}) }

// Snapshotable reports whether the system supports in-place
// backtracking: every process is a Machine and every object is
// Restorable (wrappers additionally passing RestoreProber). Explorers
// use this to choose between the in-place DFS and per-probe rebuilds.
func (s *System) Snapshotable() bool {
	if len(s.procs) == 0 {
		return false
	}
	for _, p := range s.procs {
		if p.machine == nil {
			return false
		}
	}
	for _, o := range s.objects {
		if _, ok := o.(Restorable); !ok {
			return false
		}
		if p, ok := o.(RestoreProber); ok && !p.CanRestore() {
			return false
		}
	}
	return true
}

// MachineExec is a live execution of a System: the one runner behind
// System.Run, for Programs and Machines alike. Unlike Run it is
// re-enterable: explorers alternate Snapshot/Restore with Run episodes
// to walk an execution tree without ever rebuilding a Snapshotable
// system. Obtain one with StartMachines.
type MachineExec struct {
	sys   *System
	cfg   Config
	ready []ProcID
	// rd is Restore's cursor. Handing the machines and objects a
	// pointer to a field, not to Restore's argument, keeps the argument
	// from escaping through those interface calls to the heap.
	rd SnapReader
}

// StartMachines prepares the System for execution under cfg and
// returns its executor. Like Run it consumes the System's single run.
// Every Program starts on its host goroutine and runs up to its first
// operation, so a caller that starts a system with Programs must Run
// it to completion, which ends every host goroutine.
func (s *System) StartMachines(cfg Config) (*MachineExec, error) {
	if s.ran {
		return nil, errors.New("sim: system already ran")
	}
	s.ran = true
	if len(s.procs) == 0 {
		return nil, errors.New("sim: no processes")
	}
	if cfg.Scheduler == nil {
		cfg.Scheduler = RoundRobin()
	}
	if cfg.MaxTotalSteps == 0 {
		cfg.MaxTotalSteps = DefaultMaxTotalSteps
	}
	if cfg.DisableTrace {
		s.trace = nil
	}
	s.fingerprint = cfg.Fingerprint
	s.verifyFP = cfg.VerifyFingerprints
	s.scratch = cfg.Scratch
	s.objFaults = cfg.ObjectFaults
	if cfg.Canon != nil && cfg.Fingerprint {
		s.canon = cfg.Canon
		if np := cfg.Canon.NumPerms() - 1; np > 0 {
			var buf []uint64
			if cfg.Scratch != nil {
				buf = cfg.Scratch.permBuf(np * len(s.procs))
			} else {
				buf = make([]uint64, np*len(s.procs))
			}
			for i := range buf {
				buf[i] = fnvOffset64
			}
			for i, p := range s.procs {
				p.permHash = buf[i*np : (i+1)*np : (i+1)*np]
			}
		}
	}
	m := &MachineExec{sys: s, cfg: cfg, ready: make([]ProcID, 0, len(s.procs))}
	for _, p := range s.procs {
		if p.machine == nil && !s.startHost(p) {
			continue // returned without a shared step
		}
		m.ready = append(m.ready, p.id)
	}
	return m, nil
}

// System returns the underlying system (for StateHash/PendingObject
// observation at decision points).
func (m *MachineExec) System() *System { return m.sys }

// Run executes from the current state until the run ends (all
// processes done, scheduler halt, or step budget) and returns the
// Result. After a Restore it can be called again for the next episode.
func (m *MachineExec) Run() (*Result, error) {
	halted, err := m.loop()
	if err != nil {
		return nil, err
	}
	return m.sys.buildResult(&m.cfg, m.ready, halted), nil
}

// loop is the scheduling loop. At each decision point, while some
// process is ready: the total-step budget, then the fault plan, then
// the scheduler, then the per-process budget. A run whose last process
// finishes ends complete before the budget or the fault plan is asked
// again.
func (m *MachineExec) loop() (halted bool, err error) {
	s, cfg := m.sys, &m.cfg
	for len(m.ready) > 0 {
		if s.steps >= cfg.MaxTotalSteps {
			return true, nil
		}
		if cfg.Faults != nil {
			for _, id := range cfg.Faults.CrashNow(m.ready, s.steps) {
				var ok bool
				if m.ready, ok = removeReady(m.ready, id); ok {
					s.kill(s.procs[id], ErrCrashed)
				}
			}
			if len(m.ready) == 0 {
				break
			}
		}
		next := cfg.Scheduler.Next(m.ready, s.steps)
		if next == Halt {
			return true, nil
		}
		var inSet bool
		if m.ready, inSet = removeReady(m.ready, next); !inSet {
			err := fmt.Errorf("sim: scheduler chose process %d, not in ready set %v", next, m.ready)
			for _, id := range m.ready {
				s.kill(s.procs[id], ErrHalted)
			}
			m.ready = m.ready[:0]
			return false, err
		}
		p := s.procs[next]
		if cfg.MaxStepsPerProc > 0 && p.steps >= cfg.MaxStepsPerProc {
			s.kill(p, ErrStepLimit)
			continue
		}
		fin := m.step(p)
		s.steps++
		if cfg.OnStep != nil {
			cfg.OnStep(s.steps)
		}
		if !fin {
			m.ready = insertReady(m.ready, p.id)
		}
	}
	return false, nil
}

// step executes p's next operation as one granted shared-memory step:
// argument staging, pending spans, fault-plan consultation, error
// wrapping, trace recording and observation folding, then the
// hand-back of the result to the process. It reports whether the
// process finished (decided, errored, or was killed by a rejected
// operation).
func (m *MachineExec) step(p *proc) (finished bool) {
	s := m.sys
	obj, op, args := p.next()
	p.steps++
	idx := s.steps
	for _, sp := range p.pending {
		sp.Start = idx
	}
	p.pending = p.pending[:0]
	p.lastStep = idx
	var v Value
	var err error
	// Consult the object-fault plan exactly once per step, even when the
	// target object is not Faultable: the plan may be stateful (a
	// pending one-shot fault choice) and must see every step. The
	// Faultable assertion is paid only on the rare steps where a fault
	// actually fires — fault-free steps go straight to Apply.
	mode := FaultNone
	if s.objFaults != nil {
		mode = s.objFaults.FaultOp(idx)
	}
	if mode != FaultNone {
		if fo, ok := obj.(Faultable); ok {
			v, err = fo.ApplyFault(p.id, op, args, mode)
		} else {
			v, err = obj.Apply(p.id, op, args)
		}
	} else {
		v, err = obj.Apply(p.id, op, args)
	}
	if err != nil {
		err = fmt.Errorf("proc %d: %s.%s: %w", p.id, obj.Name(), op, err)
		if s.trace != nil {
			s.trace.record(idx, p.id, obj.Name(), op, copyArgs(args), err)
		}
		// The object may have mutated before rejecting.
		if s.fingerprint {
			s.fpTouchObj(obj.Name())
		}
		s.kill(p, err)
		return true
	}
	if s.trace != nil {
		s.trace.record(idx, p.id, obj.Name(), op, copyArgs(args), v)
	}
	if s.fingerprint {
		p.foldOp(v)
		if s.canon != nil {
			s.canon.foldOpPerms(p, v)
		}
		if s.fp.init {
			s.fpTouchObj(obj.Name())
			s.fpTouchProc(int(p.id))
		}
	}
	if p.machine == nil {
		// Resume the Program; it parks again at its next operation
		// (publishing it) or returns.
		p.host <- v
		<-p.host
		return p.done
	}
	done, dec, ferr := p.machine.Finish(v)
	if done {
		p.done = true
		p.value, p.err = dec, ferr
	}
	return done
}

// next returns the operation p's next granted step performs: what a
// Program published in Env.apply, or a Machine's Pending with its
// arguments staged in argbuf.
func (p *proc) next() (Object, OpKind, []Value) {
	if p.machine == nil {
		return p.obj, p.op, p.args
	}
	op := p.machine.Pending()
	if op.NArgs == 0 {
		return op.Obj, op.Op, nil
	}
	p.argbuf[0] = op.Args[0]
	if op.NArgs > 1 {
		p.argbuf[1] = op.Args[1]
	}
	return op.Obj, op.Op, p.argbuf[:op.NArgs]
}

// copyArgs detaches trace-retained arguments from the caller's buffer:
// a recorded Event outlives the step, and the fixed-arity paths reuse
// the per-process staging buffer.
func copyArgs(args []Value) []Value {
	if len(args) == 0 {
		return args
	}
	return append([]Value(nil), args...)
}

// kill ends a ready process with err: a crash (ErrCrashed), halt, step
// limit or rejected operation. A Program's host goroutine, parked in
// Env.apply, is unwound and waited for first, so no ending of a run
// leaves a goroutine behind.
func (s *System) kill(p *proc, err error) {
	if p.machine == nil {
		p.host <- killSignal{}
		<-p.host
	}
	p.done = true
	p.err = err
	p.crashed = err == ErrCrashed
	if s.fingerprint {
		s.fpTouchProc(int(p.id))
	}
}

// Snapshot appends the full mutable state of the execution — global
// step count, every process (counters, status, observation hashes,
// decision, machine-local state) and every object — to the arena.
// It needs a Snapshotable system and must be taken at a decision point
// (between steps). The caller records sn.Len() beforehand to address
// the snapshot later.
func (m *MachineExec) Snapshot(sn *Snap) {
	s := m.sys
	sn.Int(s.steps)
	for _, p := range s.procs {
		sn.Int(p.steps)
		sn.Bool(p.done)
		sn.Bool(p.crashed)
		sn.Uint64(p.opHash)
		sn.Uint64s(p.permHash)
		sn.Value(p.value)
		sn.Value(p.err)
		p.machine.Save(sn)
	}
	for _, name := range s.sortedNames() {
		s.objects[name].(Restorable).SaveState(sn)
	}
	if s.fingerprint {
		s.fpSnapshot(sn)
	}
}

// Restore rewinds the execution to a snapshot taken by Snapshot,
// rebuilding the ready set. The snapshot stays
// valid (reads do not consume the arena), so one snapshot can be
// restored many times — the core of in-place backtracking.
func (m *MachineExec) Restore(at SnapReader) {
	m.rd = at
	r := &m.rd
	s := m.sys
	s.steps = r.Int()
	m.ready = m.ready[:0]
	for _, p := range s.procs {
		p.steps = r.Int()
		p.done = r.Bool()
		p.crashed = r.Bool()
		p.opHash = r.Uint64()
		r.Uint64s(p.permHash)
		p.value = r.Value()
		if e := r.Value(); e != nil {
			p.err = e.(error)
		} else {
			p.err = nil
		}
		p.machine.Restore(r)
		if !p.done {
			m.ready = append(m.ready, p.id)
		}
	}
	for _, name := range s.sortedNames() {
		s.objects[name].(Restorable).RestoreState(r)
	}
	if s.fingerprint {
		s.fpRestore(r)
	}
}
