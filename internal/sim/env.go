package sim

import "fmt"

// Env is a Program's handle to the shared-memory machine. Every shared
// operation parks the Program's host goroutine: the runner performs the
// operation when the scheduler grants this process its next step.
type Env struct {
	sys  *System
	proc *proc
}

// ID returns the calling process's identifier.
func (e *Env) ID() ProcID { return e.proc.id }

// NumProcs returns the number of processes in the system.
func (e *Env) NumProcs() int { return len(e.sys.procs) }

// Steps returns the number of shared steps this process has taken.
func (e *Env) Steps() int { return e.proc.steps }

// Apply performs one atomic operation on obj. The calling goroutine
// parks until the scheduler grants the step. If the object rejects the
// operation the process is stopped and the error is recorded in the
// run's Result.
//
// The variadic form allocates its argument slice per call; hot
// protocol code with fixed arity should use Apply0, Apply1 or Apply2,
// which reuse a per-process buffer instead.
func (e *Env) Apply(obj Object, op OpKind, args ...Value) Value {
	return e.apply(obj, op, args)
}

// Apply0 is Apply with no arguments and no per-call allocation.
func (e *Env) Apply0(obj Object, op OpKind) Value {
	return e.apply(obj, op, nil)
}

// Apply1 is Apply with one argument, staged in a per-process buffer so
// the call allocates nothing. The buffer is reused on the process's
// next fixed-arity operation: objects must not retain the args slice
// (they already must not — see Object.Apply).
func (e *Env) Apply1(obj Object, op OpKind, a0 Value) Value {
	e.proc.argbuf[0] = a0
	return e.apply(obj, op, e.proc.argbuf[:1])
}

// Apply2 is Apply with two arguments; see Apply1.
func (e *Env) Apply2(obj Object, op OpKind, a0, a1 Value) Value {
	e.proc.argbuf[0] = a0
	e.proc.argbuf[1] = a1
	return e.apply(obj, op, e.proc.argbuf[:2])
}

// apply publishes the operation and parks the Program's host goroutine
// until the runner has executed it as the process's next granted step
// (MachineExec.step) and handed back the result. Every shared step
// costs these two channel operations.
func (e *Env) apply(obj Object, op OpKind, args []Value) Value {
	p := e.proc
	p.obj, p.op, p.args = obj, op, args
	p.host <- nil
	v := <-p.host
	if _, ok := v.(killSignal); ok {
		panic(v) // recovered in startHost's goroutine; see System.kill
	}
	return v
}

// killSignal is sent in place of an operation's result to unwind a
// parked Program: crash, halt, step limit, rejected operation, or a
// run aborted by scheduler misuse.
type killSignal struct{}

// startHost launches Program p on its host goroutine and waits until it
// parks at its first operation. It reports false if the Program
// returned without taking any shared step.
func (s *System) startHost(p *proc) bool {
	p.env = Env{sys: s, proc: p}
	p.host = make(chan Value)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(killSignal); !ok {
					panic(r) // real bug in protocol code: do not mask it
				}
			}
			p.done = true
			p.host <- nil
		}()
		p.value, p.err = p.program(&p.env)
	}()
	<-p.host
	return !p.done
}

// ApplyNamed is Apply on the object registered under name. It panics if
// no such object exists (static protocol structure, so a missing name
// is a programming error).
func (e *Env) ApplyNamed(name string, op OpKind, args ...Value) Value {
	obj := e.sys.objects[name]
	if obj == nil {
		panic(fmt.Sprintf("sim: no object %q", name))
	}
	return e.Apply(obj, op, args...)
}

// BeginOp opens a high-level operation span for linearizability
// checking of derived objects (objects implemented by a protocol over
// several primitive steps). The span's interval is the window from the
// operation's first shared step to its last one — local computation is
// instantaneous in the model, so that window is the operation's
// execution. Spans are buffered per process and merged into the trace
// when the run ends.
func (e *Env) BeginOp(object string, kind OpKind, args ...Value) *Span {
	sp := &Span{
		Proc:   e.proc.id,
		Object: object,
		Kind:   kind,
		Args:   args,
		Start:  -1,
		End:    -1,
	}
	e.proc.spans = append(e.proc.spans, sp)
	e.proc.pending = append(e.proc.pending, sp)
	return sp
}

// EndOp closes a high-level operation span with its result. The span
// ends at the operation's last shared step; a span with no steps
// degenerates to the point of the process's previous step.
func (e *Env) EndOp(sp *Span, result Value) {
	if sp.Start < 0 {
		sp.Start = e.proc.lastStep
	}
	sp.End = e.proc.lastStep
	sp.Result = result
}
