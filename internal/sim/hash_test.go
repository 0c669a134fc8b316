package sim

import (
	"fmt"
	"testing"
)

// keyedReg is a minimal fingerprintable test object.
type keyedReg struct {
	name string
	v    int
}

func (r *keyedReg) Name() string { return r.name }
func (r *keyedReg) Apply(_ ProcID, op OpKind, args []Value) (Value, error) {
	switch op {
	case OpWrite:
		r.v = args[0].(int)
		return nil, nil
	case OpRead:
		return r.v, nil
	}
	return nil, fmt.Errorf("bad op %q", op)
}
func (r *keyedReg) StateKey() string { return fmt.Sprint(r.v) }

// unkeyedReg lacks StateKey: systems holding one are not fingerprintable.
type unkeyedReg struct{ keyedReg }

func (r *unkeyedReg) StateKey() {} // wrong signature on purpose: not a StateKeyer

func buildCounter(obj Object) *System {
	sys := NewSystem()
	sys.Add(obj)
	sys.SpawnN(2, func(id ProcID) Program {
		return func(e *Env) (Value, error) {
			prev := e.Apply(obj, OpRead).(int)
			e.Apply(obj, OpWrite, prev+1)
			return prev, nil
		}
	})
	return sys
}

// finalHash runs sys under cfg and returns the fingerprint of the
// final state.
func finalHash(t *testing.T, sys *System, cfg Config) (uint64, bool) {
	t.Helper()
	if _, err := sys.Run(cfg); err != nil {
		t.Fatalf("run: %v", err)
	}
	return sys.StateHash()
}

// TestResultFingerprintDeterministic: two identical runs end in states
// with equal fingerprints.
func TestResultFingerprintDeterministic(t *testing.T) {
	run := func() (uint64, bool) {
		return finalHash(t, buildCounter(&keyedReg{name: "c"}), Config{Fingerprint: true, DisableTrace: true})
	}
	a, aok := run()
	b, bok := run()
	if !aok || !bok {
		t.Fatal("fingerprint not available despite Config.Fingerprint and keyed objects")
	}
	if a != b {
		t.Fatalf("identical runs fingerprint differently: %x vs %x", a, b)
	}
	if a == 0 {
		t.Fatal("suspicious zero fingerprint")
	}
}

func TestFingerprintOffByDefault(t *testing.T) {
	if _, ok := finalHash(t, buildCounter(&keyedReg{name: "c"}), Config{DisableTrace: true}); ok {
		t.Fatal("fingerprint reported OK without Config.Fingerprint")
	}
}

func TestFingerprintRequiresStateKeyers(t *testing.T) {
	if _, ok := finalHash(t, buildCounter(&unkeyedReg{keyedReg{name: "c"}}), Config{Fingerprint: true, DisableTrace: true}); ok {
		t.Fatal("fingerprint reported OK with a non-StateKeyer object")
	}
}

// TestStateHashSeparatesSchedules: runs under different schedules that
// produce different observations must hash differently.
func TestStateHashSeparatesSchedules(t *testing.T) {
	run := func(order []ProcID) (uint64, bool) {
		return finalHash(t, buildCounter(&keyedReg{name: "c"}), Config{
			Scheduler:    Replay(order),
			Fingerprint:  true,
			DisableTrace: true,
		})
	}
	// Sequential: both increments land (final value 2). Racing reads:
	// both read 0, final value 1 — different state, different history.
	a, aok := run([]ProcID{0, 0, 1, 1})
	b, bok := run([]ProcID{0, 1, 0, 1})
	if !aok || !bok {
		t.Fatal("fingerprints unavailable")
	}
	if a == b {
		t.Fatalf("distinct final states share a fingerprint: %x", a)
	}
}
