package consensus

import (
	"fmt"

	"repro/internal/faults"
	"repro/internal/objects"
	"repro/internal/registers"
	"repro/internal/sim"
)

// Machine (direct-dispatch) ports of the consensus protocols. Each
// machine performs exactly the op sequence of its Program twin —
// same objects, same order, same arguments — so goroutine and machine
// executions of the same census are bit-identical; the equivalence
// tests in internal/explore enforce that under -race.

// duelMachine is the shared shape of the three 2-process "oracle"
// protocols (test&set, fetch&add, queue): announce, consult the oracle
// once, keep your proposal if you won, adopt the other announcement if
// you lost.
type duelMachine struct {
	ann    *registers.Array
	props  [2]sim.Value
	i      int
	oracle sim.MachineOp
	won    func(sim.Value) bool
	pc     int
}

var _ sim.Machine = (*duelMachine)(nil)

// Pending implements sim.Machine.
func (m *duelMachine) Pending() sim.MachineOp {
	switch m.pc {
	case 0:
		return sim.MachineOp{Obj: m.ann.Reg(m.i), Op: sim.OpWrite, NArgs: 1, Args: [2]sim.Value{m.props[m.i]}}
	case 1:
		return m.oracle
	default:
		return sim.MachineOp{Obj: m.ann.Reg(1 - m.i), Op: sim.OpRead}
	}
}

// Finish implements sim.Machine.
func (m *duelMachine) Finish(v sim.Value) (bool, sim.Value, error) {
	switch m.pc {
	case 0:
		m.pc = 1
		return false, nil, nil
	case 1:
		if m.won(v) {
			return true, m.props[m.i], nil
		}
		m.pc = 2
		return false, nil, nil
	default:
		return true, v, nil
	}
}

// Save implements sim.Machine.
func (m *duelMachine) Save(s *sim.Snap) { s.Int(m.pc) }

// Restore implements sim.Machine.
func (m *duelMachine) Restore(r *sim.SnapReader) { m.pc = r.Int() }

// TASMachines is TASProtocol in machine form: announce, test&set, the
// winner keeps its proposal, the loser adopts the other announcement.
func TASMachines(sys *sim.System, ts *objects.TestAndSet, proposals [2]sim.Value) []sim.Machine {
	ann := registers.NewArray(sys, ts.Name()+".ann", 2, nil)
	ms := make([]sim.Machine, 2)
	for i := 0; i < 2; i++ {
		ms[i] = &duelMachine{
			ann: ann, props: proposals, i: i,
			oracle: sim.MachineOp{Obj: ts, Op: objects.OpTAS},
			won:    func(v sim.Value) bool { return v.(bool) },
		}
	}
	return ms
}

// FetchAddMachines is FetchAddProtocol in machine form: ticket 0 wins.
func FetchAddMachines(sys *sim.System, fa *objects.FetchAdd, proposals [2]sim.Value) []sim.Machine {
	ann := registers.NewArray(sys, fa.Name()+".ann", 2, nil)
	ms := make([]sim.Machine, 2)
	for i := 0; i < 2; i++ {
		ms[i] = &duelMachine{
			ann: ann, props: proposals, i: i,
			oracle: sim.MachineOp{Obj: fa, Op: objects.OpFetchAdd, NArgs: 1, Args: [2]sim.Value{1}},
			won:    func(v sim.Value) bool { return v.(int) == 0 },
		}
	}
	return ms
}

// QueueMachines is QueueProtocol in machine form: whoever dequeues the
// pre-loaded "winner" token wins.
func QueueMachines(sys *sim.System, q *objects.Queue, proposals [2]sim.Value) []sim.Machine {
	ann := registers.NewArray(sys, q.Name()+".ann", 2, nil)
	ms := make([]sim.Machine, 2)
	for i := 0; i < 2; i++ {
		ms[i] = &duelMachine{
			ann: ann, props: proposals, i: i,
			oracle: sim.MachineOp{Obj: q, Op: objects.OpDeq},
			won:    func(v sim.Value) bool { return v == "winner" },
		}
	}
	return ms
}

// witnessMachine generalizes duelMachine to the hierarchy's n-process
// witness shape: announce, consult the oracle once, keep your proposal
// if you won; a loser with exactly one peer adopts the other
// announcement, a loser among n ≥ 3 scans every announce cell in index
// order and adopts the smallest (the "natural generalization" the
// hierarchy censuses refute at level 2). Program counters: 0 announce,
// 1 oracle, 2 read the other cell (two-process loser), 3 scan cell j.
type witnessMachine struct {
	ann    *registers.Array
	props  []sim.Value
	i      int
	oracle sim.MachineOp
	won    func(sim.Value) bool
	pc, j  int
	best   sim.Value
}

var _ sim.Machine = (*witnessMachine)(nil)

// Pending implements sim.Machine.
func (m *witnessMachine) Pending() sim.MachineOp {
	switch m.pc {
	case 0:
		return sim.MachineOp{Obj: m.ann.Reg(m.i), Op: sim.OpWrite, NArgs: 1, Args: [2]sim.Value{m.props[m.i]}}
	case 1:
		return m.oracle
	case 2:
		return sim.MachineOp{Obj: m.ann.Reg(1 - m.i), Op: sim.OpRead}
	default:
		return sim.MachineOp{Obj: m.ann.Reg(m.j), Op: sim.OpRead}
	}
}

// Finish implements sim.Machine.
func (m *witnessMachine) Finish(v sim.Value) (bool, sim.Value, error) {
	switch m.pc {
	case 0:
		m.pc = 1
	case 1:
		if m.won(v) {
			return true, m.props[m.i], nil
		}
		if len(m.props) == 2 {
			m.pc = 2
		} else {
			m.pc, m.j, m.best = 3, 0, nil
		}
	case 2:
		return true, v, nil
	default:
		// Skip empty cells; keep the rendered-order minimum.
		if v != nil && (m.best == nil || renderedLess(v, m.best)) {
			m.best = v
		}
		m.j++
		if m.j == len(m.props) {
			return true, m.best, nil
		}
	}
	return false, nil, nil
}

// Save implements sim.Machine.
func (m *witnessMachine) Save(s *sim.Snap) {
	s.Int(m.pc)
	s.Int(m.j)
	s.Value(m.best)
}

// Restore implements sim.Machine.
func (m *witnessMachine) Restore(r *sim.SnapReader) {
	m.pc = r.Int()
	m.j = r.Int()
	m.best = r.Value()
}

// WitnessMachines builds n hierarchy-witness machines over a shared
// oracle: oracle(i) is process i's single oracle operation and won
// classifies its result. The announce array is created under annName
// (the hierarchy builders use plain "ann" to stay bit-identical with
// their Program twins; censuses use "<obj>.ann").
func WitnessMachines(sys *sim.System, annName string, proposals []sim.Value,
	oracle func(i int) sim.MachineOp, won func(sim.Value) bool) []sim.Machine {
	n := len(proposals)
	ann := registers.NewArray(sys, annName, n, nil)
	ms := make([]sim.Machine, n)
	for i := 0; i < n; i++ {
		ms[i] = &witnessMachine{
			ann: ann, props: proposals, i: i,
			oracle: oracle(i), won: won,
		}
	}
	return ms
}

// SwapMachines is the swap-register witness protocol in machine form:
// announce, swap your id in; whoever got nil back went first and wins,
// a loser adopts the other announcement (n = 2) or the smallest (n ≥ 3).
func SwapMachines(sys *sim.System, sw *objects.Swap, proposals []sim.Value) []sim.Machine {
	return WitnessMachines(sys, sw.Name()+".ann", proposals,
		func(i int) sim.MachineOp {
			return sim.MachineOp{Obj: sw, Op: objects.OpSwap, NArgs: 1, Args: [2]sim.Value{i}}
		},
		func(v sim.Value) bool { return v == nil })
}

// casConsMachine is one process of CASProtocol as a state machine:
// announce, c&s(⊥ → own symbol), read the winner, adopt its
// announcement.
type casConsMachine struct {
	cas    *objects.CAS
	ann    *registers.Array
	props  []sim.Value
	i      int
	pc     int
	winner int
}

var _ sim.Machine = (*casConsMachine)(nil)

// Pending implements sim.Machine.
func (m *casConsMachine) Pending() sim.MachineOp {
	switch m.pc {
	case 0:
		return sim.MachineOp{Obj: m.ann.Reg(m.i), Op: sim.OpWrite, NArgs: 1, Args: [2]sim.Value{m.props[m.i]}}
	case 1:
		return sim.MachineOp{
			Obj: m.cas, Op: objects.OpCAS, NArgs: 2,
			Args: [2]sim.Value{objects.Bottom, objects.Symbol(m.i + 1)},
		}
	case 2:
		return sim.MachineOp{Obj: m.cas, Op: sim.OpRead}
	default:
		return sim.MachineOp{Obj: m.ann.Reg(m.winner), Op: sim.OpRead}
	}
}

// Finish implements sim.Machine.
func (m *casConsMachine) Finish(v sim.Value) (bool, sim.Value, error) {
	switch m.pc {
	case 0, 1:
		m.pc++
		return false, nil, nil
	case 2:
		m.winner = int(v.(objects.Symbol)) - 1
		m.pc = 3
		return false, nil, nil
	default:
		return true, v, nil
	}
}

// Save implements sim.Machine.
func (m *casConsMachine) Save(s *sim.Snap) {
	s.Int(m.pc)
	s.Int(m.winner)
}

// Restore implements sim.Machine.
func (m *casConsMachine) Restore(r *sim.SnapReader) {
	m.pc = r.Int()
	m.winner = r.Int()
}

// CASMachines is CASProtocol in machine form, with the same n ≤ k−1
// capacity precondition and panic.
func CASMachines(sys *sim.System, cas *objects.CAS, proposals []sim.Value) []sim.Machine {
	n := len(proposals)
	if n > cas.K()-1 {
		panic(fmt.Sprintf("consensus: %d processes need %d symbols, compare&swap-(%d) has %d",
			n, n, cas.K(), cas.K()-1))
	}
	ann := registers.NewArray(sys, cas.Name()+".ann", n, nil)
	ms := make([]sim.Machine, n)
	for i := 0; i < n; i++ {
		ms[i] = &casConsMachine{cas: cas, ann: ann, props: proposals, i: i}
	}
	return ms
}

// stickyMachine is the one-step sticky-bit consensus process: sticky-
// write your proposal, decide whatever stuck.
type stickyMachine struct {
	sb   *objects.StickyBit
	prop sim.Value
}

var _ sim.Machine = (*stickyMachine)(nil)

// Pending implements sim.Machine.
func (m *stickyMachine) Pending() sim.MachineOp {
	return sim.MachineOp{Obj: m.sb, Op: sim.OpWrite, NArgs: 1, Args: [2]sim.Value{m.prop}}
}

// Finish implements sim.Machine.
func (m *stickyMachine) Finish(v sim.Value) (bool, sim.Value, error) { return true, v, nil }

// Save implements sim.Machine.
func (m *stickyMachine) Save(*sim.Snap) {}

// Restore implements sim.Machine.
func (m *stickyMachine) Restore(*sim.SnapReader) {}

// StickyBitMachines is the sticky-bit census protocol in machine form.
func StickyBitMachines(sb *objects.StickyBit, proposals []sim.Value) []sim.Machine {
	ms := make([]sim.Machine, len(proposals))
	for i, p := range proposals {
		ms[i] = &stickyMachine{sb: sb, prop: p}
	}
	return ms
}

// rwMachine is one process of RWAttempt as a state machine: announce,
// read every announcement in index order folding the minimum, decide
// it. pc 0 is the announce; pc 1..n are the reads of cells 0..n−1.
type rwMachine struct {
	ann   *registers.Array
	props []sim.Value
	i     int
	pc    int
	best  sim.Value
}

var _ sim.Machine = (*rwMachine)(nil)

// Pending implements sim.Machine.
func (m *rwMachine) Pending() sim.MachineOp {
	if m.pc == 0 {
		return sim.MachineOp{Obj: m.ann.Reg(m.i), Op: sim.OpWrite, NArgs: 1, Args: [2]sim.Value{m.props[m.i]}}
	}
	return sim.MachineOp{Obj: m.ann.Reg(m.pc - 1), Op: sim.OpRead}
}

// Finish implements sim.Machine.
func (m *rwMachine) Finish(v sim.Value) (bool, sim.Value, error) {
	if m.pc == 0 {
		m.best = m.props[m.i]
		m.pc = 1
		return false, nil, nil
	}
	if v != nil && renderedLess(v, m.best) {
		m.best = v
	}
	m.pc++
	if m.pc == len(m.props)+1 {
		return true, m.best, nil
	}
	return false, nil, nil
}

// Save implements sim.Machine.
func (m *rwMachine) Save(s *sim.Snap) {
	s.Int(m.pc)
	s.Value(m.best)
}

// Restore implements sim.Machine.
func (m *rwMachine) Restore(r *sim.SnapReader) {
	m.pc = r.Int()
	m.best = r.Value()
}

// RWMachines is RWAttempt in machine form — the doomed level-1
// baseline, whose disagreement schedules the censuses count.
func RWMachines(sys *sim.System, name string, proposals []sim.Value) []sim.Machine {
	n := len(proposals)
	ann := registers.NewArray(sys, name+".ann", n, nil)
	ms := make([]sim.Machine, n)
	for i := 0; i < n; i++ {
		ms[i] = &rwMachine{ann: ann, props: proposals, i: i}
	}
	return ms
}

// degradeMachine is one process of DegradingCASMachines. Program
// counters:
//
//	0 announce · 1 c&s · 2 read · 3 adopt winner's announcement ·
//	4 scan published decisions (j) · 5 fold announcements (j, best) ·
//	6 publish own decision, then decide
//
// The failed-object sentinel arrives as an ordinary value and is checked
// after the c&s and after the read.
type degradeMachine struct {
	obj      sim.Object
	ann, dec *registers.Array
	props    []sim.Value
	i        int
	pc, j    int
	best     sim.Value
	decision sim.Value
}

var _ sim.Machine = (*degradeMachine)(nil)

// Pending implements sim.Machine.
func (m *degradeMachine) Pending() sim.MachineOp {
	switch m.pc {
	case 0:
		return sim.MachineOp{Obj: m.ann.Reg(m.i), Op: sim.OpWrite, NArgs: 1, Args: [2]sim.Value{m.props[m.i]}}
	case 1:
		return sim.MachineOp{
			Obj: m.obj, Op: objects.OpCAS, NArgs: 2,
			Args: [2]sim.Value{objects.Bottom, objects.Symbol(m.i + 1)},
		}
	case 2:
		return sim.MachineOp{Obj: m.obj, Op: sim.OpRead}
	case 3:
		return sim.MachineOp{Obj: m.ann.Reg(m.j), Op: sim.OpRead}
	case 4:
		return sim.MachineOp{Obj: m.dec.Reg(m.j), Op: sim.OpRead}
	case 5:
		return sim.MachineOp{Obj: m.ann.Reg(m.j), Op: sim.OpRead}
	default:
		return sim.MachineOp{Obj: m.dec.Reg(m.i), Op: sim.OpWrite, NArgs: 1, Args: [2]sim.Value{m.decision}}
	}
}

// degrade enters the registers-only path: scan published decisions.
func (m *degradeMachine) degrade() {
	m.pc, m.j = 4, 0
}

// Finish implements sim.Machine.
func (m *degradeMachine) Finish(v sim.Value) (bool, sim.Value, error) {
	n := len(m.props)
	switch m.pc {
	case 0:
		m.pc = 1
	case 1:
		if faults.IsFailed(v) {
			m.degrade()
		} else {
			m.pc = 2
		}
	case 2:
		if faults.IsFailed(v) {
			m.degrade()
			break
		}
		if s, isSym := v.(objects.Symbol); isSym && s != objects.Bottom {
			if winner := int(s) - 1; winner >= 0 && winner < n {
				m.pc, m.j = 3, winner
				break
			}
		}
		// Garbled/omitted response with no usable owner: degrade
		// rather than decide garbage.
		m.degrade()
	case 3:
		m.decision = v
		m.pc = 6
	case 4:
		if v != nil {
			m.decision = v
			m.pc = 6
			break
		}
		m.j++
		if m.j == n {
			m.pc, m.j = 5, 0
			m.best = m.props[m.i]
		}
	case 5:
		if v != nil && renderedLess(v, m.best) {
			m.best = v
		}
		m.j++
		if m.j == n {
			m.decision = m.best
			m.pc = 6
		}
	default:
		return true, m.decision, nil
	}
	return false, nil, nil
}

// Save implements sim.Machine.
func (m *degradeMachine) Save(s *sim.Snap) {
	s.Int(m.pc)
	s.Int(m.j)
	s.Value(m.best)
	s.Value(m.decision)
}

// Restore implements sim.Machine.
func (m *degradeMachine) Restore(r *sim.SnapReader) {
	m.pc = r.Int()
	m.j = r.Int()
	m.best = r.Value()
	m.decision = r.Value()
}

// DegradingCASMachines returns n machines solving consensus over obj,
// hardened against object failure: obj is a compare&swap-style object —
// normally a faults.Wrap around objects.NewCAS — and a process that
// observes it failed (the ErrObjectFailed sentinel) degrades to
// registers only instead of crashing: it adopts any decision already
// published by a compare&swap-path decider, else falls back to the
// RWAttempt rule (decide the minimum announced proposal). Deciders on
// every path publish before returning, so the fallback disagrees only
// on the schedules where FLP says it must be able to. Unlike
// CASMachines the capacity precondition n ≤ k−1 is the caller's job —
// obj is opaque here, and the hierarchy checks deliberately probe
// over-capacity.
func DegradingCASMachines(sys *sim.System, obj sim.Object, proposals []sim.Value) []sim.Machine {
	n := len(proposals)
	ann := registers.NewArray(sys, obj.Name()+".ann", n, nil)
	dec := registers.NewArray(sys, obj.Name()+".dec", n, nil)
	ms := make([]sim.Machine, n)
	for i := 0; i < n; i++ {
		ms[i] = &degradeMachine{obj: obj, ann: ann, dec: dec, props: proposals, i: i}
	}
	return ms
}
