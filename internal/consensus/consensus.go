// Package consensus provides wait-free consensus protocols for each
// level of Herlihy's hierarchy that the paper builds on: read/write
// attempts (impossible, level 1), test&set and fetch&add (level 2), and
// compare&swap (level ∞ — but, as the paper shows, only with enough
// values). Verdict helpers check agreement, validity and wait-freedom
// of simulation results.
package consensus

import (
	"bytes"
	"fmt"
	"strconv"

	"repro/internal/objects"
	"repro/internal/registers"
	"repro/internal/sim"
)

// CASProtocol returns n programs solving n-process consensus with one
// compare&swap-(k) register and an announce array: process i announces
// its proposal, performs c&s(⊥ → i+1), reads the register, and decides
// the announced proposal of the symbol owner. Requires n ≤ k−1 (each
// process needs its own symbol); the constructor panics otherwise —
// this very precondition is the size limit the paper studies.
func CASProtocol(sys *sim.System, cas *objects.CAS, proposals []sim.Value) []sim.Program {
	n := len(proposals)
	if n > cas.K()-1 {
		panic(fmt.Sprintf("consensus: %d processes need %d symbols, compare&swap-(%d) has %d",
			n, n, cas.K(), cas.K()-1))
	}
	ann := registers.NewArray(sys, cas.Name()+".ann", n, nil)
	progs := make([]sim.Program, n)
	for i := 0; i < n; i++ {
		i := i
		progs[i] = func(e *sim.Env) (sim.Value, error) {
			ann.Write(e, proposals[i])
			cas.CompareAndSwap(e, objects.Bottom, objects.Symbol(i+1))
			winner := int(cas.Read(e)) - 1
			return ann.Read(e, winner), nil
		}
	}
	return progs
}

// LLSCProtocol returns n programs solving n-process consensus with one
// load-link/store-conditional-(k) register plus an announce array —
// the other universal primitive the paper's introduction names, with
// the same size limit: n ≤ k−1 symbols. Wait-free in at most two
// link/store rounds: a failed store means someone else's store landed,
// and the register never returns to ⊥.
func LLSCProtocol(sys *sim.System, reg *objects.LLSC, proposals []sim.Value) []sim.Program {
	n := len(proposals)
	if n > reg.K()-1 {
		panic(fmt.Sprintf("consensus: %d processes need %d symbols, ll/sc-(%d) has %d",
			n, n, reg.K(), reg.K()-1))
	}
	ann := registers.NewArray(sys, reg.Name()+".ann", n, nil)
	progs := make([]sim.Program, n)
	for i := 0; i < n; i++ {
		i := i
		progs[i] = func(e *sim.Env) (sim.Value, error) {
			ann.Write(e, proposals[i])
			for {
				cur := reg.LoadLink(e)
				if cur != objects.Bottom {
					return ann.Read(e, int(cur)-1), nil
				}
				if reg.StoreConditional(e, objects.Symbol(i+1)) {
					return proposals[i], nil
				}
			}
		}
	}
	return progs
}

// TASProtocol returns 2 programs solving 2-process consensus with one
// test&set bit: the winner decides its own proposal, the loser adopts
// the winner's announcement (written before the t&s, so always
// visible).
func TASProtocol(sys *sim.System, ts *objects.TestAndSet, proposals [2]sim.Value) []sim.Program {
	ann := registers.NewArray(sys, ts.Name()+".ann", 2, nil)
	progs := make([]sim.Program, 2)
	for i := 0; i < 2; i++ {
		i := i
		progs[i] = func(e *sim.Env) (sim.Value, error) {
			ann.Write(e, proposals[i])
			if ts.TestAndSet(e) {
				return proposals[i], nil
			}
			return ann.Read(e, 1-i), nil
		}
	}
	return progs
}

// FetchAddProtocol returns 2 programs solving 2-process consensus with
// one fetch&add register: ticket 0 wins.
func FetchAddProtocol(sys *sim.System, fa *objects.FetchAdd, proposals [2]sim.Value) []sim.Program {
	ann := registers.NewArray(sys, fa.Name()+".ann", 2, nil)
	progs := make([]sim.Program, 2)
	for i := 0; i < 2; i++ {
		i := i
		progs[i] = func(e *sim.Env) (sim.Value, error) {
			ann.Write(e, proposals[i])
			if fa.FetchAdd(e, 1) == 0 {
				return proposals[i], nil
			}
			return ann.Read(e, 1-i), nil
		}
	}
	return progs
}

// QueueProtocol returns 2 programs solving 2-process consensus with a
// queue pre-loaded with a "winner" token (Herlihy's classic level-2
// construction).
func QueueProtocol(sys *sim.System, q *objects.Queue, proposals [2]sim.Value) []sim.Program {
	ann := registers.NewArray(sys, q.Name()+".ann", 2, nil)
	progs := make([]sim.Program, 2)
	for i := 0; i < 2; i++ {
		i := i
		progs[i] = func(e *sim.Env) (sim.Value, error) {
			ann.Write(e, proposals[i])
			if q.Deq(e) == "winner" {
				return proposals[i], nil
			}
			return ann.Read(e, 1-i), nil
		}
	}
	return progs
}

// renderedLess reports fmt.Sprint(a) < fmt.Sprint(b): the order in
// which the protocols pick the smallest announced value. It compares
// renderings, so 100 sorts before 99. Two ints are rendered into stack
// buffers; any other value goes through fmt (an objects.Symbol prints
// ⊥ for Bottom).
func renderedLess(a, b sim.Value) bool {
	x, xok := a.(int)
	y, yok := b.(int)
	if !xok || !yok {
		return fmt.Sprint(a) < fmt.Sprint(b)
	}
	var bx, by [20]byte
	return bytes.Compare(strconv.AppendInt(bx[:0], int64(x), 10), strconv.AppendInt(by[:0], int64(y), 10)) < 0
}

// RWAttempt returns n programs attempting consensus with only
// read/write registers: announce, snapshot all announcements, decide
// the minimum announced value. It is doomed by FLP/Loui–Abu-Amara —
// the explorer exhibits disagreeing schedules — and exists as the
// level-1 baseline.
func RWAttempt(sys *sim.System, name string, proposals []sim.Value) []sim.Program {
	n := len(proposals)
	ann := registers.NewArray(sys, name+".ann", n, nil)
	progs := make([]sim.Program, n)
	for i := 0; i < n; i++ {
		i := i
		progs[i] = func(e *sim.Env) (sim.Value, error) {
			ann.Write(e, proposals[i])
			vals := ann.Collect(e)
			best := proposals[i]
			for _, v := range vals {
				if v == nil {
					continue
				}
				if renderedLess(v, best) {
					best = v
				}
			}
			return best, nil
		}
	}
	return progs
}

// TournamentAttempt returns 3 programs attempting 3-process consensus
// from TWO test&set objects arranged as a tournament: p0 and p1 meet in
// a semifinal, the survivor meets p2 in the final. The construction is
// doomed — 2-consensus objects do not compose into 3-consensus (their
// consensus number is exactly 2) — because a semifinal loser cannot
// learn wait-free who won the final: it adopts the smallest announced
// finalist value, and the explorer finds schedules where that guess is
// wrong. This is the composition face of Herlihy's hierarchy, next to
// the single-object faces in package hierarchy.
func TournamentAttempt(sys *sim.System, semi, final *objects.TestAndSet, proposals [3]sim.Value) []sim.Program {
	finalAnn := registers.NewArray(sys, final.Name()+".fin", 3, nil)
	progs := make([]sim.Program, 3)
	finalist := func(e *sim.Env, v sim.Value) sim.Value {
		finalAnn.Write(e, v)
		if final.TestAndSet(e) {
			return v
		}
		// Lost the final: adopt the other finalist's announcement.
		for j := 0; j < 3; j++ {
			if j == int(e.ID()) {
				continue
			}
			if w := finalAnn.Read(e, j); w != nil {
				return w
			}
		}
		return v
	}
	for i := 0; i < 2; i++ {
		i := i
		progs[i] = func(e *sim.Env) (sim.Value, error) {
			if semi.TestAndSet(e) {
				return finalist(e, proposals[i]), nil
			}
			// Semifinal loser: it cannot wait for the final, so it
			// guesses from whatever finalists have announced.
			best := sim.Value(nil)
			for j := 0; j < 3; j++ {
				if w := finalAnn.Read(e, j); w != nil {
					if best == nil || renderedLess(w, best) {
						best = w
					}
				}
			}
			if best == nil {
				best = proposals[1-i] // the semifinal winner's proposal
			}
			return best, nil
		}
	}
	progs[2] = func(e *sim.Env) (sim.Value, error) {
		return finalist(e, proposals[2]), nil
	}
	return progs
}

// RWCareful returns n programs attempting consensus with only
// read/write registers by the opposite compromise to RWAttempt: a
// process announces and then waits until every announcement is visible
// before deciding the minimum. It never disagrees — but it never
// terminates when some process is slow or crashed, so it is not
// wait-free. Together with RWAttempt it exhibits both horns of the
// FLP dichotomy: with read/write registers you lose either safety or
// liveness.
func RWCareful(sys *sim.System, name string, proposals []sim.Value) []sim.Program {
	n := len(proposals)
	ann := registers.NewArray(sys, name+".ann", n, nil)
	progs := make([]sim.Program, n)
	for i := 0; i < n; i++ {
		i := i
		progs[i] = func(e *sim.Env) (sim.Value, error) {
			ann.Write(e, proposals[i])
			for {
				vals := ann.Collect(e)
				complete := true
				best := sim.Value(nil)
				for _, v := range vals {
					if v == nil {
						complete = false
						break
					}
					if best == nil || renderedLess(v, best) {
						best = v
					}
				}
				if complete {
					return best, nil
				}
			}
		}
	}
	return progs
}

// CheckAgreement fails if two decided processes decided differently.
func CheckAgreement(res *sim.Result) error {
	if d := res.DistinctDecisions(); len(d) > 1 {
		return fmt.Errorf("consensus: agreement violated: decisions %v", d)
	}
	return nil
}

// CheckValidity fails if a decided value is not among the proposals.
func CheckValidity(res *sim.Result, proposals []sim.Value) error {
	allowed := make(map[sim.Value]bool, len(proposals))
	for _, p := range proposals {
		allowed[p] = true
	}
	for _, id := range res.Decided() {
		if !allowed[res.Values[id]] {
			return fmt.Errorf("consensus: validity violated: process %d decided %v, proposals %v",
				id, res.Values[id], proposals)
		}
	}
	return nil
}

// CheckWaitFree fails if a non-crashed process failed to decide or took
// more than bound steps. Halted runs fail unconditionally.
func CheckWaitFree(res *sim.Result, bound int) error {
	if res.Halted {
		return fmt.Errorf("consensus: run halted with live processes %v", res.ReadyAtHalt)
	}
	for i, err := range res.Errors {
		if res.Crashed[i] {
			continue
		}
		if err != nil {
			return fmt.Errorf("consensus: process %d failed: %w", i, err)
		}
		if res.Steps[i] > bound {
			return fmt.Errorf("consensus: process %d took %d steps, bound %d", i, res.Steps[i], bound)
		}
	}
	return nil
}

// CheckAll composes agreement, validity and wait-freedom.
func CheckAll(res *sim.Result, proposals []sim.Value, stepBound int) error {
	if err := CheckAgreement(res); err != nil {
		return err
	}
	if err := CheckValidity(res, proposals); err != nil {
		return err
	}
	return CheckWaitFree(res, stepBound)
}
