// Package hierarchy is the laboratory for Herlihy's wait-free hierarchy
// (reference [10] of the paper), the classification the paper refines:
// read/write registers have consensus number 1, test&set / swap /
// fetch&add / queue have consensus number 2, and compare&swap has
// consensus number ∞ — yet, as the paper shows, a compare&swap that can
// hold only k values is nonetheless size-limited.
//
// Claims are checked mechanically with the explore package: "object O
// solves n-consensus" is witnessed by a concrete protocol passing
// agreement/validity/wait-freedom on every schedule (with crashes);
// "does not solve" is witnessed in the FLP shape — the canonical
// protocol admits a disagreeing schedule or an ever-bivalent adversary.
package hierarchy

import (
	"fmt"

	"repro/internal/consensus"
	"repro/internal/explore"
	"repro/internal/objects"
	"repro/internal/sim"
)

// Level is one row of the hierarchy table.
type Level struct {
	// Object names the object type.
	Object string
	// ConsensusNumber is the claimed level (−1 renders ∞).
	ConsensusNumber int
	// Note summarizes the paper's refinement where applicable.
	Note string
}

// Infinity is the rendered consensus number of universal objects.
const Infinity = -1

// Table returns the hierarchy rows relevant to the paper, including the
// size refinement of its main theorem.
func Table(k int) []Level {
	return []Level{
		{Object: "read/write register", ConsensusNumber: 1, Note: "FLP/LAA: no wait-free 2-consensus"},
		{Object: "test&set", ConsensusNumber: 2, Note: "2 yes, 3 no"},
		{Object: "fetch&add", ConsensusNumber: 2, Note: "2 yes, 3 no"},
		{Object: "swap", ConsensusNumber: 2, Note: "2 yes, 3 no"},
		{Object: "FIFO queue", ConsensusNumber: 2, Note: "2 yes, 3 no"},
		{Object: "sticky bit", ConsensusNumber: Infinity, Note: "universal (Plotkin)"},
		{Object: fmt.Sprintf("compare&swap-(%d)", k), ConsensusNumber: Infinity,
			Note: "consensus ∞, but leader election capacity bounded: k−1 alone, O(k^(k²+3)) with r/w registers"},
	}
}

// Witness is the outcome of checking one (object, n) cell.
type Witness struct {
	Object string
	N      int
	// Solves reports whether the canonical protocol passed on every
	// explored schedule.
	Solves bool
	// Violation, when not Solves, is a schedule demonstrating failure.
	Violation string
	// Runs is the number of schedules explored.
	Runs int
	// Errors lists subtrees the exploration permanently lost past the
	// supervisor's retry budget, at any worker count; non-empty means
	// the verdict is not backed by a full census.
	Errors []string
	// Cancelled reports that the exploration was cut short by its
	// context (deadline or interrupt) — same caveat as Errors.
	Cancelled bool
}

// Partial reports whether the witness rests on an incomplete census —
// in that case neither "solves" nor "fails" (absent a concrete
// violation) is trustworthy.
func (w Witness) Partial() bool {
	return w.Cancelled || len(w.Errors) > 0
}

// checkAll verifies a builder against full agreement/validity checks
// over every schedule with up to one crash. tunes forward exploration
// tuning (explore.WithPrune, explore.WithWorkers) from the caller.
func checkAll(b explore.Builder, proposals []sim.Value, maxRuns int, tunes ...explore.Tune) Witness {
	w := Witness{Solves: true}
	opts := explore.Options{MaxCrashes: 1, MaxRuns: maxRuns}.With(tunes...)
	c := explore.Run(b, opts, func(res *sim.Result) error {
		if err := consensus.CheckAgreement(res); err != nil {
			return err
		}
		return consensus.CheckValidity(res, proposals)
	})
	w.Runs = c.Complete + c.Incomplete
	w.Errors = c.Errors
	w.Cancelled = c.Cancelled
	if len(c.Violations) > 0 {
		w.Solves = false
		w.Violation = explore.FormatSchedule(c.Violations[0].Schedule)
	}
	if c.Incomplete > 0 {
		// Non-terminating schedules break wait-freedom.
		w.Solves = false
		if w.Violation == "" {
			w.Violation = "non-terminating schedule (depth bound hit)"
		}
	}
	return w
}

func proposals(n int) []sim.Value {
	out := make([]sim.Value, n)
	for i := range out {
		out[i] = 100 + i
	}
	return out
}

// CheckTAS verifies test&set n-consensus via the canonical winner/loser
// protocol. It solves n = 2; for n = 3 the same idea (losers adopt the
// unique winner's value — but with three processes a loser cannot tell
// which of the other two won) has no canonical protocol; we check the
// natural generalization "losers adopt the smallest announced value",
// which the explorer refutes.
func CheckTAS(n int, maxRuns int, tunes ...explore.Tune) Witness {
	props := proposals(n)
	b := func() *sim.System {
		sys := sim.NewSystem()
		ts := objects.NewTestAndSet("t")
		sys.Add(ts)
		// Machine form: direct-dispatch fast path, same op sequence as
		// the Program (duel at n = 2, announce/oracle/smallest-scan
		// witness beyond), cross-checked by the equivalence tests.
		if n == 2 {
			for _, m := range consensus.TASMachines(sys, ts, [2]sim.Value{props[0], props[1]}) {
				sys.SpawnMachine(m)
			}
			return sys
		}
		ms := consensus.WitnessMachines(sys, "ann", props,
			func(int) sim.MachineOp { return sim.MachineOp{Obj: ts, Op: objects.OpTAS} },
			func(v sim.Value) bool { return v.(bool) })
		for _, m := range ms {
			sys.SpawnMachine(m)
		}
		return sys
	}
	w := checkAll(b, props, maxRuns, tunes...)
	w.Object, w.N = "test&set", n
	return w
}

// CheckFetchAdd verifies fetch&add n-consensus (ticket protocol;
// generalization for n ≥ 3 adopts the smallest announced value).
func CheckFetchAdd(n int, maxRuns int, tunes ...explore.Tune) Witness {
	props := proposals(n)
	b := func() *sim.System {
		sys := sim.NewSystem()
		fa := objects.NewFetchAdd("f", 0)
		sys.Add(fa)
		if n == 2 {
			for _, m := range consensus.FetchAddMachines(sys, fa, [2]sim.Value{props[0], props[1]}) {
				sys.SpawnMachine(m)
			}
			return sys
		}
		ms := consensus.WitnessMachines(sys, "ann", props,
			func(int) sim.MachineOp {
				return sim.MachineOp{Obj: fa, Op: objects.OpFetchAdd, NArgs: 1, Args: [2]sim.Value{1}}
			},
			func(v sim.Value) bool { return v.(int) == 0 })
		for _, m := range ms {
			sys.SpawnMachine(m)
		}
		return sys
	}
	w := checkAll(b, props, maxRuns, tunes...)
	w.Object, w.N = "fetch&add", n
	return w
}

// CheckSwap verifies swap n-consensus: announce, then swap your id into
// the register; whoever got ⊥ back went first and wins. Level 2: solves
// 2, fails 3 (a loser cannot tell which of the other two won first, and
// the smallest-announced generalization disagrees).
func CheckSwap(n int, maxRuns int, tunes ...explore.Tune) Witness {
	props := proposals(n)
	b := func() *sim.System {
		sys := sim.NewSystem()
		sw := objects.NewSwap("s", nil)
		sys.Add(sw)
		// The witness machine covers both arities: a nil swap return
		// means you went first; a two-process loser adopts the other
		// announcement, a larger loser scans for the smallest.
		ms := consensus.WitnessMachines(sys, "ann", props,
			func(i int) sim.MachineOp {
				return sim.MachineOp{Obj: sw, Op: objects.OpSwap, NArgs: 1, Args: [2]sim.Value{i}}
			},
			func(v sim.Value) bool { return v == nil })
		for _, m := range ms {
			sys.SpawnMachine(m)
		}
		return sys
	}
	w := checkAll(b, props, maxRuns, tunes...)
	w.Object, w.N = "swap", n
	return w
}

// CheckQueue verifies queue n-consensus (pre-loaded winner token).
func CheckQueue(n int, maxRuns int, tunes ...explore.Tune) Witness {
	props := proposals(n)
	b := func() *sim.System {
		sys := sim.NewSystem()
		q := objects.NewQueue("q", "winner")
		sys.Add(q)
		if n == 2 {
			for _, m := range consensus.QueueMachines(sys, q, [2]sim.Value{props[0], props[1]}) {
				sys.SpawnMachine(m)
			}
			return sys
		}
		ms := consensus.WitnessMachines(sys, "ann", props,
			func(int) sim.MachineOp { return sim.MachineOp{Obj: q, Op: objects.OpDeq} },
			func(v sim.Value) bool { return v == "winner" })
		for _, m := range ms {
			sys.SpawnMachine(m)
		}
		return sys
	}
	w := checkAll(b, props, maxRuns, tunes...)
	w.Object, w.N = "queue", n
	return w
}

// CheckRW verifies the read/write-only attempt (level 1: fails already
// at n = 2).
func CheckRW(n int, maxRuns int, tunes ...explore.Tune) Witness {
	props := proposals(n)
	b := func() *sim.System {
		sys := sim.NewSystem()
		for _, m := range consensus.RWMachines(sys, "rw", props) {
			sys.SpawnMachine(m)
		}
		return sys
	}
	w := checkAll(b, props, maxRuns, tunes...)
	w.Object, w.N = "read/write", n
	return w
}

// CheckCAS verifies compare&swap-(k) n-consensus for n ≤ k−1 (the
// paper's size limit governs the constructor, which panics beyond it).
func CheckCAS(k, n int, maxRuns int, tunes ...explore.Tune) Witness {
	props := proposals(n)
	b := func() *sim.System {
		sys := sim.NewSystem()
		cas := objects.NewCAS("cas", k)
		sys.Add(cas)
		for _, m := range consensus.CASMachines(sys, cas, props) {
			sys.SpawnMachine(m)
		}
		return sys
	}
	w := checkAll(b, props, maxRuns, tunes...)
	w.Object, w.N = fmt.Sprintf("compare&swap-(%d)", k), n
	return w
}

// CheckStickyBit verifies sticky-bit n-consensus: everyone writes its
// proposal; the first write sticks and is returned to all.
func CheckStickyBit(n int, maxRuns int, tunes ...explore.Tune) Witness {
	props := proposals(n)
	b := func() *sim.System {
		sys := sim.NewSystem()
		sb := objects.NewStickyBit("s")
		sys.Add(sb)
		for _, m := range consensus.StickyBitMachines(sb, props) {
			sys.SpawnMachine(m)
		}
		return sys
	}
	w := checkAll(b, props, maxRuns, tunes...)
	w.Object, w.N = "sticky bit", n
	return w
}
