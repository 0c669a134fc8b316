package hierarchy

import (
	"fmt"

	"repro/internal/consensus"
	"repro/internal/explore"
	"repro/internal/faults"
	"repro/internal/objects"
	"repro/internal/sim"
)

// CheckCASDegrading verifies compare&swap-(k) n-consensus when the
// compare&swap object may suffer up to faultBudget injected faults
// (crash-only when modes is empty) and the protocol degrades to
// registers only — the robustness face of the hierarchy table. With
// faultBudget 0 it must report Solves like CheckCAS; with a positive
// budget the explorer exhibits the FLP-mandated disagreement of the
// registers-only fallback, so Solves is expected false and the witness
// carries the violating schedule.
func CheckCASDegrading(k, n, faultBudget int, maxRuns int, modes []sim.FaultMode, tunes ...explore.Tune) Witness {
	if n > k-1 {
		panic(fmt.Sprintf("hierarchy: %d processes need %d symbols, compare&swap-(%d) has %d",
			n, n, k, k-1))
	}
	props := proposals(n)
	b := func() *sim.System {
		sys := sim.NewSystem()
		cas := faults.Wrap(objects.NewCAS("cas", k))
		sys.Add(cas)
		for _, m := range consensus.DegradingCASMachines(sys, cas, props) {
			sys.SpawnMachine(m)
		}
		return sys
	}
	all := append([]explore.Tune{explore.WithObjectFaults(faultBudget, modes...)}, tunes...)
	w := checkAll(b, props, maxRuns, all...)
	w.Object, w.N = fmt.Sprintf("degrading compare&swap-(%d), %d faults", k, faultBudget), n
	return w
}
