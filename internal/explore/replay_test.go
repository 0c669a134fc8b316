package explore

import "repro/internal/sim"

// The replay walker: the oracle the path engine and the in-place DFS are
// checked against. It shares no walk code with them, only the replay of
// a prefix (replayPrefix) that censusFrom also uses.

// VisitReplay is the original exploration engine: one full replay per
// tree node, O(depth) simulated steps each, strictly sequential. It
// lives with the tests as the independent reference implementation —
// the engine cross-check tests compare Visit against it run for run —
// and for the DESIGN.md §5.2 ablation (BenchmarkAblationReplay).
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
