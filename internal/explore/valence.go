package explore

import (
	"fmt"
	"sort"
	"strings"
)

// Valence computes the set of decision fingerprints reachable from the
// given schedule prefix — the "valence" of the corresponding protocol
// state in the Fischer–Lynch–Paterson sense (reference [9] of the
// paper). A prefix with two or more reachable fingerprints is bivalent:
// the outcome is still undetermined.
//
// Incomplete runs (depth bound hit) contribute the pseudo-fingerprint
// "∞" so that non-terminating branches are visible in the valence.
//
// The set is read off a one-root census at prefix on the pool (its
// outcome keys, plus "∞" if any run is incomplete): one pool item, so
// MaxRuns caps the whole walk. With Options.Prune (or a reducer
// implying it) the census counts the runs a table hit credits, so where
// MaxRuns binds it covers at least the DFS prefix the unpruned walk
// covers, and where it does not the sets are equal. Valence has no
// error result: a root lost past the supervisor's attempt budget
// panics with its failure rather than read as a smaller valence.
func Valence(b Builder, opts Options, prefix []Choice) []string {
	opts, table := opts.resolve(b)
	return valence(b, opts, table, prefix)
}

// valence is Valence for resolved options; table is nil when unpruned.
func valence(b Builder, opts Options, table *pruneTable, prefix []Choice) []string {
	r := runPool(opts.ctx(), rootPlan(b, opts, nil, append([]Choice{}, prefix...)), table, nil, nil, nil, nil)
	if len(r.failures) > 0 {
		panic(fmt.Sprintf("explore: valence: %v", r.failures[0]))
	}
	out := make([]string, 0, len(r.total.outs)+1)
	for _, o := range r.total.outs {
		out = append(out, r.ids.key(o.id))
	}
	if r.total.incomplete != (wide{}) {
		out = append(out, "∞")
	}
	sort.Strings(out)
	return out
}

// BivalencePath greedily extends a schedule, at every frontier choosing
// a child that is still bivalent, up to pathLen decision points. It
// returns the path found and whether every prefix along it (including
// the last) was bivalent.
//
// For a correct consensus protocol over a strong object the path ends
// quickly — some step decides. For an attempted read/write consensus
// protocol the path keeps extending, which is exactly the FLP shape:
// an adversary can keep the protocol undecided forever.
//
// With Options.Prune every valence on the path comes from one shared
// transposition table (see Valence).
func BivalencePath(b Builder, opts Options, pathLen int) ([]Choice, bool) {
	opts, table := opts.resolve(b)
	bivalent := func(prefix []Choice) bool { return len(valence(b, opts, table, prefix)) >= 2 }
	var path []Choice
	for len(path) < pathLen {
		if !bivalent(path) {
			return path, false
		}
		_, ready := replayPrefix(b, opts, path)
		if ready == nil {
			return path, false
		}
		extended := false
		for _, id := range ready {
			child := append(append([]Choice(nil), path...), Choice{Pick: id})
			if bivalent(child) {
				path = child
				extended = true
				break
			}
		}
		if !extended {
			// Every child is univalent: the next step decides.
			return path, false
		}
	}
	return path, true
}

// ValenceString renders a valence set compactly, e.g. "{[0 0], [1 1]}".
func ValenceString(v []string) string {
	return "{" + strings.Join(v, ", ") + "}"
}

// DescribeCensus renders a census as a short multi-line report.
func DescribeCensus(c *Census) string {
	var b strings.Builder
	fmt.Fprintf(&b, "complete=%d incomplete=%d exhaustive=%v\n", c.Complete, c.Incomplete, c.Exhaustive)
	if p := c.Prune; p != nil {
		fmt.Fprintf(&b, "  prune: hits=%d misses=%d stores=%d evictions=%d lost_publishes=%d donations=%d steals=%d\n",
			p.Hits, p.Misses, p.Stores, p.Evictions, p.LostPublishes, p.Donations, p.Steals)
		if p.SymmetryOn || p.SleepSetsOn || p.SymmetryNote != "" {
			fmt.Fprintf(&b, "  reduce: probes=%d symmetry=%v(hits=%d) sleepsets=%v(skips=%d)\n",
				p.Probes, p.SymmetryOn, p.SymmetryHits, p.SleepSetsOn, p.SleepSkips)
			if p.SymmetryNote != "" {
				fmt.Fprintf(&b, "  reduce: %s\n", p.SymmetryNote)
			}
		}
	}
	fps := make([]string, 0, len(c.Outcomes))
	for fp := range c.Outcomes {
		fps = append(fps, fp)
	}
	sort.Strings(fps)
	for _, fp := range fps {
		fmt.Fprintf(&b, "  %s × %d\n", fp, c.Outcomes[fp])
	}
	for _, v := range c.Violations {
		fmt.Fprintf(&b, "  violation: schedule %s\n", FormatSchedule(v.Schedule))
	}
	return b.String()
}
