package explore

import (
	"repro/internal/sim"
)

// Orbit-aware frontier generation. The transposition table already
// collapses symmetric states mid-walk, but only after a worker has
// claimed the root and replayed its prefix — and in the distributed
// census (dist.go) there is no shared table at all, so every symmetric
// root costs a full remote exploration. This file moves the fold to
// generation time: frontier roots whose states lie in the same
// symmetry orbit (equal canonical table key — fingerprint plus
// remaining budgets) are partitioned into one REPRESENTATIVE, which is
// explored normally, and TWINS, which are never enqueued. A twin is
// credited the representative's summary renamed into its own
// orientation — the exact translation a table hit at its root node
// would have performed — so every census count stays bit-identical to
// the unpartitioned walk. Skipped roots are reported in
// PruneStats.OrbitSkips.
//
// Soundness is the transposition argument (prune.go) verbatim: equal
// table keys root identical subtrees up to the renaming the
// orientation records, and the orientation composition below is the
// same one engine.run (hit consumption) and engine.popFrame
// (canonical publication) already use.

// orbitInfo is the orbit partition of one frontier: rep[i] is the
// index of item i's representative (rep[i] == i for representatives,
// leaves and unkeyed roots), perm[i] its root state's canonical
// orientation, and key[i] its canonical table key (valid only when
// keyed[i]).
type orbitInfo struct {
	rep   []int
	perm  []int
	key   []tableKey
	keyed []bool
	twins int
}

// orbitPartition keys every prefix-bearing frontier item's root state
// and groups equal keys, first occurrence as representative. Roots
// whose state does not fingerprint (hash bail) stay their own
// representative and are explored normally — partitioning degrades,
// counts never do.
func orbitPartition(b Builder, opts Options, items []frontierItem) *orbitInfo {
	info := &orbitInfo{
		rep:   make([]int, len(items)),
		perm:  make([]int, len(items)),
		key:   make([]tableKey, len(items)),
		keyed: make([]bool, len(items)),
	}
	first := make(map[tableKey]int)
	for i, it := range items {
		info.rep[i] = i
		if it.prefix == nil {
			continue
		}
		k, perm, ok := rootOrbitKey(b, opts, it.prefix)
		if !ok {
			continue
		}
		info.perm[i], info.key[i], info.keyed[i] = perm, k, true
		if j, seen := first[k]; seen {
			info.rep[i] = j
			info.twins++
		} else {
			first[k] = i
		}
	}
	return info
}

// rootOrbitKey replays prefix on a fresh system and fingerprints the
// root node exactly as the engine's prober would at its first
// post-plan decision point: canonical state hash at the moment every
// live process is parked, plus the remaining depth/crash/fault
// budgets. ok is false when the replay diverged (nondeterministic
// builder) or the state does not fingerprint.
func rootOrbitKey(b Builder, opts Options, prefix []Choice) (tableKey, int, bool) {
	sys := b()
	r := &orbitReplay{planCursor: planCursor{plan: prefix}, sys: sys}
	cfg := sim.Config{
		Scheduler:          r,
		Faults:             r,
		MaxStepsPerProc:    opts.MaxStepsPerProc,
		MaxTotalSteps:      opts.MaxDepth + 1,
		DisableTrace:       true,
		Fingerprint:        true,
		Canon:              opts.canon,
		VerifyFingerprints: opts.VerifyFingerprints,
	}
	if opts.ObjectFaults > 0 {
		cfg.ObjectFaults = r
	}
	if _, err := sys.Run(cfg); err != nil || r.dead || !r.ok {
		return tableKey{}, 0, false
	}
	return tableKey{
		fp:       r.fp,
		depthRem: opts.MaxDepth - len(prefix),
		crashRem: opts.MaxCrashes - r.crashes,
		faultRem: opts.ObjectFaults - r.faults,
	}, r.perm, true
}

// orbitReplay drives one prefix replay through the plan cursor. When
// the plan is exhausted it captures the canonical state hash (all live
// processes are parked inside Next, the same quiescent point the prober
// keys on) and halts.
type orbitReplay struct {
	planCursor
	sys *sim.System

	fp   uint64
	perm int
	ok   bool
}

// Next implements sim.Scheduler.
func (r *orbitReplay) Next(ready []sim.ProcID, _ int) sim.ProcID {
	if pick, planned := r.next(ready); planned {
		return pick
	}
	if !r.ok {
		// Plan exhausted: this parked state IS the root node. A failed
		// fold leaves ok false and the caller treats the root as unique.
		r.fp, r.perm, r.ok = r.sys.StateHashCanon()
	}
	return sim.Halt
}

// orbitRenamer is the translation for crediting a twin from a summary
// in the REPRESENTATIVE'S OWN coordinates (a root's summary, never
// canonicalized): rename into canonical through the rep's orientation,
// then out through the inverse of the twin's — the publication and
// consumption steps of the shared-table flow, composed. The second map
// is built after the first, so it covers every ID the first yields.
func orbitRenamer(ids *outcomeIDs, canon *sim.Canonicalizer, repPerm, twinPerm int) []uint32 {
	into := ids.renamer(canon, repPerm, false)
	outOf := ids.renamer(canon, twinPerm, true)
	switch {
	case into == nil:
		return outOf
	case outOf == nil:
		return into
	}
	both := make([]uint32, len(into))
	for id, to := range into {
		both[id] = outOf[to]
	}
	return both
}
