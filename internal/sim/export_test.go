package sim

// StateHashCanonScratch is the pre-incremental StateHashCanon: a full
// from-scratch fold of every permutation's state at the point of call
// (the per-permutation observation hashes are stream-maintained either
// way). Exported to the test binary so BenchmarkSimStep can price the
// cost the incremental canon cache removes — the recorded gap between
// the fingerprint=canon and fingerprint=canon-scratch rows is the
// acceptance evidence for the ≥|G|/2× criterion.
func (s *System) StateHashCanonScratch() (uint64, int, bool) {
	c := s.canon
	if c == nil {
		fp, ok := s.fpPlainScratch()
		return fp, 0, ok
	}
	for _, p := range s.procs {
		if p.done && p.err != nil && !isSentinelErr(p.err) {
			fp, ok := s.fpPlainScratch()
			return fp, 0, ok
		}
	}
	var best uint64
	bestK := 0
	for k := range c.perms {
		fp, ok := c.stateHashUnder(s, k)
		if !ok {
			fp2, ok2 := s.fpPlainScratch()
			return fp2, 0, ok2
		}
		if k == 0 || fp < best {
			best, bestK = fp, k
		}
	}
	return best, bestK, true
}
