package explore

import (
	"testing"

	"repro/internal/sim"
)

// ForceDonation re-exports the forced-donation chaos hook for
// package explore_test cross-checks: those tests import the protocol
// packages (election, consensus), which import explore, so they cannot
// live in package explore without an import cycle.
func ForceDonation(t *testing.T) {
	t.Helper()
	forceDonation(t)
}

// OutcomeIDRenamer returns a function renaming outcome keys under
// orientation k of canon — out of canonical coordinates with inv —
// through one interner's memoized ID maps, the path table hits and
// publishes take.
func OutcomeIDRenamer(canon *sim.Canonicalizer) func(keys []string, k int, inv bool) []string {
	ids := newOutcomeIDs()
	return func(keys []string, k int, inv bool) []string {
		in := make([]uint32, len(keys))
		for i, key := range keys {
			in[i] = ids.intern(key)
		}
		ren := ids.renamer(canon, k, inv)
		out := make([]string, len(keys))
		for i, id := range in {
			if ren != nil {
				id = ren[id]
			}
			out[i] = ids.key(id)
		}
		return out
	}
}
