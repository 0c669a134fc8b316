package censusd

import (
	"encoding/json"
	"reflect"
	"slices"
	"testing"
)

// FuzzRequestNormalize decodes arbitrary bytes as a JSON Request (the
// seed corpus holds the registry's request shapes and the fault-mode
// spellings that once counted a mode twice). Normalize must never
// panic, and a request it accepts must be canonical: a second Normalize
// changes nothing, the identity ignores the tuning fields, the options
// enumerate exactly the stored fault modes, a JSON round trip keeps the
// identity, and the protocol builds.
func FuzzRequestNormalize(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var r Request
		if json.Unmarshal(data, &r) != nil || r.Normalize() != nil {
			return
		}
		again := r.clone()
		if err := again.Normalize(); err != nil || !reflect.DeepEqual(again, r) {
			t.Fatalf("second Normalize of %+v gave %+v (err %v)", r, again, err)
		}

		tuned := r.clone()
		tuned.Workers ^= 5
		tuned.Prune, tuned.Symmetry, tuned.SleepSets = !r.Prune, !r.Symmetry, !r.SleepSets
		tuned.TimeoutSec ^= 1
		if err := tuned.Normalize(); err != nil || tuned.Identity() != r.Identity() || tuned.ID() != r.ID() {
			t.Fatalf("retuned request: identity %q (err %v), want %q", tuned.Identity(), err, r.Identity())
		}

		var names []string
		for _, m := range r.Options().FaultModes {
			names = append(names, m.String())
		}
		if !slices.Equal(names, r.FaultModes) || !slices.IsSorted(names) || len(slices.Compact(slices.Clone(names))) != len(names) {
			t.Fatalf("options enumerate fault modes %q for stored modes %q, want them equal, sorted and distinct", names, r.FaultModes)
		}

		data, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		var back Request
		if err := json.Unmarshal(data, &back); err != nil || back.Identity() != r.Identity() {
			t.Fatalf("JSON round trip: identity %q (err %v), want %q", back.Identity(), err, r.Identity())
		}

		if _, _, err := r.Build(); err != nil {
			t.Fatalf("build of a normalized request: %v", err)
		}
	})
}

// clone copies r deeply: Crashes and FaultModes are not shared.
func (r Request) clone() Request {
	if r.Crashes != nil {
		c := *r.Crashes
		r.Crashes = &c
	}
	r.FaultModes = slices.Clone(r.FaultModes)
	return r
}
