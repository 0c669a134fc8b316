// Package censusd is the census daemon: it accepts census job requests
// over HTTP/JSON, runs them as supervised checkpointed explorations on
// a bounded worker pool, persists every job to an on-disk store with
// atomic writes, and recovers in-flight jobs after a crash — each
// resumed job completes bit-identical to an uninterrupted run. The
// request/identity encoding here is shared with cmd/explore so the CLI
// and the daemon name the same exploration the same way.
package censusd

import (
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/consensus"
	"repro/internal/election"
	"repro/internal/explore"
	"repro/internal/faults"
	"repro/internal/objects"
	"repro/internal/sim"
)

// Request is one census job: which protocol to explore and under what
// budgets, plus engine tuning. The tree-shaping fields (protocol,
// parameters, budgets) define the job's exploration identity — two
// requests with equal identities ARE the same job and deduplicate. The
// tuning fields (workers, reducers, timeout) do not: the reducers are
// census-preserving and worker count never changes counts, so they
// only affect how fast the identical census is produced.
type Request struct {
	// Protocol names a registry entry: rw2, rw3, tas2, fa2, queue2,
	// sticky, swap, cas, casdeg, casdegel.
	Protocol string `json:"protocol"`
	// K is the object's size parameter (compare&swap alphabet) for
	// cas/casdeg/casdegel; ignored — and normalized away — for the
	// others.
	K int `json:"k,omitempty"`
	// N is the process count for the n-ary protocols; ignored and
	// normalized away for the fixed-arity ones.
	N int `json:"n,omitempty"`
	// Crashes is the crash budget per schedule (default 1).
	Crashes *int `json:"crashes,omitempty"`
	// ObjFaults is the object-fault budget (needs a fault-wrapped
	// protocol, i.e. casdeg).
	ObjFaults int `json:"objfaults,omitempty"`
	// FaultModes are the fault modes to enumerate when ObjFaults > 0:
	// crash, omission, reset, garble. Default crash.
	FaultModes []string `json:"faultmodes,omitempty"`
	// MaxRuns is the exploration budget (default 200000, matching
	// cmd/explore).
	MaxRuns int `json:"maxruns,omitempty"`
	// StepLimit is the per-process step budget (0 = sim default).
	StepLimit int `json:"steplimit,omitempty"`

	// Tuning — not part of the identity.
	Workers   int  `json:"workers,omitempty"`
	Prune     bool `json:"prune,omitempty"`
	Symmetry  bool `json:"symmetry,omitempty"`
	SleepSets bool `json:"sleepsets,omitempty"`
	// TimeoutSec bounds the job's wall clock; an expired job fails
	// (retaining its checkpoint, so a resubmission resumes it).
	TimeoutSec int `json:"timeout_sec,omitempty"`
}

// MaxProcs bounds a request's process count. Building a symmetric
// protocol enumerates all n! process permutations (sim.FullPerms):
// 40,320 at the bound, gigabytes a few processes past it, and no
// census of that many processes finishes anyway.
const MaxProcs = 8

// DefaultMaxRuns mirrors cmd/explore's -maxruns default so the CLI and
// the daemon agree on the identity of a default-budget census.
const DefaultMaxRuns = 200000

// defaultCrashes mirrors cmd/explore's -crashes default.
const defaultCrashes = 1

// Normalize validates the request and canonicalizes every field that
// feeds the identity: unknown protocols and fault modes are rejected,
// defaults are made explicit, dimensions the protocol ignores are
// zeroed (so "tas2 with k=7" and plain "tas2" are the same job), and
// fault modes are stored by their parsed names, sorted and distinct (so
// "crash,crash " and " crash" name the crash-only job).
func (r *Request) Normalize() error {
	spec, ok := protocols[r.Protocol]
	if !ok {
		return fmt.Errorf("unknown protocol %q (have %s)", r.Protocol, strings.Join(ProtocolNames(), ", "))
	}
	if !spec.usesK {
		r.K = 0
	} else if r.K <= 0 {
		return fmt.Errorf("protocol %q needs k > 0", r.Protocol)
	}
	if !spec.usesN {
		r.N = 0
	} else if r.N <= 0 || r.N > MaxProcs {
		return fmt.Errorf("protocol %q needs 0 < n <= %d", r.Protocol, MaxProcs)
	}
	if spec.usesK && spec.usesN && r.N > r.K-1 {
		return fmt.Errorf("protocol %q needs n <= k-1 (%d processes, alphabet %d)", r.Protocol, r.N, r.K)
	}
	if r.Crashes == nil {
		c := defaultCrashes
		r.Crashes = &c
	}
	if *r.Crashes < 0 || r.ObjFaults < 0 || r.MaxRuns < 0 || r.StepLimit < 0 || r.TimeoutSec < 0 {
		return fmt.Errorf("budgets must be non-negative")
	}
	if r.MaxRuns == 0 {
		r.MaxRuns = DefaultMaxRuns
	}
	if r.ObjFaults > 0 && !spec.faultable {
		return fmt.Errorf("protocol %q is not fault-wrapped; objfaults needs casdeg or casdegel", r.Protocol)
	}
	if r.ObjFaults == 0 {
		r.FaultModes = nil
		return nil
	}
	modes, err := ParseFaultModes(strings.Join(r.FaultModes, ","))
	if err != nil {
		return err
	}
	if len(modes) == 0 {
		modes = []sim.FaultMode{sim.FaultCrash}
	}
	names := make([]string, len(modes))
	for i, m := range modes {
		names[i] = m.String()
	}
	sort.Strings(names)
	r.FaultModes = slices.Compact(names)
	return nil
}

// Identity renders the canonical exploration identity: exactly the
// fields that shape the schedule tree and its verdicts, none of the
// tuning. Call Normalize first.
func (r Request) Identity() string {
	return fmt.Sprintf("%s k=%d n=%d c=%d f=%d m=%s r=%d s=%d",
		r.Protocol, r.K, r.N, *r.Crashes, r.ObjFaults,
		strings.Join(r.FaultModes, ","), r.MaxRuns, r.StepLimit)
}

// ID is the job identifier: an FNV-1a hash of the identity, rendered
// as fixed-width hex (filesystem- and URL-safe). Equal identities —
// and only they — collide, which is the dedup mechanism.
func (r Request) ID() string {
	h := uint64(14695981039346656037)
	for _, b := range []byte(r.Identity()) {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return fmt.Sprintf("%016x", h)
}

// Build returns the protocol's system builder and its proposal set.
// Call Normalize first.
func (r Request) Build() (explore.Builder, []sim.Value, error) {
	spec, ok := protocols[r.Protocol]
	if !ok {
		return nil, nil, fmt.Errorf("unknown protocol %q", r.Protocol)
	}
	b, props := spec.build(r.K, r.N)
	return b, props, nil
}

// Options maps the request onto engine options (without Context or
// Supervision, which belong to the runner).
func (r Request) Options() explore.Options {
	opts := explore.Options{
		MaxCrashes:      *r.Crashes,
		MaxRuns:         r.MaxRuns,
		MaxStepsPerProc: r.StepLimit,
		Workers:         r.Workers,
		Prune:           r.Prune,
		Symmetry:        r.Symmetry,
		SleepSets:       r.SleepSets,
	}
	if r.ObjFaults > 0 {
		opts.ObjectFaults = r.ObjFaults
		opts.FaultModes, _ = ParseFaultModes(strings.Join(r.FaultModes, ","))
	}
	return opts
}

// BuildRaw decodes a serialized Request (a distributed work item's
// payload) into the exploration it names: builder, engine options, and
// verdict check. Worker and coordinator both resolve through this
// registry, so identical bytes reproduce the identical exploration.
func BuildRaw(raw []byte) (explore.Builder, explore.Options, func(*sim.Result) error, error) {
	var req Request
	if err := json.Unmarshal(raw, &req); err != nil {
		return nil, explore.Options{}, nil, fmt.Errorf("censusd: decode request: %w", err)
	}
	if err := req.Normalize(); err != nil {
		return nil, explore.Options{}, nil, err
	}
	b, props, err := req.Build()
	if err != nil {
		return nil, explore.Options{}, nil, err
	}
	return b, req.Options(), req.Check(props), nil
}

// Check returns the consensus per-run verdict — agreement and validity
// over the proposal set — the registry default. Protocols whose verdict
// is not consensus-shaped (the election entries) override it per spec;
// resolve through Request.Check rather than calling this directly.
func Check(props []sim.Value) func(*sim.Result) error {
	return func(res *sim.Result) error {
		if err := consensus.CheckAgreement(res); err != nil {
			return err
		}
		return consensus.CheckValidity(res, props)
	}
}

// Check resolves the per-run verdict for the request's protocol: the
// spec's own check when it declares one (election protocols validate
// leader agreement over process ids, not proposal consensus), the
// consensus default otherwise. props must be the slice returned by
// Build. Call Normalize first.
func (r Request) Check(props []sim.Value) func(*sim.Result) error {
	if spec, ok := protocols[r.Protocol]; ok && spec.check != nil {
		return spec.check(props)
	}
	return Check(props)
}

// protocolSpec is one registry entry.
type protocolSpec struct {
	usesK, usesN bool
	faultable    bool
	build        func(k, n int) (explore.Builder, []sim.Value)
	// check, when set, replaces the consensus agreement/validity default
	// with a protocol-specific verdict over build's value set.
	check func(props []sim.Value) func(*sim.Result) error
}

func props(n int) []sim.Value {
	out := make([]sim.Value, n)
	for i := range out {
		out[i] = 100 + i
	}
	return out
}

// protocols is the shared registry of explorable protocols, used by
// cmd/explore's -protocol flag and the daemon's request decoding.
var protocols = map[string]protocolSpec{
	// Every entry builds its protocol in machine form (SpawnMachine), so
	// jobs run on the explorers' direct-dispatch + in-place backtracking
	// fast path; the machine ports are bit-identical to the Program
	// forms (enforced by the equivalence tests in internal/explore), so
	// job identities, checkpoints and census numbers are unchanged.
	"rw2": {build: func(_, _ int) (explore.Builder, []sim.Value) {
		p := props(2)
		return func() *sim.System {
			sys := sim.NewSystem()
			for _, m := range consensus.RWMachines(sys, "rw", p) {
				sys.SpawnMachine(m)
			}
			return sys
		}, p
	}},
	"rw3": {build: func(_, _ int) (explore.Builder, []sim.Value) {
		p := props(3)
		return func() *sim.System {
			sys := sim.NewSystem()
			for _, m := range consensus.RWMachines(sys, "rw", p) {
				sys.SpawnMachine(m)
			}
			return sys
		}, p
	}},
	"tas2": {build: func(_, _ int) (explore.Builder, []sim.Value) {
		p := props(2)
		spec := consensus.TASSymmetric()
		return func() *sim.System {
			sys := sim.NewSystem()
			ts := objects.NewTestAndSet("t")
			sys.Add(ts)
			for _, m := range consensus.TASMachines(sys, ts, [2]sim.Value{p[0], p[1]}) {
				sys.SpawnMachine(m)
			}
			sys.DeclareSymmetry(spec)
			return sys
		}, p
	}},
	"fa2": {build: func(_, _ int) (explore.Builder, []sim.Value) {
		p := props(2)
		return func() *sim.System {
			sys := sim.NewSystem()
			fa := objects.NewFetchAdd("f", 0)
			sys.Add(fa)
			for _, m := range consensus.FetchAddMachines(sys, fa, [2]sim.Value{p[0], p[1]}) {
				sys.SpawnMachine(m)
			}
			return sys
		}, p
	}},
	"queue2": {build: func(_, _ int) (explore.Builder, []sim.Value) {
		p := props(2)
		spec := consensus.QueueSymmetric()
		return func() *sim.System {
			sys := sim.NewSystem()
			q := objects.NewQueue("q", "winner")
			sys.Add(q)
			for _, m := range consensus.QueueMachines(sys, q, [2]sim.Value{p[0], p[1]}) {
				sys.SpawnMachine(m)
			}
			sys.DeclareSymmetry(spec)
			return sys
		}, p
	}},
	"sticky": {usesN: true, build: func(_, n int) (explore.Builder, []sim.Value) {
		p := props(n)
		spec := consensus.StickyBitSymmetric(n)
		return func() *sim.System {
			sys := sim.NewSystem()
			sb := objects.NewStickyBit("s")
			sys.Add(sb)
			for _, m := range consensus.StickyBitMachines(sb, p) {
				sys.SpawnMachine(m)
			}
			sys.DeclareSymmetry(spec)
			return sys
		}, p
	}},
	"cas": {usesK: true, usesN: true, build: func(k, n int) (explore.Builder, []sim.Value) {
		p := props(n)
		spec := consensus.CASSymmetric(n)
		return func() *sim.System {
			sys := sim.NewSystem()
			cas := objects.NewCAS("cas", k)
			sys.Add(cas)
			for _, m := range consensus.CASMachines(sys, cas, p) {
				sys.SpawnMachine(m)
			}
			sys.DeclareSymmetry(spec)
			return sys
		}, p
	}},
	"swap": {usesN: true, build: func(_, n int) (explore.Builder, []sim.Value) {
		p := props(n)
		spec := consensus.SwapSymmetric(n)
		return func() *sim.System {
			sys := sim.NewSystem()
			sw := objects.NewSwap("s", nil)
			sys.Add(sw)
			for _, m := range consensus.SwapMachines(sys, sw, p) {
				sys.SpawnMachine(m)
			}
			sys.DeclareSymmetry(spec)
			return sys
		}, p
	}},
	"casdegel": {usesK: true, usesN: true, faultable: true,
		build: func(k, n int) (explore.Builder, []sim.Value) {
			// Degrading leader election (election.DegradingCAS) over a
			// fault-wrapped compare&swap-(k): the decisions are process
			// ids, so the entry carries the election verdict below.
			ids := make([]sim.Value, n)
			for i := range ids {
				ids[i] = i
			}
			return func() *sim.System {
				sys := sim.NewSystem()
				cas := faults.Wrap(objects.NewCAS("cas", k))
				sys.Add(cas)
				for _, m := range election.DegradingCASMachines(sys, cas, n) {
					sys.SpawnMachine(m)
				}
				return sys
			}, ids
		},
		check: func(ids []sim.Value) func(*sim.Result) error {
			return func(res *sim.Result) error { return election.CheckElection(res, ids) }
		}},
	"casdeg": {usesK: true, usesN: true, faultable: true, build: func(k, n int) (explore.Builder, []sim.Value) {
		// Fault-wrapped compare&swap consensus with graceful degradation
		// to registers: the protocol for objfaults experiments.
		p := props(n)
		return func() *sim.System {
			sys := sim.NewSystem()
			cas := faults.Wrap(objects.NewCAS("cas", k))
			sys.Add(cas)
			for _, m := range consensus.DegradingCASMachines(sys, cas, p) {
				sys.SpawnMachine(m)
			}
			return sys
		}, p
	}},
}

// ProtocolNames lists the registry in sorted order (for help text and
// error messages).
func ProtocolNames() []string {
	out := make([]string, 0, len(protocols))
	for name := range protocols {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// ParseFaultModes parses a comma-separated fault-mode list
// ("crash,omission,reset,garble").
func ParseFaultModes(s string) ([]sim.FaultMode, error) {
	var modes []sim.FaultMode
	for _, part := range strings.Split(s, ",") {
		switch strings.TrimSpace(part) {
		case "":
		case "crash":
			modes = append(modes, sim.FaultCrash)
		case "omission":
			modes = append(modes, sim.FaultOmission)
		case "reset":
			modes = append(modes, sim.FaultReset)
		case "garble":
			modes = append(modes, sim.FaultGarble)
		default:
			return nil, fmt.Errorf("unknown fault mode %q", part)
		}
	}
	return modes, nil
}
