package sim

// Process-symmetry canonicalization. The protocols the paper censuses
// (DirectCAS election, the RMW election conjecture, CAS consensus) are
// symmetric in process identity: renaming the processes by any
// permutation π and renaming every ID-derived value and per-process
// object accordingly maps executions to executions. The explore
// package exploits this by fingerprinting each global state under the
// LEAST permutation in the declared group ("canonical orientation"),
// so the transposition table stores one subtree per symmetry class
// instead of one per class member.
//
// The machinery is strictly opt-in: a protocol declares a Symmetry
// spec on its System (DeclareSymmetry), the explorer validates it
// structurally (NewCanonicalizer) and empirically (AuditSymmetry), and
// refuses to enable the reduction if either fails — no silent
// unsoundness. See DESIGN.md §5 "Reduction soundness".

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Symmetry declares that a protocol is invariant under a group of
// process-ID permutations. All callbacks must be pure and must satisfy
// the equivariance contract checked by AuditSymmetry: running the
// system under a π-renamed schedule yields the π-renamed execution.
type Symmetry struct {
	// Perms is the permutation group, identity first. Perms[k][i] is
	// the ID that process i maps to under permutation k. The set must
	// be closed under composition (NewCanonicalizer validates).
	Perms [][]ProcID

	// RenameValue maps an operation argument/result or decision value
	// under a permutation (e.g. Symbol(i+1) ↦ Symbol(perm[i]+1)).
	// Values not derived from process IDs must pass through unchanged.
	// nil means no value depends on process identity.
	RenameValue func(v Value, perm []ProcID) Value

	// RenameObject maps an object name under a permutation (e.g. a
	// per-process announce cell "x.ann[i]" ↦ "x.ann[perm[i]]"). It must
	// be a bijection of the system's object set. nil means object names
	// do not encode process identity.
	RenameObject func(name string, perm []ProcID) string

	// RenameOutcome maps a census decision-fingerprint key (the
	// explore package's sorted "[v1 v2]" rendering) under a
	// permutation. Required whenever decisions are ID-derived (the
	// audit enforces this); RenameIntKey covers integer decisions.
	// It must be the identity for the identity permutation.
	RenameOutcome func(key string, perm []ProcID) string
}

// FullPerms returns the full symmetric group on {0..n-1} in
// lexicographic order, so the identity comes first.
func FullPerms(n int) [][]ProcID {
	var out [][]ProcID
	cur := make([]ProcID, 0, n)
	used := make([]bool, n)
	var rec func()
	rec = func() {
		if len(cur) == n {
			out = append(out, append([]ProcID(nil), cur...))
			return
		}
		for i := 0; i < n; i++ {
			if used[i] {
				continue
			}
			used[i] = true
			cur = append(cur, ProcID(i))
			rec()
			cur = cur[:len(cur)-1]
			used[i] = false
		}
	}
	rec()
	return out
}

// PermStateFolder is the symmetry-aware refinement of StateFolder: the
// object folds the state it WOULD have in the π-renamed execution.
// rename is the permutation's value renamer (never nil; identity for
// the identity permutation). The contract mirrors StateFolder's, plus
// self-consistency across permutations:
//
//	FoldStateUnder(h, π, rename_π) of object o
//	  == FoldStateUnder(h, id, id) of the renamed object π(o)
//
// Per-process ownership encoded in the object NAME (e.g. SWMR cells of
// an announce array) is folded by the Canonicalizer through the spec's
// RenameObject, so implementations only rename stored values (and, for
// types like LLSC that track per-process state internally, their
// ProcID-keyed tables via the perm argument).
type PermStateFolder interface {
	FoldStateUnder(h Hash, perm []ProcID, rename func(Value) Value) Hash
}

// RenameIntKey renames a decision-fingerprint key "[a b c]" whose
// entries are all integers, mapping each through f and re-sorting into
// canonical order. It panics on a malformed or non-integer key — a
// protocol with non-integer decisions needs its own RenameOutcome.
func RenameIntKey(key string, f func(int) int) string {
	if len(key) < 2 || key[0] != '[' || key[len(key)-1] != ']' {
		panic(fmt.Sprintf("sim: RenameIntKey: malformed decision key %q", key))
	}
	body := key[1 : len(key)-1]
	if body == "" {
		return key
	}
	fields := strings.Fields(body)
	out := make([]string, len(fields))
	for i, fd := range fields {
		v, err := strconv.Atoi(fd)
		if err != nil {
			panic(fmt.Sprintf("sim: RenameIntKey: non-integer decision %q in key %q", fd, key))
		}
		out[i] = strconv.Itoa(f(v))
	}
	sort.Strings(out)
	return "[" + strings.Join(out, " ") + "]"
}

// DeclareSymmetry attaches a Symmetry spec to the system. The spec is
// a declaration only — it has no effect on a run unless an explorer
// validates it and passes the derived Canonicalizer via Config.Canon.
// Builders share one immutable spec across all their systems.
func (s *System) DeclareSymmetry(spec *Symmetry) { s.symmetry = spec }

// SymmetrySpec returns the declared Symmetry spec, or nil.
func (s *System) SymmetrySpec() *Symmetry { return s.symmetry }

// PendingObject returns the name of the object that process id's next
// granted step will operate on. Valid only for processes currently
// parked at their next operation (every process in the ready set), so
// call it from inside Scheduler.Next. This is the static footprint the
// explore package's independence pruning keys on: steps of distinct
// processes pending on distinct objects commute.
func (s *System) PendingObject(id ProcID) string {
	p := s.procs[id]
	if p.machine != nil {
		return p.machine.Pending().Obj.Name()
	}
	return p.obj.Name()
}

// Canonicalizer is the precomputed machinery that folds a System's
// global state under every permutation of its symmetry group. It is
// derived once per exploration from a probe system (NewCanonicalizer)
// and shared — read-only — by every worker and every probe run, so the
// per-run setup cost is a few slice headers, not |G|·|objects| work.
type Canonicalizer struct {
	spec  *Symmetry
	perms [][]ProcID
	inv   [][]ProcID // inv[k] is perms[k]⁻¹ as a lookup slice

	names    []string // sorted object names of the system shape
	objIndex map[string]int

	// Per-permutation precomputation (index 0 = identity):
	renameVal    []func(Value) Value   // value renamers (never nil)
	renamedNames [][]string            // renamedNames[k][i] renames names[i]
	foldOrder    [][]int               // indices into names, sorted by renamed name
	outRename    []func(string) string // outcome-key renamers (nil = identity)
	outRenameInv []func(string) string // under the inverse permutation
}

// NewCanonicalizer validates spec against the system's shape (objects
// and process count) and precomputes the per-permutation fold tables.
// It returns an error — symmetry must then stay disabled — when the
// permutation set is not a group on the system's processes, when an
// object does not support symmetry folding, or when RenameObject is
// not a bijection of the object set.
func NewCanonicalizer(sys *System, spec *Symmetry) (*Canonicalizer, error) {
	if spec == nil || len(spec.Perms) == 0 {
		return nil, fmt.Errorf("sim: symmetry: empty permutation set")
	}
	n := len(sys.procs)
	if n == 0 {
		return nil, fmt.Errorf("sim: symmetry: system has no processes")
	}
	seen := make(map[string]struct{}, len(spec.Perms))
	var key []byte
	hit := make([]bool, n)
	for k, p := range spec.Perms {
		if len(p) != n {
			return nil, fmt.Errorf("sim: symmetry: permutation %d has length %d, system has %d processes", k, len(p), n)
		}
		clear(hit)
		for _, id := range p {
			if id < 0 || int(id) >= n || hit[id] {
				return nil, fmt.Errorf("sim: symmetry: permutation %d (%v) is not a bijection of 0..%d", k, p, n-1)
			}
			hit[id] = true
		}
		key = permKey(key[:0], p)
		if _, dup := seen[string(key)]; dup {
			return nil, fmt.Errorf("sim: symmetry: duplicate permutation %v", p)
		}
		seen[string(key)] = struct{}{}
	}
	for i, id := range spec.Perms[0] {
		if int(id) != i {
			return nil, fmt.Errorf("sim: symmetry: Perms[0] must be the identity, got %v", spec.Perms[0])
		}
	}
	// Closure under composition: without it the canonical orientation
	// is not a true quotient (Canonical(π(s)) could differ from
	// Canonical(s)) and the reduction silently stops merging classes.
	// n! distinct permutations of n processes are all of S_n, which is
	// closed; any smaller set is checked pair by pair.
	if len(spec.Perms) != factorial(n) {
		comp := make([]ProcID, n)
		for _, a := range spec.Perms {
			for _, b := range spec.Perms {
				for i := range comp {
					comp[i] = a[b[i]]
				}
				key = permKey(key[:0], comp)
				if _, ok := seen[string(key)]; !ok {
					return nil, fmt.Errorf("sim: symmetry: permutation set not closed under composition (%v∘%v missing)", a, b)
				}
			}
		}
	}

	c := &Canonicalizer{spec: spec, perms: spec.Perms}
	c.names = make([]string, 0, len(sys.objects))
	for name, obj := range sys.objects {
		if _, ok := obj.(PermStateFolder); !ok {
			return nil, fmt.Errorf("sim: symmetry: object %q does not implement PermStateFolder", name)
		}
		c.names = append(c.names, name)
	}
	sort.Strings(c.names)
	c.objIndex = make(map[string]int, len(c.names))
	for i, name := range c.names {
		c.objIndex[name] = i
	}

	nPerm := len(c.perms)
	c.inv = make([][]ProcID, nPerm)
	c.renameVal = make([]func(Value) Value, nPerm)
	c.renamedNames = make([][]string, nPerm)
	c.foldOrder = make([][]int, nPerm)
	c.outRename = make([]func(string) string, nPerm)
	c.outRenameInv = make([]func(string) string, nPerm)
	for k := 0; k < nPerm; k++ {
		perm := c.perms[k]
		inv := make([]ProcID, n)
		for i, id := range perm {
			inv[id] = ProcID(i)
		}
		c.inv[k] = inv
		if k == 0 || spec.RenameValue == nil {
			c.renameVal[k] = func(v Value) Value { return v }
		} else {
			rv, p := spec.RenameValue, perm
			c.renameVal[k] = func(v Value) Value { return rv(v, p) }
		}
		rn := make([]string, len(c.names))
		for i, name := range c.names {
			if k == 0 || spec.RenameObject == nil {
				rn[i] = name
				continue
			}
			renamed := spec.RenameObject(name, perm)
			if _, ok := c.objIndex[renamed]; !ok {
				return nil, fmt.Errorf("sim: symmetry: RenameObject maps %q to %q, which is not an object of the system", name, renamed)
			}
			rn[i] = renamed
		}
		order := make([]int, len(c.names))
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool { return rn[order[a]] < rn[order[b]] })
		if k != 0 && spec.RenameObject != nil {
			// Bijectivity: a non-injective RenameObject would fold two
			// distinct objects under one name and drop another.
			for i := 1; i < len(order); i++ {
				if rn[order[i]] == rn[order[i-1]] {
					return nil, fmt.Errorf("sim: symmetry: RenameObject is not a bijection (two objects map to %q)", rn[order[i]])
				}
			}
		}
		c.renamedNames[k] = rn
		c.foldOrder[k] = order
		if k != 0 && spec.RenameOutcome != nil {
			ro, p, ip := spec.RenameOutcome, perm, inv
			c.outRename[k] = func(key string) string { return ro(key, p) }
			c.outRenameInv[k] = func(key string) string { return ro(key, ip) }
		}
	}
	return c, nil
}

// permKey appends p's map key to buf: the decimal IDs, comma-ended.
func permKey(buf []byte, p []ProcID) []byte {
	for _, id := range p {
		buf = strconv.AppendInt(buf, int64(id), 10)
		buf = append(buf, ',')
	}
	return buf
}

// factorial returns n!, or -1 where n! overflows an int; no slice of
// permutations is that long.
func factorial(n int) int {
	f := 1
	for i := 2; i <= n; i++ {
		if f > math.MaxInt/i {
			return -1
		}
		f *= i
	}
	return f
}

// NumPerms returns the size of the permutation group.
func (c *Canonicalizer) NumPerms() int { return len(c.perms) }

// OutcomeRenamer returns the outcome-key renamer for permutation k
// (nil means identity — safe to skip renaming entirely).
func (c *Canonicalizer) OutcomeRenamer(k int) func(string) string { return c.outRename[k] }

// OutcomeRenamerInv is OutcomeRenamer under the INVERSE of permutation
// k — what a table hit at canonical orientation k applies to translate
// the stored (canonical-coordinates) summary back into its own frame.
func (c *Canonicalizer) OutcomeRenamerInv(k int) func(string) string { return c.outRenameInv[k] }

// foldOpPerms extends proc.foldOp to every non-identity permutation:
// p.permHash[k-1] accumulates the observation history process p would
// have in the π_k-renamed execution. Like foldOp it folds only the
// (renamed) result — the renamed operation record is a function of the
// renamed prior results by the same determinism argument, applied to
// the renamed execution (which is an execution of the same protocol by
// the equivariance contract AuditSymmetry checks).
func (c *Canonicalizer) foldOpPerms(p *proc, result Value) {
	for k := 1; k < len(c.perms); k++ {
		p.permHash[k-1] = uint64(Hash(p.permHash[k-1]).FoldValue(c.renameVal[k](result)))
	}
}

// stateHashUnder folds — from scratch — the global state s WOULD have
// in the π_k-renamed execution, as the XOR combination of the
// per-permutation components (see fingerprint.go): renamed-name-salted
// object folds with renamed values, renamed-slot-salted process folds
// with the per-permutation observation hashes. By the PermStateFolder
// contract each object component equals the identity component of the
// renamed object, and XOR makes the combination order-free, so
// comparing combinations across k compares renamed states. canonSeed
// (≠ plainSeed) keeps this keyspace disjoint from plain StateHash — a
// census may legitimately mix both (see the StateHashCanon bail-out).
//
// This is the canonical keyspace's from-scratch reference: AuditSymmetry
// compares executions through it, and Config.VerifyFingerprints checks
// the incrementally maintained canonHash vector against it. A
// non-identity k needs s to have run with c as its Config.Canon (for
// the per-permutation observation hashes); k = 0 needs only
// Config.Fingerprint.
func (c *Canonicalizer) stateHashUnder(s *System, k int) (uint64, bool) {
	h := canonSeed
	for oi := range c.names {
		comp, ok := c.objCompUnder(s, k, oi)
		if !ok {
			return 0, false
		}
		h ^= mix64(comp)
	}
	for i := range s.procs {
		h ^= mix64(c.procCompUnder(s, k, i))
	}
	return h, true
}

// isSentinelErr reports whether err is one of the runner's ID-free
// sentinel errors. Any other error (an object rejection, a protocol
// error) may embed process IDs in its text, which the value renamers
// cannot reach — canonicalization must bail for such states.
func isSentinelErr(err error) bool {
	return err == ErrCrashed || err == ErrStepLimit || err == ErrHalted
}

// StateHashCanon is StateHash under the least permutation of the
// declared symmetry group: it returns the minimum of stateHashUnder
// over the whole group plus the index of the minimizing permutation
// (the state's canonical orientation). Symmetric states share a
// canonical fingerprint, so a transposition table keyed on it stores
// one subtree per symmetry class.
//
// When no Canonicalizer is configured, or some finished process holds
// a non-sentinel error (whose text may embed process IDs and therefore
// escapes the renamers), it falls back to the plain StateHash with
// orientation 0. The bail-out predicate is itself equivariant — a
// renamed execution errs exactly when the original does — so bailed
// states simply fold in the plain keyspace (canonSeed keeps the two
// keyspaces disjoint) and lose reduction, never soundness.
//
// The per-permutation hashes are incrementally maintained (see
// fingerprint.go): after the dirty-component flush this is a min over
// |G| cached words, not |G| full state folds.
func (s *System) StateHashCanon() (uint64, int, bool) {
	c := s.canon
	if c == nil {
		fp, ok := s.StateHash()
		return fp, 0, ok
	}
	for _, p := range s.procs {
		if p.done && p.err != nil && !isSentinelErr(p.err) {
			fp, ok := s.StateHash()
			return fp, 0, ok
		}
	}
	s.fpEnsure()
	if !s.fp.ok || !s.fp.canonOK {
		fp, ok := s.StateHash()
		return fp, 0, ok
	}
	if s.verifyFP {
		s.fpVerifyCanon()
	}
	best, bestK := s.fp.canonHash[0], 0
	for k := 1; k < len(s.fp.canonHash); k++ {
		if s.fp.canonHash[k] < best {
			best, bestK = s.fp.canonHash[k], k
		}
	}
	return best, bestK, true
}

// auditSched records a rotating schedule: at each decision point it
// picks ready[(step+offset) mod |ready|], diversifying interleavings
// across audit rounds without randomness.
type auditSched struct {
	offset int
	picks  []ProcID
}

func (a *auditSched) Next(ready []ProcID, step int) ProcID {
	id := ready[(step+a.offset)%len(ready)]
	a.picks = append(a.picks, id)
	return id
}

// auditReplay replays a recorded schedule with every pick mapped
// through a permutation; dead is set if a mapped pick was not ready —
// direct evidence the protocol is not equivariant under the spec.
type auditReplay struct {
	picks []ProcID
	perm  []ProcID
	i     int
	dead  bool
}

func (a *auditReplay) Next(ready []ProcID, _ int) ProcID {
	if a.i >= len(a.picks) {
		return Halt
	}
	want := a.perm[a.picks[a.i]]
	a.i++
	for _, r := range ready {
		if r == want {
			return want
		}
	}
	a.dead = true
	return Halt
}

// auditDecisionKey renders the multiset of decided values exactly like
// the explore package's DecisionFingerprint, optionally renamed.
func auditDecisionKey(res *Result, rename func(Value, []ProcID) Value, perm []ProcID) string {
	var vals []string
	for i, err := range res.Errors {
		if err != nil {
			continue
		}
		v := res.Values[i]
		if rename != nil {
			v = rename(v, perm)
		}
		vals = append(vals, fmt.Sprint(v))
	}
	sort.Strings(vals)
	return "[" + strings.Join(vals, " ") + "]"
}

// AuditSymmetry empirically checks the equivariance contract of c's
// spec against the builder: for `rounds` recorded base schedules and
// every non-identity permutation π of the group, replaying the
// π-renamed schedule on a fresh system must (a) never pick a non-ready
// process, (b) reach a final state whose identity fold equals the base
// state's fold under π, and (c) decide the π-renamed decision multiset
// — with RenameOutcome agreeing on the rendered keys whenever
// decisions are not permutation-invariant. A nil error is the
// explorer's license to enable symmetry reduction; any failure means
// the spec (or the protocol) is not symmetric and reduction must stay
// off.
//
// Only the base runs carry c as their Config.Canon: comparing against
// every π_k image needs the per-permutation observation hashes. A twin
// is compared through its identity image alone, so it runs with plain
// fingerprinting and its image is folded once, from scratch, after the
// run. Neither side keeps canonical vectors (nothing reads them
// mid-run), so the audit costs rounds·|G| short runs plus
// 2·rounds·(|G|−1) from-scratch folds of a final state.
func AuditSymmetry(build func() *System, c *Canonicalizer, rounds, maxSteps int) error {
	if rounds <= 0 {
		rounds = 1
	}
	if maxSteps <= 0 {
		maxSteps = 64
	}
	for r := 0; r < rounds; r++ {
		base := build()
		rec := &auditSched{offset: r}
		bres, err := base.Run(Config{
			Scheduler: rec, Fingerprint: true, Canon: c,
			MaxTotalSteps: maxSteps, DisableTrace: true,
		})
		if err != nil {
			return fmt.Errorf("symmetry audit: base run: %w", err)
		}
		bailed := false
		for _, e := range bres.Errors {
			if e != nil && !isSentinelErr(e) {
				bailed = true // canonicalization would bail here anyway
			}
		}
		if bailed {
			continue
		}
		baseKey := auditDecisionKey(bres, nil, nil)
		for k := 1; k < c.NumPerms(); k++ {
			perm := c.perms[k]
			fpK, ok := c.stateHashUnder(base, k)
			if !ok {
				return fmt.Errorf("symmetry audit: object lost PermStateFolder support mid-run")
			}
			twin := build()
			rp := &auditReplay{picks: rec.picks, perm: perm}
			tres, err := twin.Run(Config{
				Scheduler: rp, Fingerprint: true,
				MaxTotalSteps: maxSteps, DisableTrace: true,
			})
			if err != nil {
				return fmt.Errorf("symmetry audit: renamed run: %w", err)
			}
			if rp.dead {
				return fmt.Errorf("symmetry audit: protocol not equivariant: schedule renamed under %v diverged (renamed pick not ready)", perm)
			}
			fp0, ok := c.stateHashUnder(twin, 0)
			if !ok {
				return fmt.Errorf("symmetry audit: object lost PermStateFolder support mid-run")
			}
			if fp0 != fpK {
				return fmt.Errorf("symmetry audit: state fold mismatch under %v (round %d): the spec's renamers do not match the protocol", perm, r)
			}
			twinKey := auditDecisionKey(tres, nil, nil)
			renamedKey := auditDecisionKey(bres, c.spec.RenameValue, perm)
			if renamedKey != twinKey {
				return fmt.Errorf("symmetry audit: RenameValue maps decisions %s to %s but the renamed run decided %s (perm %v)", baseKey, renamedKey, twinKey, perm)
			}
			if baseKey != twinKey && c.spec.RenameOutcome == nil {
				return fmt.Errorf("symmetry audit: decisions are permutation-sensitive (%s vs %s under %v) but the spec has no RenameOutcome", baseKey, twinKey, perm)
			}
			if c.spec.RenameOutcome != nil {
				if got := c.spec.RenameOutcome(baseKey, perm); got != twinKey {
					return fmt.Errorf("symmetry audit: RenameOutcome maps %s to %s but the renamed run decided %s (perm %v)", baseKey, got, twinKey, perm)
				}
			}
		}
	}
	return nil
}
