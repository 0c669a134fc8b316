package sim

import (
	"fmt"
	"sort"
)

// StateKeyer is implemented by Objects whose state can be rendered as a
// canonical string. Two objects of the same type with equal StateKeys
// must be observationally equivalent: every future operation sequence
// yields identical results from either. The key must be deterministic
// across process runs (no pointer addresses, no map-iteration order —
// fmt renders maps sorted, which is acceptable).
//
// StateKey is what makes a System fingerprintable: schedule explorers
// hash object keys together with per-process observation histories to
// recognize when two different schedule prefixes reached the same
// global state (see System.StateHash and the explore package's
// transposition pruning).
type StateKeyer interface {
	StateKey() string
}

// StateFolder is the allocation-free refinement of StateKeyer: instead
// of rendering state to a string, the object folds its state directly
// into a Hash. StateHash prefers FoldState over StateKey when both are
// implemented, so hot exploration loops never touch fmt. The same
// equivalence contract applies: equal folds ⇒ observationally
// equivalent objects, and the fold must be deterministic across
// process runs.
type StateFolder interface {
	FoldState(h Hash) Hash
}

// ValueFolder is implemented by Value types that can fold themselves
// into a Hash without string formatting. Hash.Value uses it for
// protocol-specific types (e.g. objects.Symbol); plain ints, bools,
// strings and errors already have allocation-free cases.
type ValueFolder interface {
	FoldValue(h Hash) Hash
}

// ValueKey canonically renders a Value for state hashing. Values stored
// in objects or decided by processes must render deterministically
// under %v for fingerprints to be meaningful: structs, slices, maps,
// strings and numbers are fine; raw pointers are not (their addresses
// differ between rebuilt systems).
func ValueKey(v Value) string { return fmt.Sprintf("%v", v) }

// FNV-1a parameters, inlined so hashing needs no allocation.
const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

// Hash is an incrementally built FNV-1a fingerprint. All Fold methods
// are allocation-free; each input kind is framed with a distinct tag
// byte so adjacent fields cannot alias ((1,"") vs ("",1), int 1 vs
// string "1", and so on).
type Hash uint64

// NewHash returns the FNV-1a offset basis.
func NewHash() Hash { return Hash(fnvOffset64) }

// FoldByte folds one byte.
func (h Hash) FoldByte(b byte) Hash {
	x := uint64(h)
	x ^= uint64(b)
	x *= fnvPrime64
	return Hash(x)
}

// FoldString folds s plus a terminator so ("ab","c") and ("a","bc")
// hash differently.
func (h Hash) FoldString(s string) Hash {
	x := uint64(h)
	for i := 0; i < len(s); i++ {
		x ^= uint64(s[i])
		x *= fnvPrime64
	}
	x ^= 0xff
	x *= fnvPrime64
	return Hash(x)
}

// FoldUint64 folds v as one word: xor, multiply, fold the high bits
// back down. Cheaper than eight byte rounds and still invertible in
// both arguments, which is all the fingerprinting layers need — words
// are framed by the surrounding tag bytes exactly like the byte form
// was. This is the hottest fold in the simulator (every per-step
// observation fold and every per-component state fold goes through
// it), which is why it is not the generic byte loop.
func (h Hash) FoldUint64(v uint64) Hash {
	x := uint64(h) ^ v
	x *= fnvPrime64
	x ^= x >> 32
	return Hash(x)
}

// FoldInt folds v as its two's-complement uint64 image.
func (h Hash) FoldInt(v int) Hash { return h.FoldUint64(uint64(v)) }

// FoldBool folds one byte distinguishing true from false.
func (h Hash) FoldBool(b bool) Hash {
	if b {
		return h.FoldByte(1)
	}
	return h.FoldByte(0)
}

// Tag bytes framing each Value kind in Hash.FoldValue. Distinct tags
// keep differently-typed values with the same binary image apart.
const (
	tagNil    byte = 0xe0
	tagFolder byte = 0xe1
	tagInt    byte = 0xe2
	tagBool   byte = 0xe3
	tagString byte = 0xe4
	tagProcID byte = 0xe5
	tagError  byte = 0xe6
	tagOther  byte = 0xe7
)

// FoldValue folds an operation argument or result. Common protocol
// value types (nil, int, bool, string, ProcID, error, and anything
// implementing ValueFolder) fold without allocation; anything else
// falls back to fmt, preserving the ValueKey determinism contract.
func (h Hash) FoldValue(v Value) Hash {
	switch x := v.(type) {
	case nil:
		return h.FoldByte(tagNil)
	case ValueFolder:
		return x.FoldValue(h.FoldByte(tagFolder))
	case int:
		return h.FoldByte(tagInt).FoldInt(x)
	case bool:
		return h.FoldByte(tagBool).FoldBool(x)
	case string:
		return h.FoldByte(tagString).FoldString(x)
	case ProcID:
		return h.FoldByte(tagProcID).FoldInt(int(x))
	case error:
		return h.FoldByte(tagError).FoldString(x.Error())
	default:
		return h.FoldByte(tagOther).FoldString(ValueKey(v))
	}
}

// Per-process status tags folded into the fingerprint components.
const (
	tagProcErr     byte = 0xd0
	tagProcDone    byte = 0xd1
	tagProcLive    byte = 0xd2
	tagProcCrashed byte = 0xd3
)

// StateHash returns a deterministic fingerprint of the System's current
// global state: the state fold (or StateKey) of every object (in name
// order) plus, for each process, its accumulated observation history
// (the sequence of operations it performed with their results), step
// count, and completion status. Fingerprinting must have been enabled
// by Config.Fingerprint — without it the per-step observation hashes
// were never accumulated — and every object must implement StateFolder
// or StateKeyer; otherwise ok is false.
//
// Soundness: a process is deterministic, communicates only through
// shared operations, and is parked at its next operation between
// steps, so its entire local state ("PC + locals") is a function of its
// observation history. Two prefixes with equal fingerprints therefore
// reach global states from which the same schedules produce identical
// Results (up to hash collision; explorers cross-check on small
// instances).
//
// StateHash may be called from inside Scheduler.Next or
// FaultPlan.CrashNow: at every decision point every live process is
// parked at its next operation, so the state is quiescent. This is
// the cheap mid-run observation hook used by the explore package to
// fingerprint the frontier without a separate replay per node.
// StateHash is incrementally maintained (see fingerprint.go): the
// first call builds the per-component cache, later calls recompute only
// the components the runner marked dirty since — O(steps since last
// read), not O(state).
func (s *System) StateHash() (uint64, bool) {
	if !s.fingerprint {
		return 0, false
	}
	s.fpEnsure()
	if !s.fp.ok {
		return 0, false
	}
	if s.verifyFP {
		s.fpVerifyPlain()
	}
	return s.fp.plain, true
}

// sortedNames returns the object names in sorted order, cached after
// the first call (object sets are static once a run starts). Both
// StateHash and machine snapshots iterate objects in this order.
func (s *System) sortedNames() []string {
	if len(s.objNames) != len(s.objects) {
		s.objNames = s.objNames[:0]
		for name := range s.objects {
			s.objNames = append(s.objNames, name)
		}
		sort.Strings(s.objNames)
	}
	return s.objNames
}

// foldOp accumulates one observed operation into the process's
// observation-history hash. Called from the runner's step while the
// process is parked at that operation, so the write is race-free.
//
// Only the RESULT is folded. The process is deterministic, so which
// object it targets, which operation it issues and with which arguments
// are all functions of its prior results (the first operation is fixed
// by the program): by induction, the sequence of results determines the
// full observation record. Folding the result alone therefore yields
// the same equivalence classes as folding the whole record — and it is
// the difference between one word fold and several string folds on the
// hottest line of every fingerprinted exploration.
func (p *proc) foldOp(result Value) {
	p.opHash = uint64(Hash(p.opHash).FoldValue(result))
}
