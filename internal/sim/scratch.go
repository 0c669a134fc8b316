package sim

// Scratch is reusable per-run working memory. A schedule explorer
// executes millions of short runs whose Results are usually inspected
// and discarded; without reuse, every run allocates the Result struct
// plus four per-process slices. Passing a Scratch through
// Config.Scratch makes Run build its Result inside the scratch's
// buffers instead.
//
// Ownership contract: the *Result returned by Run aliases the Scratch.
// It is valid until the same Scratch is passed to another Run. A caller
// that wants to retain a Result (for example as a recorded violation
// witness) must copy it, stop reusing the scratch, or — as the explore
// engine does — keep the run's schedule and replay it later.
//
// A Scratch is not safe for concurrent use; give each worker its own.
type Scratch struct {
	res     Result
	values  []Value
	errors  []error
	crashed []bool
	steps   []int
	halt    []ProcID
	perm    []uint64
	fpwords []uint64
	fpints  []int
	fpmarks []bool
	fpobjs  []Object
	fpfold  []StateFolder
	fpkey   []StateKeyer
	fpperm  []PermStateFolder
}

// NewScratch returns an empty Scratch. Buffers grow on first use and
// are retained across runs.
func NewScratch() *Scratch {
	return &Scratch{}
}

// prep clears the scratch for a run of n processes and returns the
// embedded Result with zeroed, length-n slices.
func (sc *Scratch) prep(n int) *Result {
	sc.values = resliceValues(sc.values, n)
	sc.errors = resliceErrors(sc.errors, n)
	sc.crashed = resliceBools(sc.crashed, n)
	sc.steps = resliceInts(sc.steps, n)
	sc.res = Result{
		Values:  sc.values,
		Errors:  sc.errors,
		Crashed: sc.crashed,
		Steps:   sc.steps,
	}
	return &sc.res
}

// permBuf returns a length-n buffer backing the per-permutation
// observation hashes of a canonicalized run (Run overwrites every
// entry before use).
func (sc *Scratch) permBuf(n int) []uint64 {
	if cap(sc.perm) < n {
		sc.perm = make([]uint64, n)
	}
	return sc.perm[:n]
}

// fpBufs returns the backing storage for the incremental fingerprint
// cache (fpState.alloc): `words` component/hash words, plus `slots`
// dirty-queue ints and dirty-mark bools. The caller zeroes the marks;
// everything else is overwritten before use.
func (sc *Scratch) fpBufs(words, slots int) ([]uint64, []int, []bool) {
	if cap(sc.fpwords) < words {
		sc.fpwords = make([]uint64, words)
	}
	if cap(sc.fpints) < slots {
		sc.fpints = make([]int, slots)
	}
	if cap(sc.fpmarks) < slots {
		sc.fpmarks = make([]bool, slots)
	}
	return sc.fpwords[:words], sc.fpints[:slots], sc.fpmarks[:slots]
}

// fpObjBufs returns the object-pointer caches of the fingerprint flush
// path (fpState.alloc). Rebuild overwrites every entry before use.
func (sc *Scratch) fpObjBufs(n int) ([]Object, []StateFolder, []StateKeyer, []PermStateFolder) {
	if cap(sc.fpobjs) < n {
		sc.fpobjs = make([]Object, n)
	}
	if cap(sc.fpfold) < n {
		sc.fpfold = make([]StateFolder, n)
	}
	if cap(sc.fpkey) < n {
		sc.fpkey = make([]StateKeyer, n)
	}
	if cap(sc.fpperm) < n {
		sc.fpperm = make([]PermStateFolder, n)
	}
	return sc.fpobjs[:n], sc.fpfold[:n], sc.fpkey[:n], sc.fpperm[:n]
}

// haltList copies ready into the retained ReadyAtHalt buffer.
func (sc *Scratch) haltList(ready []ProcID) []ProcID {
	sc.halt = append(sc.halt[:0], ready...)
	return sc.halt
}

func resliceValues(b []Value, n int) []Value {
	if cap(b) < n {
		return make([]Value, n)
	}
	b = b[:n]
	for i := range b {
		b[i] = nil
	}
	return b
}

func resliceErrors(b []error, n int) []error {
	if cap(b) < n {
		return make([]error, n)
	}
	b = b[:n]
	for i := range b {
		b[i] = nil
	}
	return b
}

func resliceBools(b []bool, n int) []bool {
	if cap(b) < n {
		return make([]bool, n)
	}
	b = b[:n]
	for i := range b {
		b[i] = false
	}
	return b
}

func resliceInts(b []int, n int) []int {
	if cap(b) < n {
		return make([]int, n)
	}
	b = b[:n]
	for i := range b {
		b[i] = 0
	}
	return b
}
