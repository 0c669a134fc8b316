package sim

// Incremental state fingerprinting. StateHash used to re-fold every
// object and every process history at every decision point, and
// StateHashCanon repeated that for each permutation of the symmetry
// group — O(|objects| + |procs|) (times |G| for canon) per probe, the
// dominant cost of fingerprinted exploration. But each shared step
// mutates exactly one object and one process, so almost all of that
// work recomputed unchanged components.
//
// The global fingerprint is now a combination of per-component 64-bit
// hashes — one per object, one per process — merged with a slot-salted
// mixer:
//
//	plain = plainSeed ^ XOR_i mix64(objComp[i]) ^ XOR_j mix64(procComp[j])
//
// XOR makes any single component replaceable in O(1): when component c
// changes from old to new, plain ^= mix64(old) ^ mix64(new). mix64 (the
// splitmix64 finalizer, a bijection on 64-bit words) decorrelates the
// components before XOR folds them, so single-bit component differences
// do not cancel. Each component is salted with its slot — objects fold
// their (unique) name, processes fold their index — so two distinct
// slots never contribute identical terms that XOR could cancel (two
// symmetric processes in the same local state must not erase each
// other). The canonical keyspace keeps one such combination per
// permutation k, built from per-permutation component vectors, so
// StateHashCanon patches |G| cached entries per step and takes a min
// over |G| cached words instead of |G| full state folds.
//
// Dirty discipline: the runners mark the object and process touched by
// each step (fpTouchObj/fpTouchProc); the next fingerprint read
// recomputes just the marked components and patches the combined
// hashes (fpFlush). Maintenance is lazy — until the first read
// (fp.init), touches are no-ops and the first StateHash/Snapshot does
// one full rebuild — so runs that never observe mid-run fingerprints
// (benchmarks, plain censuses) pay only the per-step result fold.
// Config.VerifyFingerprints cross-checks incremental against
// from-scratch at every read and panics on divergence.
//
// See DESIGN.md §10 "Incremental fingerprint soundness".

import (
	"fmt"
	"sort"
)

// mix64 is the splitmix64 finalizer: a bijective avalanche on 64-bit
// words, applied to every component before the XOR combination.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Seeds keeping the plain and canonical keyspaces disjoint: a census
// may legitimately mix both (see the StateHashCanon bail-out), so a
// plain fingerprint must never equal a canonical one by construction.
const (
	plainSeed uint64 = 0x243f6a8885a308d3
	canonSeed uint64 = 0x13198a2e03707344
)

// fpState is the incremental-fingerprint cache embedded in System.
// All vectors are backed by one Scratch-supplied buffer when a Scratch
// is configured, so fingerprinted exploration runs allocate nothing
// here after warm-up.
type fpState struct {
	// init is set by the first rebuild; until then touches are no-ops.
	// ok mirrors StateHash's ok (every object foldable); canonOK
	// additionally requires PermStateFolder support on every object.
	init    bool
	ok      bool
	canonOK bool

	nObj, nProc, nPerm int

	objComp  []uint64 // objComp[i]: component of object sortedNames[i]
	procComp []uint64 // procComp[j]: component of process j
	plain    uint64   // plainSeed ^ XOR mix64(components)

	// Canonical keyspace, flattened over permutations (nPerm = |G|,
	// including the identity at k=0):
	canonObj  []uint64 // canonObj[k*nObj+i]
	canonProc []uint64 // canonProc[k*nProc+j]
	canonHash []uint64 // canonHash[k] = canonSeed ^ XOR mix64(...)

	// Dirty-component bookkeeping: indices awaiting recompute, with a
	// membership bitmap so a component is queued at most once between
	// flushes, and a one-entry name→index cache for the common case of
	// consecutive steps touching the same object.
	dirtyO, dirtyP []int
	markO, markP   []bool
	lastName       string
	lastIdx        int

	// Rebuild-time derived caches, step-invariant for a given System
	// shape (object set, process count, symmetry group), so the flush
	// path recomputes a component without the map lookup, interface
	// re-assertion and salt re-fold that a from-scratch fold pays.
	// Derived, not state: never snapshotted or restored.
	objs          []Object          // objs[i]: object sortedNames[i]
	foldObjs      []StateFolder     // objs[i], asserted once; nil → keyObjs
	keyObjs       []StateKeyer      // fallback fold when foldObjs[i] is nil
	permObjs      []PermStateFolder // objs[i], asserted once (canonOK)
	objSalt       []uint64          // Hash after FoldString(name)
	procSalt      []uint64          // Hash after FoldInt(j)
	canonObjSalt  []uint64          // [k*nObj+i]: after renamed-name fold
	canonProcSalt []uint64          // [k*nProc+j]: after FoldInt(π_k(j))
}

// alloc sizes the vectors for this system shape, drawing backing
// storage from sc when available. Marks are cleared (Scratch buffers
// carry stale state from the previous run); component words need no
// zeroing — rebuild overwrites every entry before it is read.
func (fp *fpState) alloc(nObj, nProc, nPerm int, sc *Scratch) {
	fp.nObj, fp.nProc, fp.nPerm = nObj, nProc, nPerm
	words := (nObj + nProc + nPerm*(1+nObj+nProc)) * 2
	var buf []uint64
	var ints []int
	var marks []bool
	if sc != nil {
		buf, ints, marks = sc.fpBufs(words, nObj+nProc)
		fp.objs, fp.foldObjs, fp.keyObjs, fp.permObjs = sc.fpObjBufs(nObj)
	} else {
		buf = make([]uint64, words)
		ints = make([]int, nObj+nProc)
		marks = make([]bool, nObj+nProc)
		fp.objs = make([]Object, nObj)
		fp.foldObjs = make([]StateFolder, nObj)
		fp.keyObjs = make([]StateKeyer, nObj)
		fp.permObjs = make([]PermStateFolder, nObj)
	}
	fp.objComp, buf = buf[:nObj:nObj], buf[nObj:]
	fp.procComp, buf = buf[:nProc:nProc], buf[nProc:]
	fp.objSalt, buf = buf[:nObj:nObj], buf[nObj:]
	fp.procSalt, buf = buf[:nProc:nProc], buf[nProc:]
	if nPerm > 0 {
		fp.canonHash, buf = buf[:nPerm:nPerm], buf[nPerm:]
		fp.canonObj, buf = buf[:nPerm*nObj:nPerm*nObj], buf[nPerm*nObj:]
		fp.canonProc, buf = buf[:nPerm*nProc:nPerm*nProc], buf[nPerm*nProc:]
		fp.canonObjSalt, buf = buf[:nPerm*nObj:nPerm*nObj], buf[nPerm*nObj:]
		fp.canonProcSalt = buf[: nPerm*nProc : nPerm*nProc]
	} else {
		fp.canonHash, fp.canonObj, fp.canonProc = nil, nil, nil
		fp.canonObjSalt, fp.canonProcSalt = nil, nil
	}
	fp.dirtyO = ints[:0:nObj]
	fp.dirtyP = ints[nObj : nObj : nObj+nProc]
	fp.markO = marks[:nObj]
	fp.markP = marks[nObj:]
	for i := range marks {
		marks[i] = false
	}
	fp.lastName, fp.lastIdx = "", 0
}

// fpObjComp folds one object's plain component: its name (the slot
// salt — names are unique) followed by its state fold.
func fpObjComp(name string, obj Object) (uint64, bool) {
	h := NewHash().FoldString(name)
	switch o := obj.(type) {
	case StateFolder:
		return uint64(o.FoldState(h)), true
	case StateKeyer:
		return uint64(h.FoldString(o.StateKey())), true
	default:
		return 0, false
	}
}

// fpProcTail finishes a process component fold: completion status with
// the (possibly renamed) decision value v, then the crash flag. v is
// only read in the decided case, so live-process callers pass nil.
func fpProcTail(h Hash, p *proc, v Value) uint64 {
	switch {
	case p.done && p.err != nil:
		h = h.FoldByte(tagProcErr).FoldString(p.err.Error())
	case p.done:
		h = h.FoldByte(tagProcDone).FoldValue(v)
	default:
		h = h.FoldByte(tagProcLive)
	}
	if p.crashed {
		h = h.FoldByte(tagProcCrashed)
	}
	return uint64(h)
}

// fpProcComp folds process j's plain component: its slot (the salt —
// without it two symmetric processes in identical local states would
// contribute equal terms and XOR-cancel), observation-history hash,
// step count and completion status.
func fpProcComp(j int, p *proc) uint64 {
	h := NewHash().FoldInt(j).FoldUint64(p.opHash).FoldInt(p.steps)
	return fpProcTail(h, p, p.value)
}

// objCompUnder folds object oi's component of s as it would appear in
// the π_k-renamed execution: the renamed name as the slot salt, the
// state folded with renamed values. By the PermStateFolder contract
// this equals the identity component of the renamed object, so
// XOR-combining over all objects matches the renamed execution's plain
// combination.
func (c *Canonicalizer) objCompUnder(s *System, k, oi int) (uint64, bool) {
	obj, ok := s.objects[c.names[oi]].(PermStateFolder)
	if !ok {
		return 0, false
	}
	h := NewHash().FoldString(c.renamedNames[k][oi])
	return uint64(obj.FoldStateUnder(h, c.perms[k], c.renameVal[k])), true
}

// procCompUnder folds process i's component of s in the π_k-renamed
// execution: slot salt π_k(i) (the slot the process occupies after
// renaming), the per-permutation observation hash, and the status with
// a renamed decision value. XOR makes the combination order-free, so
// salting with the renamed slot is exactly folding the processes in
// renamed-ID order. The identity (k = 0) reads only the plain
// observation hash, so it needs no per-permutation hashes: a system
// run without Config.Canon has its identity image folded too.
func (c *Canonicalizer) procCompUnder(s *System, k, i int) uint64 {
	p := s.procs[i]
	oph := p.opHash
	if k != 0 {
		oph = p.permHash[k-1]
	}
	h := NewHash().FoldInt(int(c.perms[k][i])).FoldUint64(oph).FoldInt(p.steps)
	var v Value
	if p.done && p.err == nil {
		v = c.renameVal[k](p.value)
	}
	return fpProcTail(h, p, v)
}

// Cached-salt component recomputes — the flush/rebuild fast path. Each
// must fold the exact sequence of its from-scratch counterpart above
// (fpObjComp / fpProcComp / objCompUnder / procCompUnder): the
// VerifyFingerprints cross-checks compare their results word-for-word.

// objCompCached uses the foldObjs/keyObjs assertions made at rebuild
// rather than a type switch: an interface-case switch goes through
// runtime.interfaceSwitch, whose cache write allocates — a steady-state
// allocation on the flush path (visible under -race, where the
// compiler's switch cache is disabled and every call enters the
// runtime).
func (fp *fpState) objCompCached(oi int) (uint64, bool) {
	h := Hash(fp.objSalt[oi])
	if o := fp.foldObjs[oi]; o != nil {
		return uint64(o.FoldState(h)), true
	}
	if o := fp.keyObjs[oi]; o != nil {
		return uint64(h.FoldString(o.StateKey())), true
	}
	return 0, false
}

func (s *System) fpProcCompCached(j int) uint64 {
	p := s.procs[j]
	h := Hash(s.fp.procSalt[j]).FoldUint64(p.opHash).FoldInt(p.steps)
	return fpProcTail(h, p, p.value)
}

func (s *System) fpCanonObjCompCached(k, oi int) uint64 {
	fp := &s.fp
	c := s.canon
	h := Hash(fp.canonObjSalt[k*fp.nObj+oi])
	return uint64(fp.permObjs[oi].FoldStateUnder(h, c.perms[k], c.renameVal[k]))
}

func (s *System) fpCanonProcCompCached(k, j int) uint64 {
	fp := &s.fp
	p := s.procs[j]
	oph := p.opHash
	if k != 0 {
		oph = p.permHash[k-1]
	}
	h := Hash(fp.canonProcSalt[k*fp.nProc+j]).FoldUint64(oph).FoldInt(p.steps)
	var v Value
	if p.done && p.err == nil {
		v = s.canon.renameVal[k](p.value)
	}
	return fpProcTail(h, p, v)
}

// fpTouchObj marks the named object's components stale. Called from
// both runners after every step (and on the operation-error path, in
// case the object mutated before rejecting). No-op until the first
// fingerprint read builds the cache.
func (s *System) fpTouchObj(name string) {
	fp := &s.fp
	if !fp.init || !fp.ok {
		return
	}
	if name != fp.lastName {
		fp.lastIdx = sort.SearchStrings(s.objNames, name)
		fp.lastName = name
	}
	if i := fp.lastIdx; i < len(fp.markO) && !fp.markO[i] {
		fp.markO[i] = true
		fp.dirtyO = append(fp.dirtyO, i)
	}
}

// fpTouchProc marks process j's components stale.
func (s *System) fpTouchProc(j int) {
	fp := &s.fp
	if !fp.init || !fp.ok {
		return
	}
	if !fp.markP[j] {
		fp.markP[j] = true
		fp.dirtyP = append(fp.dirtyP, j)
	}
}

// fpEnsure brings the cached fingerprints up to date: a full rebuild on
// first use, a dirty-component flush afterwards. Callers must hold the
// runner's quiescence (decision points only), the same condition
// StateHash always required.
func (s *System) fpEnsure() {
	if !s.fp.init {
		s.fpRebuild()
		return
	}
	if s.fp.ok {
		s.fpFlush()
	}
}

// fpRebuild computes every component and combined hash from scratch.
func (s *System) fpRebuild() {
	fp := &s.fp
	names := s.sortedNames()
	nPerm := 0
	if s.canon != nil {
		nPerm = len(s.canon.perms)
	}
	fp.alloc(len(names), len(s.procs), nPerm, s.scratch)
	fp.init = true
	fp.ok = true
	fp.canonOK = nPerm > 0
	for i, name := range names {
		fp.objs[i] = s.objects[name]
		fp.objSalt[i] = uint64(NewHash().FoldString(name))
		fp.foldObjs[i], fp.keyObjs[i] = nil, nil
		switch o := fp.objs[i].(type) {
		case StateFolder:
			fp.foldObjs[i] = o
		case StateKeyer:
			fp.keyObjs[i] = o
		}
	}
	for j := range s.procs {
		fp.procSalt[j] = uint64(NewHash().FoldInt(j))
	}
	plain := plainSeed
	for i := range names {
		comp, ok := fp.objCompCached(i)
		if !ok {
			fp.ok = false
			return
		}
		fp.objComp[i] = comp
		plain ^= mix64(comp)
	}
	for j := range s.procs {
		comp := s.fpProcCompCached(j)
		fp.procComp[j] = comp
		plain ^= mix64(comp)
	}
	fp.plain = plain
	if nPerm == 0 {
		return
	}
	c := s.canon
	for i := range names {
		po, ok := fp.objs[i].(PermStateFolder)
		if !ok {
			fp.canonOK = false
			return
		}
		fp.permObjs[i] = po
	}
	for k := 0; k < nPerm; k++ {
		for oi := range names {
			fp.canonObjSalt[k*fp.nObj+oi] = uint64(NewHash().FoldString(c.renamedNames[k][oi]))
		}
		for j := range s.procs {
			fp.canonProcSalt[k*fp.nProc+j] = uint64(NewHash().FoldInt(int(c.perms[k][j])))
		}
		h := canonSeed
		for oi := range names {
			comp := s.fpCanonObjCompCached(k, oi)
			fp.canonObj[k*fp.nObj+oi] = comp
			h ^= mix64(comp)
		}
		for i := range s.procs {
			comp := s.fpCanonProcCompCached(k, i)
			fp.canonProc[k*fp.nProc+i] = comp
			h ^= mix64(comp)
		}
		fp.canonHash[k] = h
	}
}

// fpClearDirty empties the dirty queues (marks included).
func (fp *fpState) fpClearDirty() {
	for _, i := range fp.dirtyO {
		fp.markO[i] = false
	}
	for _, j := range fp.dirtyP {
		fp.markP[j] = false
	}
	fp.dirtyO = fp.dirtyO[:0]
	fp.dirtyP = fp.dirtyP[:0]
}

// fpFlush recomputes the dirty components and patches the combined
// hashes — O(dirty · (1 + |G|)) instead of O(state).
func (s *System) fpFlush() {
	fp := &s.fp
	if len(fp.dirtyO) == 0 && len(fp.dirtyP) == 0 {
		return
	}
	for _, oi := range fp.dirtyO {
		// Objects cannot change type mid-run, so foldability established
		// at rebuild holds; the check guards hypothetical future objects.
		comp, ok := fp.objCompCached(oi)
		if !ok {
			fp.ok = false
			fp.fpClearDirty()
			return
		}
		if old := fp.objComp[oi]; old != comp {
			fp.plain ^= mix64(old) ^ mix64(comp)
			fp.objComp[oi] = comp
		}
		if fp.canonOK {
			for k := 0; k < fp.nPerm; k++ {
				c2 := s.fpCanonObjCompCached(k, oi)
				if old := fp.canonObj[k*fp.nObj+oi]; old != c2 {
					fp.canonHash[k] ^= mix64(old) ^ mix64(c2)
					fp.canonObj[k*fp.nObj+oi] = c2
				}
			}
		}
	}
	for _, j := range fp.dirtyP {
		comp := s.fpProcCompCached(j)
		if old := fp.procComp[j]; old != comp {
			fp.plain ^= mix64(old) ^ mix64(comp)
			fp.procComp[j] = comp
		}
		if fp.canonOK {
			for k := 0; k < fp.nPerm; k++ {
				c2 := s.fpCanonProcCompCached(k, j)
				if old := fp.canonProc[k*fp.nProc+j]; old != c2 {
					fp.canonHash[k] ^= mix64(old) ^ mix64(c2)
					fp.canonProc[k*fp.nProc+j] = c2
				}
			}
		}
	}
	fp.fpClearDirty()
}

// fpPlainScratch is the from-scratch reference for the plain keyspace,
// used by Config.VerifyFingerprints and the incremental-vs-recompute
// tests. It touches no cached state.
func (s *System) fpPlainScratch() (uint64, bool) {
	h := plainSeed
	for _, name := range s.sortedNames() {
		comp, ok := fpObjComp(name, s.objects[name])
		if !ok {
			return 0, false
		}
		h ^= mix64(comp)
	}
	for j, p := range s.procs {
		h ^= mix64(fpProcComp(j, p))
	}
	return h, true
}

// fpVerifyPlain cross-checks the incrementally maintained plain
// fingerprint against a from-scratch recompute, panicking on
// divergence — a missed dirty mark or a stale component is a soundness
// bug worth dying loudly for.
func (s *System) fpVerifyPlain() {
	want, ok := s.fpPlainScratch()
	if !ok || want != s.fp.plain {
		panic(fmt.Sprintf("sim: VerifyFingerprints: incremental plain fingerprint %#x != from-scratch %#x (ok=%v) at step %d",
			s.fp.plain, want, ok, s.steps))
	}
}

// fpVerifyCanon cross-checks every cached per-permutation hash against
// stateHashUnder, the from-scratch canonical reference.
func (s *System) fpVerifyCanon() {
	for k := 0; k < s.fp.nPerm; k++ {
		want, ok := s.canon.stateHashUnder(s, k)
		if !ok || want != s.fp.canonHash[k] {
			panic(fmt.Sprintf("sim: VerifyFingerprints: incremental canonical fingerprint %#x != from-scratch %#x (ok=%v) under permutation %d at step %d",
				s.fp.canonHash[k], want, ok, k, s.steps))
		}
	}
}

// fpSnapshot appends the fingerprint cache to a machine snapshot. The
// cache is ensured first: the explore engines snapshot at frontier
// pushes that do not always read a hash (skip-checked shadow frames,
// the initial (0,0) snapshot), and restoring must land on a coherent
// cache. After this the dirty queues are empty, so the snapshot is
// exactly the vectors plus validity bits.
func (s *System) fpSnapshot(sn *Snap) {
	s.fpEnsure()
	fp := &s.fp
	sn.Bool(fp.ok)
	if !fp.ok {
		return
	}
	sn.Uint64(fp.plain)
	sn.Uint64s(fp.objComp)
	sn.Uint64s(fp.procComp)
	if fp.nPerm == 0 {
		return
	}
	sn.Bool(fp.canonOK)
	if !fp.canonOK {
		return
	}
	sn.Uint64s(fp.canonHash)
	sn.Uint64s(fp.canonObj)
	sn.Uint64s(fp.canonProc)
}

// fpRestore rewinds the fingerprint cache to a snapshot written by
// fpSnapshot. Canon vectors roll back too: the per-permutation hashes
// depend on the restored permHash and object states, so leaving them
// would silently corrupt every later canonical read on this branch.
// Pending dirty marks are discarded — they describe steps the restore
// just undid.
func (s *System) fpRestore(r *SnapReader) {
	fp := &s.fp
	if !fp.init {
		// Restore without a prior rebuild on this System cannot happen
		// (the snapshot being read ran fpSnapshot → fpEnsure), but the
		// vectors must exist before loading into them.
		s.fpRebuild()
	}
	fp.fpClearDirty()
	fp.ok = r.Bool()
	if !fp.ok {
		return
	}
	fp.plain = r.Uint64()
	r.Uint64s(fp.objComp)
	r.Uint64s(fp.procComp)
	if fp.nPerm == 0 {
		return
	}
	fp.canonOK = r.Bool()
	if !fp.canonOK {
		return
	}
	r.Uint64s(fp.canonHash)
	r.Uint64s(fp.canonObj)
	r.Uint64s(fp.canonProc)
}
