package explore

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/sim"
)

// entries calls f with every stored key and a copy of its summary.
func (t *pruneTable) entries(f func(tableKey, *summary)) {
	for i := range t.shards {
		sh := &t.shards[i]
		for _, s := range sh.slots {
			if s.off == 0 || s.off == tombstone {
				continue
			}
			acc := newSummary()
			sh.mergeInto(s.off, acc, nil)
			f(s.key, acc)
		}
	}
}

// histogram renders a summary's outcome counts by fingerprint.
func histogram(ids *outcomeIDs, s *summary) map[string]wide {
	h := make(map[string]wide, len(s.outs))
	for _, o := range s.outs {
		h[ids.key(o.id)] = o.n
	}
	return h
}

// TestWideCountCarries: a 128-bit count carries across 2^64 and
// saturates at 2^128−1 instead of wrapping.
func TestWideCountCarries(t *testing.T) {
	w := wide{lo: math.MaxUint64 - 1}
	w.add(wide{lo: 3})
	if w != (wide{hi: 1, lo: 1}) {
		t.Fatalf("2^64−2 + 3 = %+v, want hi=1 lo=1", w)
	}
	w.add(wide{hi: 2, lo: math.MaxUint64})
	if w != (wide{hi: 4, lo: 0}) {
		t.Fatalf("carry into the high word: %+v, want hi=4 lo=0", w)
	}
	top := wide{math.MaxUint64, math.MaxUint64 - 5}
	top.add(wide{lo: 9})
	if top != (wide{math.MaxUint64, math.MaxUint64}) {
		t.Fatalf("2^128 overflow wrapped to %+v", top)
	}
	for _, c := range []struct {
		w   wide
		n   int
		sat bool
	}{
		{wide{lo: 7}, 7, false},
		{wide{lo: math.MaxInt - 1}, math.MaxInt - 1, false},
		{wide{lo: math.MaxInt}, math.MaxInt, true},
		{wide{lo: math.MaxInt + 1}, math.MaxInt, true},
		{wide{hi: 1}, math.MaxInt, true},
	} {
		if c.w.int() != c.n || c.w.saturates() != c.sat {
			t.Errorf("%+v: int %d saturates %v, want %d %v", c.w, c.w.int(), c.w.saturates(), c.n, c.sat)
		}
	}
}

// TestWideCountsSaturateOutward: counts past math.MaxInt are exact
// inside a summary and saturate to math.MaxInt in the forms that leave
// it — censusFrom, which then reports Exhaustive=false, and record,
// whose root folds back into a non-exhaustive census.
func TestWideCountsSaturateOutward(t *testing.T) {
	ids := newOutcomeIDs()
	s := newSummary()
	half := wideOf(math.MaxInt/2 + 1)
	for i := 0; i < 2; i++ {
		s.merge(&summary{complete: half, outs: []outCount{{id: ids.intern("[1]"), n: half}}}, nil)
	}
	s.incomplete = wideOf(5)
	if want := (wide{lo: 1 << 63}); s.complete != want || s.outs[0].n != want {
		t.Fatalf("2·(2^62) counted %+v / %+v, want exactly 2^63", s.complete, s.outs[0].n)
	}
	c := censusFrom(s, ids, nil, Options{}, true)
	if c.Complete != math.MaxInt || c.Outcomes["[1]"] != math.MaxInt || c.Incomplete != 5 || c.Exhaustive {
		t.Fatalf("censusFrom = %d/%d %v exhaustive=%v, want saturated and not exhaustive",
			c.Complete, c.Incomplete, c.Outcomes, c.Exhaustive)
	}
	r := s.record(ids, nil, false)
	if r.Complete != math.MaxInt || r.Outcomes["[1]"] != math.MaxInt || r.Incomplete != 5 {
		t.Fatalf("record = %+v, want saturated counts", r)
	}
	back := r.summary(newOutcomeIDs(), nil)
	if !back.saturated() {
		t.Fatal("a saturated record reloads as an exact count")
	}
	if c := censusFrom(back, ids, nil, Options{}, true); c.Exhaustive {
		t.Fatal("a census folded from a saturated record claims exhaustiveness")
	}
}

// TestPruneTableConcurrent: goroutines publish and look up overlapping
// keys while stripes grow and, under small budgets, evict; every hit
// must merge exactly the summary published under its key. Run under
// -race -count=10 by verify.sh.
func TestPruneTableConcurrent(t *testing.T) {
	const keys, workers, rounds = 3000, 4, 6000
	for _, capacity := range []int{0, 48, 2048} {
		t.Run(fmt.Sprintf("cap=%d", capacity), func(t *testing.T) {
			table := newPruneTable(capacity)
			want := func(k int) *summary {
				s := &summary{
					complete:   wide{hi: uint64(k % 3), lo: uint64(7*k + 1)},
					incomplete: wideOf(k % 5), violations: wideOf(k % 2),
				}
				s.addOutcome(table.ids.intern(fmt.Sprintf("[%d]", k%7)), wideOf(k+1))
				s.addOutcome(table.ids.intern("[x]"), wideOf(2))
				for r := 0; r < k%4; r++ {
					s.addRep(string([]byte{byte(r), byte(k >> 8), byte(k)}))
				}
				return s
			}
			key := func(k int) tableKey {
				return tableKey{fp: uint64(k) * 0x9e3779b97f4a7c15, depthRem: 40 - k%3, crashRem: k % 2}
			}
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed))
					for i := 0; i < rounds; i++ {
						k := rng.Intn(keys)
						acc := newSummary()
						if _, hit, _ := table.get(key(k), acc, nil); !hit {
							table.put(key(k), want(k), uint32(k%13+1))
							continue
						}
						exp := want(k)
						if acc.complete != exp.complete || acc.incomplete != exp.incomplete ||
							acc.violations != exp.violations || !slices.Equal(acc.outs, exp.outs) ||
							!slices.Equal(acc.reps, exp.reps) {
							t.Errorf("hit on key %d merged %+v, published %+v", k, acc, exp)
							return
						}
					}
				}(int64(w))
			}
			wg.Wait()
			if capacity > 0 && table.size() > capacity {
				t.Fatalf("table holds %d entries, budget %d", table.size(), capacity)
			}
			st := table.statsSnapshot()
			if st.Hits+st.Misses != workers*rounds || st.Stores+st.LostPublishes > st.Misses {
				t.Fatalf("counters %+v: want hits+misses=%d and stores+lost ≤ misses", st, workers*rounds)
			}
			if capacity > 0 && capacity < keys && st.Evictions == 0 {
				t.Fatalf("budget %d with %d keys evicted nothing", capacity, keys)
			}
		})
	}
}

// TestPruneTableReplacement: at the entry cap a newcomer is stored in
// place of the entry of its bucket whose subtree cost the fewest
// probes, and sustained eviction keeps the arena compact.
func TestPruneTableReplacement(t *testing.T) {
	table := newPruneTable(4)
	// Five keys sharing a home bucket in the one stripe's first size.
	var keys []tableKey
	probe := pruneShard{slots: make([]slot, minShardSlots)}
	for i := 0; len(keys) < 5; i++ {
		k := tableKey{fp: uint64(i)*0x9e3779b97f4a7c15 + 1, depthRem: 9}
		if probe.home(k.hash()) == 0 {
			keys = append(keys, k)
		}
	}
	s := newSummary()
	s.complete = wideOf(1)
	for i, cost := range []uint32{30, 10, 40, 20} {
		if !table.put(keys[i], s, cost) {
			t.Fatalf("put %d below the cap refused", i)
		}
	}
	if !table.put(keys[4], s, 1) {
		t.Fatal("a newcomer at the cap was not stored")
	}
	st := table.statsSnapshot()
	if table.size() != 4 || st.Evictions != 1 || st.Stores != 5 {
		t.Fatalf("size %d, stats %+v: want 4 entries, 1 eviction, 5 stores", table.size(), st)
	}
	for i, want := range []bool{true, false, true, true, true} {
		if _, hit, _ := table.get(keys[i], newSummary(), nil); hit != want {
			t.Fatalf("key %d hit=%v after the eviction; want only the cheapest (cost 10) dropped", i, hit)
		}
	}

	big := newPruneTable(64)
	for i := 0; i < 20000; i++ {
		s.reps = append(s.reps[:0], fmt.Sprint(i))
		big.put(tableKey{fp: uint64(i) * 0x9e3779b97f4a7c15, depthRem: 9}, s, uint32(i))
	}
	sh := &big.shards[0]
	if big.size() > 64 || sh.words.n > 4*arenaChunk || sh.bytes.n > 4*arenaChunk {
		t.Fatalf("after 20000 stores under a budget of 64: %d entries, %d arena words, %d rep bytes",
			big.size(), sh.words.n, sh.bytes.n)
	}
}

// BenchmarkPruneTable times the table layer on its own: a hit merged
// into an accumulator, a publish into a table at its cap, and a summary
// merge plain and through a 120-element orientation's ID map.
func BenchmarkPruneTable(b *testing.B) {
	const entries = 1 << 14
	ids := newOutcomeIDs()
	sum := newSummary()
	sum.complete, sum.incomplete = wideOf(1000), wideOf(3)
	sum.addOutcome(ids.intern("[100 101 102 103 104]"), wideOf(600))
	sum.addOutcome(ids.intern("[101 101 101 101 101]"), wideOf(400))
	key := func(i int) tableKey { return tableKey{fp: uint64(i) * 0x9e3779b97f4a7c15, depthRem: 30} }

	b.Run("hit", func(b *testing.B) {
		table := newPruneTable(0)
		for i := 0; i < entries; i++ {
			table.put(key(i), sum, 1)
		}
		acc := newSummary()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			table.get(key(i%entries), acc, nil)
		}
	})
	b.Run("publish", func(b *testing.B) {
		table := newPruneTable(entries)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			table.put(key(i), sum, uint32(i))
		}
	})
	b.Run("merge", func(b *testing.B) {
		acc := newSummary()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			acc.merge(sum, nil)
		}
	})
	b.Run("merge-orientation-120", func(b *testing.B) {
		canon := permCanon(b, 5)
		acc := newSummary()
		for k := 1; k < canon.NumPerms(); k++ {
			acc.merge(sum, ids.renamer(canon, k, false)) // build the memos
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			acc.merge(sum, ids.renamer(canon, 1+i%(canon.NumPerms()-1), false))
		}
	})
}

// permCanon is a Canonicalizer for n processes over no objects, with
// the integer outcome renaming of the cas protocols (decision 100+i is
// process i's).
func permCanon(b testing.TB, n int) *sim.Canonicalizer {
	sys := sim.NewSystem()
	sys.SpawnN(n, func(id sim.ProcID) sim.Program {
		return func(*sim.Env) (sim.Value, error) { return 100 + int(id), nil }
	})
	canon, err := sim.NewCanonicalizer(sys, &sim.Symmetry{
		Perms: sim.FullPerms(n),
		RenameOutcome: func(key string, perm []sim.ProcID) string {
			return sim.RenameIntKey(key, func(v int) int { return 100 + int(perm[v-100]) })
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	return canon
}

// TestDFSKeyOrder: dfsKey decodes back to its schedule, and byte order
// of keys is the DFS order of schedules — child class first (pick,
// crash, fault modes in order), then process ID — across every
// encoding width, including classes past 6 (more than four modes).
func TestDFSKeyOrder(t *testing.T) {
	four := []sim.FaultMode{sim.FaultCrash, sim.FaultOmission, sim.FaultReset, sim.FaultGarble}
	six := append(slices.Clone(four), sim.FaultMode(7), sim.FaultMode(8))
	for _, modes := range [][]sim.FaultMode{four, six} {
		var choices []Choice
		for _, p := range []sim.ProcID{0, 1, 30, 31, 32, 300} {
			choices = append(choices, Choice{Pick: p}, Choice{Pick: p, Crash: true})
			for _, m := range modes {
				choices = append(choices, Choice{Pick: p, Fault: m})
			}
		}
		class := func(c Choice) int {
			switch {
			case c.Crash:
				return 1
			case c.Fault != sim.FaultNone:
				return 2 + slices.Index(modes, c.Fault)
			}
			return 0
		}
		less := func(a, b []Choice) bool {
			for i := 0; i < len(a) && i < len(b); i++ {
				if ca, cb := class(a[i]), class(b[i]); ca != cb {
					return ca < cb
				}
				if a[i].Pick != b[i].Pick {
					return a[i].Pick < b[i].Pick
				}
			}
			return len(a) < len(b)
		}
		rng := rand.New(rand.NewSource(1))
		sched := func() []Choice {
			s := make([]Choice, rng.Intn(4))
			for i := range s {
				s[i] = choices[rng.Intn(len(choices))]
			}
			return s
		}
		for i := 0; i < 5000; i++ {
			a, b := sched(), sched()
			ka, kb := dfsKey(a, modes), dfsKey(b, modes)
			if got := scheduleOf(ka, modes); len(got) != len(a) || len(a) > 0 && !slices.Equal(got, a) {
				t.Fatalf("%d modes: %s decodes to %s", len(modes), FormatSchedule(a), FormatSchedule(got))
			}
			if (ka < kb) != less(a, b) || (ka == kb) != slices.Equal(a, b) {
				t.Fatalf("%d modes: keys of %s and %s order %v, schedules %v",
					len(modes), FormatSchedule(a), FormatSchedule(b), ka < kb, less(a, b))
			}
		}
	}
}
