package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"strings"
	"sync"
	"time"

	"repro/internal/censusd"
	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/sim"
)

// censusSymReq is the census-sym op: compare&swap-(6) consensus among
// five processes with one crash, both schedule-space reducers on and one
// worker. The time goes into canonical fingerprint patches, canonical
// reads and orbit renaming over |G| = 120.
func censusSymReq() censusd.Request {
	return censusd.Request{
		Protocol: "cas", K: 6, N: 5, Crashes: intp(1), MaxRuns: 1 << 62,
		Workers: 1, Symmetry: true, SleepSets: true,
	}
}

// censusFaultsReq is the census-faults op: the degrading compare&swap-(4)
// among three processes with one crash and one object fault in every
// mode, plain pruning on two workers. No symmetry is declared, so the
// time goes into plain fingerprints, step dispatch, snapshot/restore and
// the shared table and donation pool.
func censusFaultsReq() censusd.Request {
	return censusd.Request{
		Protocol: "casdeg", K: 4, N: 3, Crashes: intp(1), MaxRuns: 1 << 62,
		ObjFaults: 1, FaultModes: []string{"crash", "garble", "omission", "reset"},
		Workers: 2, Prune: true,
	}
}

func intp(v int) *int { return &v }

// exploreCounters are the PruneStats counters reported per op.
var exploreCounters = []string{
	"probes", "hits", "misses", "stores", "evictions",
	"symmetry_hits", "sleep_skips", "orbit_skips", "donations", "steals",
}

// census is a census workload: every op is one explore.Run of req.
type census struct {
	req   censusd.Request
	b     explore.Builder
	opts  explore.Options
	check func(*sim.Result) error
	want  *pinnedCensus
	seed  int64
	ls    *layerStats
}

func newCensus(req censusd.Request, want *pinnedCensus, seed int64, ls *layerStats) (*census, error) {
	if want == nil {
		return nil, fmt.Errorf("no pinned census for %s", req.Protocol)
	}
	if err := req.Normalize(); err != nil {
		return nil, err
	}
	b, props, err := req.Build()
	if err != nil {
		return nil, err
	}
	c := &census{req: req, b: b, opts: req.Options(), check: req.Check(props), want: want, seed: seed, ls: ls}
	if err := c.op(context.Background(), -1, nil); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return c, nil
}

func (c *census) op(ctx context.Context, i int64, sp *openSpan) error {
	b, check := c.b, c.check
	run := sp.child("explore.run")
	var builds, checks callAgg
	if run != nil {
		b = builds.wrapBuilder(b, run)
		check = checks.wrapCheck(check)
	}
	t0 := time.Now()
	cen := explore.Run(b, c.opts, check)
	d := time.Since(t0)
	run.aggregate("consensus.check", &checks)
	run.end()
	if run != nil {
		c.record(cen, d, &builds, &checks)
	}
	return gate(censusd.ResultFrom(c.req.Protocol, *c.req.Crashes, c.req.ObjFaults, cen, nil), c.want, c.req.MaxRuns)
}

func (c *census) record(cen *explore.Census, d time.Duration, builds, checks *callAgg) {
	ls := c.ls
	if p := cen.Prune; p != nil {
		for name, v := range map[string]uint64{
			"probes": p.Probes, "hits": p.Hits, "misses": p.Misses, "stores": p.Stores,
			"evictions": p.Evictions, "symmetry_hits": p.SymmetryHits, "sleep_skips": p.SleepSkips,
			"orbit_skips": p.OrbitSkips, "donations": p.Donations, "steals": p.Steals,
		} {
			ls.add("explore."+name, float64(v))
		}
		if p.Probes > 0 {
			ls.sample("explore.us_per_probe", float64(d.Microseconds())/float64(p.Probes))
		}
	}
	self := d - time.Duration(builds.ns.Load()+checks.ns.Load())
	ls.sample("explore.self_ms", ms(max(0, self)))
	recordConsensus(ls, builds, checks)
}

func (c *census) layers(tw tracedWindow, m metrics) error {
	ls, ops := c.ls, float64(tw.ops)
	for _, name := range exploreCounters {
		m.set("explore."+name, ls.sum("explore."+name)/ops, "count/op")
	}
	hits, misses := ls.sum("explore.hits"), ls.sum("explore.misses")
	m.set("explore.hit_rate", ratio(hits, hits+misses), "ratio")
	m.set("explore.steal_yield", ratio(ls.sum("explore.steals"), ls.sum("explore.donations")), "ratio")
	m.set("explore.us_per_probe", ls.p50("explore.us_per_probe"), "us")
	m.set("explore.self_ms", ls.p50("explore.self_ms"), "ms")
	m.set("explore.alloc_mb_per_op", float64(tw.allocBytes)/ops/(1<<20), "MB")
	m.set("explore.gc_per_op", float64(tw.gcs)/ops, "count/op")
	consensusLayers(ls, ops, m)
	return simProbe(c.b, c.opts.Symmetry, c.seed, m)
}

func (c *census) close() error { return nil }

// simWalks is how many seeded random schedules the sim probe runs for
// each of its measurements.
const simWalks = 400

// simProbe measures the simulator layer on the workload's own builder
// under sim.Random schedules: the cost of a step through System.Run
// with fingerprinting off, on, and canonical (symmetric builders only),
// and, at every decision point of machine executions started with
// StartMachines, the cost of a canonical read, a snapshot and a restore.
func simProbe(b explore.Builder, symmetric bool, seed int64, m metrics) error {
	var canon *sim.Canonicalizer
	if symmetric {
		probe := b()
		c, err := sim.NewCanonicalizer(probe, probe.SymmetrySpec())
		if err != nil {
			return err
		}
		canon = c
	}
	stepNs := func(fp bool, cn *sim.Canonicalizer) (float64, error) {
		var d time.Duration
		steps := 0
		for w := int64(0); w < simWalks; w++ {
			sys := b()
			t0 := time.Now()
			res, err := sys.Run(sim.Config{Scheduler: sim.Random(seed + w), DisableTrace: true, Fingerprint: fp, Canon: cn})
			d += time.Since(t0)
			if err != nil {
				return 0, err
			}
			steps += res.TotalSteps
		}
		return ratio(float64(d), float64(steps)), nil
	}
	v, err := stepNs(false, nil)
	if err != nil {
		return err
	}
	m.set("sim.step_ns", v, "ns")
	if v, err = stepNs(true, nil); err != nil {
		return err
	}
	m.set("sim.step_fp_ns", v, "ns")
	if canon != nil {
		if v, err = stepNs(true, canon); err != nil {
			return err
		}
		m.set("sim.step_canon_ns", v, "ns")
	}

	pp := &pointProbe{canon: canon != nil}
	for w := int64(0); w < simWalks; w++ {
		sys := b()
		if !sys.Snapshotable() {
			return errors.New("the builder's system does not support snapshots")
		}
		pp.rng = rand.New(rand.NewSource(seed + w))
		me, err := sys.StartMachines(sim.Config{Scheduler: pp, DisableTrace: true, Fingerprint: true, Canon: canon})
		if err != nil {
			return err
		}
		pp.me = me
		if _, err := me.Run(); err != nil {
			return err
		}
	}
	n := float64(pp.points)
	if canon != nil {
		m.set("sim.canon_read_ns", ratio(float64(pp.read), n), "ns")
	}
	m.set("sim.snapshot_ns", ratio(float64(pp.save), n), "ns")
	m.set("sim.restore_ns", ratio(float64(pp.restore), n), "ns")
	m.set("sim.snap_words", ratio(float64(pp.words), n), "count")
	return nil
}

// pointProbe is a random scheduler that, at every decision point of a
// machine execution, times what a census engine does there: a canonical
// fingerprint read, a snapshot into the arena and a restore from it.
// Restoring the snapshot just taken leaves the execution unchanged.
type pointProbe struct {
	rng   *rand.Rand
	me    *sim.MachineExec
	canon bool
	snap  sim.Snap

	points, words       int
	read, save, restore time.Duration
}

func (p *pointProbe) Next(ready []sim.ProcID, _ int) sim.ProcID {
	if p.canon {
		t0 := time.Now()
		p.me.System().StateHashCanon()
		p.read += time.Since(t0)
	}
	p.snap.Reset()
	t0 := time.Now()
	p.me.Snapshot(&p.snap)
	t1 := time.Now()
	p.me.Restore(p.snap.ReaderAt(0, 0))
	p.restore += time.Since(t1)
	p.save += t1.Sub(t0)
	words, _ := p.snap.Len()
	p.words += words
	p.points++
	return ready[p.rng.Intn(len(ready))]
}

// emulateParams sizes the emulate workload: the paper's reduction by
// emulation (Figures 3–6) running CyclingA over compare&swap-(K).
type emulateParams struct {
	K     int `json:"k"`
	N     int `json:"n"`
	Quota int `json:"quota"`
	Hops  int `json:"hops"`
	// MaxIterations bounds each emulator's Figure 3 loop. A schedule
	// either lets every emulator decide within a few hundred iterations
	// or leaves one emulator cycling until this budget runs out; the
	// budget sets the cost of that second mode (see README.md).
	MaxIterations int `json:"max_iterations"`
	// SeedPool is the number of schedule seeds 0..SeedPool-1; the
	// workload seed orders them, and ops cycle through that order.
	SeedPool int `json:"seed_pool"`
}

// warmupSchedules is how many schedules an emulate set-up runs.
const warmupSchedules = 8

var emulateDefaults = emulateParams{K: 3, N: 120, Quota: 3, Hops: 4, MaxIterations: 300, SeedPool: 256}

// emulatorSeeds is the fixed list of schedule seeds drawn from the
// workload seed: every seed of the pool, in a seeded order. Every
// workload seed runs the same mix of cheap and expensive schedules; the
// order differs.
func emulatorSeeds(seed int64, pool int) []int64 {
	perm := rand.New(rand.NewSource(seed)).Perm(pool)
	out := make([]int64, pool)
	for i, v := range perm {
		out[i] = int64(v)
	}
	return out
}

// emulate is the emulate workload: op i builds the reduction, runs it
// under sim.Random(seeds[i mod len]), analyzes and audits it.
type emulate struct {
	p     emulateParams
	seeds []int64
	ls    *layerStats

	mu    sync.Mutex
	steps map[int64]int // schedule seed → steps of its first run
}

func newEmulate(seed int64, p emulateParams, ls *layerStats) (*emulate, error) {
	e := &emulate{p: p, seeds: emulatorSeeds(seed, p.SeedPool), ls: ls, steps: map[int64]int{}}
	// The warm-up runs the first warmupSchedules seeds of the pool
	// whatever the workload seed, so every set-up does the same work.
	for s := int64(0); s < warmupSchedules; s++ {
		if err := e.emulate(s, nil); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return e, nil
}

func (e *emulate) op(ctx context.Context, i int64, sp *openSpan) error {
	return e.emulate(e.seeds[i%int64(len(e.seeds))], sp)
}

// emulate runs one emulation under schedule seed.
func (e *emulate) emulate(seed int64, sp *openSpan) error {
	bs := sp.child("core.build")
	r := core.NewReduction(core.Config{
		K: e.p.K, Quota: e.p.Quota, MaxIterations: e.p.MaxIterations,
		A: core.CyclingA(e.p.K, e.p.N, e.p.Hops),
	})
	bs.end()

	rs := sp.child("core.run")
	t0 := time.Now()
	res, err := r.System().Run(sim.Config{Scheduler: sim.Random(seed), MaxTotalSteps: 1 << 24, DisableTrace: true})
	runD := time.Since(t0)
	rs.end()
	if err != nil {
		return fmt.Errorf("schedule seed %d: %w", seed, err)
	}
	if res.Halted {
		return fmt.Errorf("schedule seed %d: run halted with live emulators %v", seed, res.ReadyAtHalt)
	}

	as := sp.child("core.analyze")
	t1 := time.Now()
	rep := r.Analyze(res)
	anaD := time.Since(t1)
	as.end()

	us := sp.child("core.audit")
	t2 := time.Now()
	aerr := r.Audit()
	audD := time.Since(t2)
	us.end()
	if aerr != nil {
		return fmt.Errorf("schedule seed %d: audit: %w", seed, aerr)
	}
	if err := e.sameSteps(seed, res.TotalSteps); err != nil {
		return err
	}
	if sp != nil {
		e.ls.sample("core.run_ms", ms(runD))
		e.ls.sample("core.analyze_ms", ms(anaD))
		e.ls.sample("core.audit_ms", ms(audD))
		e.ls.add("core.run_ns", float64(runD))
		e.ls.add("core.steps", float64(res.TotalSteps))
		e.ls.add("core.iterations", float64(rep.TotalStats().Iterations))
	}
	return nil
}

// sameSteps checks that a schedule seed always yields the same number
// of steps: the emulation under a seeded schedule is deterministic.
func (e *emulate) sameSteps(seed int64, steps int) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if prev, ok := e.steps[seed]; ok && prev != steps {
		return fmt.Errorf("schedule seed %d: %d steps, earlier run took %d", seed, steps, prev)
	}
	e.steps[seed] = steps
	return nil
}

func (e *emulate) layers(tw tracedWindow, m metrics) error {
	ls, ops := e.ls, float64(tw.ops)
	m.set("core.run_ms", ls.p50("core.run_ms"), "ms")
	m.set("core.analyze_ms", ls.p50("core.analyze_ms"), "ms")
	m.set("core.audit_ms", ls.p50("core.audit_ms"), "ms")
	m.set("core.steps", ls.sum("core.steps")/ops, "count/op")
	m.set("core.iterations", ls.sum("core.iterations")/ops, "count/op")
	m.set("core.ns_per_step", ratio(ls.sum("core.run_ns"), ls.sum("core.steps")), "ns")
	return nil
}

func (e *emulate) close() error { return nil }

// pinnedCensus is an expected census. Every pin is produced by an
// engine other than the one the benchmark times (see the oracles in the
// test), so the gate checks the timed engine against something other
// than itself.
type pinnedCensus struct {
	Complete      int            `json:"complete"`
	Incomplete    int            `json:"incomplete"`
	ViolationRuns int            `json:"violation_runs"`
	Outcomes      map[string]int `json:"outcomes"`
}

//go:embed pins.json
var pinsJSON []byte

var pins, pinErr = func() (map[string]*pinnedCensus, error) {
	var p map[string]*pinnedCensus
	if err := json.Unmarshal(pinsJSON, &p); err != nil {
		return nil, fmt.Errorf("pins.json: %w", err)
	}
	return p, nil
}()

// pinFor returns the pinned census of a named instance, nil if none.
func pinFor(name string) *pinnedCensus { return pins[name] }

func pinOf(r *censusd.Result) *pinnedCensus {
	return &pinnedCensus{Complete: r.Complete, Incomplete: r.Incomplete, ViolationRuns: r.ViolationRuns, Outcomes: r.Outcomes}
}

// checkCensus rejects a census that cannot be right whatever the
// instance: cancelled, with lost subtrees, not exhaustive, with a
// negative (overflowed) count, with more violating runs than complete
// runs, or with more runs than its run cap admits.
func checkCensus(r *censusd.Result, maxRuns int) error {
	switch {
	case r == nil:
		return errors.New("no census result")
	case r.Cancelled:
		return errors.New("census cancelled")
	case len(r.Errors) > 0:
		return fmt.Errorf("census lost %d subtrees: %s", len(r.Errors), strings.Join(r.Errors, "; "))
	case !r.Exhaustive:
		return fmt.Errorf("census not exhaustive (complete %d, incomplete %d)", r.Complete, r.Incomplete)
	case r.Complete < 0 || r.Incomplete < 0 || r.ViolationRuns < 0:
		return fmt.Errorf("negative count: complete %d, incomplete %d, violation_runs %d", r.Complete, r.Incomplete, r.ViolationRuns)
	case r.ViolationRuns > r.Complete:
		return fmt.Errorf("violation_runs %d exceed complete %d", r.ViolationRuns, r.Complete)
	case r.Complete > maxRuns-r.Incomplete:
		return fmt.Errorf("complete %d + incomplete %d exceed the run cap %d", r.Complete, r.Incomplete, maxRuns)
	}
	return nil
}

// gate is the correctness check every op passes: checkCensus, then the
// counts and the outcome histogram must equal the pin.
func gate(r *censusd.Result, want *pinnedCensus, maxRuns int) error {
	if err := checkCensus(r, maxRuns); err != nil {
		return err
	}
	if r.Complete != want.Complete || r.Incomplete != want.Incomplete || r.ViolationRuns != want.ViolationRuns {
		return fmt.Errorf("counts (complete %d, incomplete %d, violation_runs %d) differ from the pinned (%d, %d, %d)",
			r.Complete, r.Incomplete, r.ViolationRuns, want.Complete, want.Incomplete, want.ViolationRuns)
	}
	if !maps.Equal(r.Outcomes, want.Outcomes) {
		return fmt.Errorf("outcome histogram %v differs from the pinned %v", r.Outcomes, want.Outcomes)
	}
	return nil
}
