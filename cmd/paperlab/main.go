// Command paperlab regenerates every experiment of EXPERIMENTS.md in
// one run: the reduction census (E1/E2), the election capacity ladder
// (E3/E4/E11), the agent-game bounds and exact maxima (E5/E13), the
// hierarchy witnesses (E6), the emulation anatomy (E7/E8), and the
// universal-construction failure modes (E9). It is the program-shaped
// twin of `go test -bench=.`: same claims, table output.
//
//	go run ./cmd/paperlab            # everything
//	go run ./cmd/paperlab -only e4   # one experiment
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"text/tabwriter"

	"repro/internal/agents"
	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/election"
	"repro/internal/explore"
	"repro/internal/hierarchy"
	"repro/internal/objects"
	"repro/internal/profiling"
	"repro/internal/runctx"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/universal"
)

// tunes are the exploration options forwarded to the census-driven
// experiments (E6/E16); set from -prune / -workers / -timeout.
var tunes []explore.Tune

// allowPartial mirrors the -allow-partial flag for the experiment
// bodies: when false, a census that lost subtrees fails the experiment.
var allowPartial bool

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "paperlab:", err)
		os.Exit(1)
	}
}

func run() error {
	only := flag.String("only", "", "run a single experiment: e1, e3, e4, e5, e6, e8, e9, e16, e18")
	workers := flag.Int("workers", 1, "census workers for E6/E16/E18 (0 or 1: one worker walks the whole tree as one root; -1 = GOMAXPROCS)")
	prune := flag.Bool("prune", false, "enable state-fingerprint subtree pruning for E6/E16 censuses")
	symmetry := flag.Bool("symmetry", false, "canonicalize census fingerprints under declared process symmetry (implies pruning; protocols without a declared spec degrade to plain pruning with a note)")
	sleepsets := flag.Bool("sleepsets", false, "skip independent-step commutations via the prune table (implies pruning)")
	stepLimit := flag.Int("steplimit", 0, "per-process step budget for censuses: runaway runs become counted step-limit outcomes instead of hanging (0 = sim default)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	timeout := flag.Duration("timeout", 0, "overall deadline: cancel remaining experiments after this long (0 = none)")
	partial := flag.Bool("allow-partial", false, "exit zero even when a census was cancelled or lost subtrees")
	flag.Parse()
	allowPartial = *partial

	ctx, stop := runctx.WithDrain(context.Background(), *timeout)
	defer stop()
	tunes = append(tunes, explore.WithContext(ctx))

	if *prune {
		tunes = append(tunes, explore.WithPrune())
	}
	if *symmetry {
		tunes = append(tunes, explore.WithSymmetry())
	}
	if *sleepsets {
		tunes = append(tunes, explore.WithSleepSets())
	}
	if *workers != 0 && *workers != 1 {
		tunes = append(tunes, explore.WithWorkers(*workers))
	}
	if *stepLimit > 0 {
		tunes = append(tunes, explore.WithStepLimit(*stepLimit))
	}
	stopProf, err := profiling.Start(*cpuprofile, *memprofile)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); perr != nil {
			fmt.Fprintln(os.Stderr, "paperlab:", perr)
		}
	}()

	experiments := []struct {
		id, title string
		fn        func(*tabwriter.Writer) error
	}{
		{"e1", "E1/E2 — reduction census: ≤ (k−1)! distinct decisions", e1},
		{"e3", "E3 — register-alone capacity (Burns–Cruz–Loui)", e3},
		{"e4", "E4/E11 — capacity ladder: alone vs +r/w vs products", e4},
		{"e5", "E5/E13 — Lemma 1.1: bounds and exact adversarial maxima", e5},
		{"e6", "E6 — hierarchy witnesses", e6},
		{"e8", "E7/E8 — emulation anatomy on the cycling workload", e8},
		{"e9", "E9 — universality and its size limits", e9},
		{"e16", "E16 — election degradation vs object-fault budget", e16},
		{"e18", "E18 — reduction soundness: reduced vs unreduced censuses", e18},
	}
	for _, ex := range experiments {
		if *only != "" && !strings.EqualFold(*only, ex.id) {
			continue
		}
		if err := ctx.Err(); err != nil {
			if allowPartial {
				fmt.Printf("── %s ── skipped: %v\n", ex.title, err)
				continue
			}
			return fmt.Errorf("%s: run cancelled before start: %w", ex.id, err)
		}
		fmt.Printf("── %s ──\n", ex.title)
		w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		if err := ex.fn(w); err != nil {
			return fmt.Errorf("%s: %w", ex.id, err)
		}
		if err := w.Flush(); err != nil {
			return err
		}
		fmt.Println()
	}
	return nil
}

func e1(w *tabwriter.Writer) error {
	fmt.Fprintln(w, "k\tm\tbound (k−1)!\tdistinct\tgroups\taudit")
	for _, tc := range []struct{ k, n int }{{3, 112}, {4, 168}, {5, 500}} {
		r := core.NewReduction(core.Config{K: tc.k, Quota: 3, A: core.FirstValueA(tc.k, tc.n)})
		res, err := r.System().Run(sim.Config{Scheduler: sim.Random(1), MaxTotalSteps: 1 << 24, DisableTrace: true})
		if err != nil {
			return err
		}
		rep := r.Analyze(res)
		if len(rep.Errors) > 0 {
			return fmt.Errorf("k=%d: %d emulators failed", tc.k, len(rep.Errors))
		}
		audit := "ok"
		if err := r.Audit(); err != nil {
			audit = err.Error()
		}
		fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%d\t%s\n", tc.k, r.Config().M, rep.MaxLabels, rep.Distinct, rep.Groups, audit)
	}
	return nil
}

func e3(w *tabwriter.Writer) error {
	fmt.Fprintln(w, "k\tcapacity\tverified")
	for k := 3; k <= 6; k++ {
		n := k - 1
		ids := make([]sim.Value, n)
		for i := range ids {
			ids[i] = i
		}
		verified := 0
		for seed := int64(0); seed < 20; seed++ {
			sys := sim.NewSystem()
			cas := objects.NewCAS("cas", k)
			sys.Add(cas)
			for _, p := range election.DirectCAS(cas, n) {
				sys.Spawn(p)
			}
			res, err := sys.Run(sim.Config{Scheduler: sim.Random(seed), DisableTrace: true})
			if err != nil {
				return err
			}
			if err := election.CheckElection(res, ids); err != nil {
				return err
			}
			verified++
		}
		fmt.Fprintf(w, "%d\t%d\t%d schedules\n", k, n, verified)
	}
	return nil
}

func e4(w *tabwriter.Writer) error {
	fmt.Fprintln(w, "k\talone (k−1)\t+r/w (Σ P(k−1,j))\ttwo registers ((k−1)²)")
	for k := 3; k <= 6; k++ {
		fmt.Fprintf(w, "%d\t%d\t%d\t%d\n", k, k-1, election.Capacity(k),
			election.MultiRegisterCapacity(k, k))
	}
	return nil
}

func e5(w *tabwriter.Writer) error {
	fmt.Fprintln(w, "m\tk\tbound m^k\texact max\tbest of 100 random")
	for _, mk := range []struct{ m, k int }{{2, 3}, {3, 3}, {4, 3}, {2, 4}, {3, 4}} {
		best := 0
		for seed := int64(0); seed < 100; seed++ {
			g, start, err := agents.RandomRun(mk.m, mk.k, seed, 100000)
			if err != nil {
				return err
			}
			if err := g.VerifyPotentialLaw(start); err != nil {
				return err
			}
			if g.Moves() > best {
				best = g.Moves()
			}
		}
		fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%d\n", mk.m, mk.k,
			agents.MoveBound(mk.m, mk.k), agents.ExactLongestRun(mk.m, mk.k), best)
	}
	return nil
}

func e6(w *tabwriter.Writer) error {
	fmt.Fprintln(w, "object\tn\tverdict\tcounterexample")
	for _, wt := range []hierarchy.Witness{
		hierarchy.CheckRW(2, 100000, tunes...),
		hierarchy.CheckTAS(2, 100000, tunes...),
		hierarchy.CheckTAS(3, 100000, tunes...),
		hierarchy.CheckSwap(2, 100000, tunes...),
		hierarchy.CheckQueue(3, 100000, tunes...),
		hierarchy.CheckCAS(4, 3, 50000, tunes...),
		hierarchy.CheckStickyBit(3, 100000, tunes...),
	} {
		verdict := "solves"
		if !wt.Solves {
			verdict = "fails"
		}
		if wt.Partial() {
			// An incomplete census backs neither verdict.
			verdict = "partial"
			if !allowPartial {
				return fmt.Errorf("%s n=%d: census incomplete (cancelled=%v, %d lost subtrees)",
					wt.Object, wt.N, wt.Cancelled, len(wt.Errors))
			}
			for _, e := range wt.Errors {
				fmt.Fprintln(os.Stderr, "paperlab: e6:", e)
			}
		}
		fmt.Fprintf(w, "%s\t%d\t%s\t%s\n", wt.Object, wt.N, verdict, wt.Violation)
	}
	return nil
}

func e8(w *tabwriter.Writer) error {
	r := core.NewReduction(core.Config{K: 3, Quota: 6, A: core.CyclingA(3, 90, 4)})
	res, err := r.System().Run(sim.Config{Scheduler: sim.RoundRobin(), MaxTotalSteps: 1 << 24, DisableTrace: true})
	if err != nil {
		return err
	}
	rep := r.Analyze(res)
	t := rep.TotalStats()
	fmt.Fprintln(w, "branch\tcount")
	fmt.Fprintf(w, "iterations\t%d\n", t.Iterations)
	fmt.Fprintf(w, "suspension batches\t%d\n", t.Suspends)
	fmt.Fprintf(w, "simple ops\t%d\n", t.SimpleOps)
	fmt.Fprintf(w, "rebalances (Fig. 5 releases)\t%d\n", t.Rebalances)
	fmt.Fprintf(w, "in-tree attaches (Fig. 6 l.9)\t%d\n", t.Attaches)
	fmt.Fprintf(w, "tree activations / splits (l.12)\t%d\n", t.Activations)
	fmt.Fprintf(w, "idle waits\t%d\n", t.Idles)
	if err := r.Audit(); err != nil {
		return err
	}
	fmt.Fprintln(w, "audit\tok")
	return nil
}

// e16 sweeps the object-fault budget of the degrading compare&swap
// election and reports how often the registers-only fallback preserved
// safety — the empirical degradation curve of the object's power. The
// censuses are exhaustive (every schedule, every fault placement), so
// the rates are exact; pruning is forced because fault branching
// multiplies the tree.
func e16(w *tabwriter.Writer) error {
	local := append(append([]explore.Tune{}, tunes...), explore.WithPrune())
	crash := []sim.FaultMode{sim.FaultCrash}
	omission := []sim.FaultMode{sim.FaultOmission}
	reset := []sim.FaultMode{sim.FaultReset}
	garble := []sim.FaultMode{sim.FaultGarble}
	all := []sim.FaultMode{sim.FaultCrash, sim.FaultOmission, sim.FaultReset, sim.FaultGarble}
	fmt.Fprintln(w, "k\tn\tfault budget\tmodes\tfaulted runs\tsafety violations\tsafety rate\tliveness losses")
	for _, tc := range []struct {
		k, n, budget int
		modes        []sim.FaultMode
		label        string
	}{
		// n = 2 keeps every census exhaustive; n = 3 fault trees run to
		// billions of schedules and would have to be capped.
		{3, 2, 0, crash, "—"},
		{3, 2, 1, crash, "crash"},
		{3, 2, 1, omission, "omission"},
		{3, 2, 1, reset, "reset"},
		{3, 2, 1, garble, "garble"},
		{3, 2, 1, all, "all four"},
		{3, 2, 2, crash, "crash"},
	} {
		r := election.DegradeCensus(tc.k, tc.n, tc.budget, 20_000_000, tc.modes, local...)
		if len(r.Faulted.Errors) > 0 || r.Faulted.Cancelled {
			for _, e := range r.Faulted.Errors {
				fmt.Fprintln(os.Stderr, "paperlab: e16:", e)
			}
			if !allowPartial {
				return fmt.Errorf("e16: k=%d n=%d budget=%d census incomplete (cancelled=%v, %d lost subtrees)",
					tc.k, tc.n, tc.budget, r.Faulted.Cancelled, len(r.Faulted.Errors))
			}
		}
		if !r.Faulted.Exhaustive {
			if !allowPartial {
				return fmt.Errorf("e16: k=%d n=%d budget=%d census not exhaustive", tc.k, tc.n, tc.budget)
			}
			continue
		}
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\t%.4f\t%d\n",
			tc.k, tc.n, tc.budget, tc.label,
			r.FaultedRuns, r.SafetyViolations, r.SafetyRate(), r.LivenessLosses)
	}
	return nil
}

// e18 cross-checks the schedule-space reducers against ground truth:
// on both election families (compare&swap and arbitrary RMW) and on
// CAS consensus, the census under symmetry folding, sleep-set credit,
// and their composition must be bit-identical to the unreduced walk,
// while table probes — real replayed executions — shrink. This is the
// reduced-vs-unreduced matrix of EXPERIMENTS.md E18.
func e18(w *tabwriter.Writer) error {
	families := []struct {
		name string
		run  func(t ...explore.Tune) *explore.Census
	}{
		{"election/DirectCAS k=4 n=3", func(t ...explore.Tune) *explore.Census {
			return election.CensusDirect(4, 3, 0, t...)
		}},
		{"election/DirectRMW k=4 n=3", func(t ...explore.Tune) *explore.Census {
			return election.CensusRMW(4, 3, 0, t...)
		}},
		{"consensus/CAS k=4 n=3", func(t ...explore.Tune) *explore.Census {
			return consensus.CensusCAS(4, 3, 0, t...)
		}},
	}
	modes := []struct {
		name  string
		extra []explore.Tune
	}{
		{"unreduced", nil},
		{"prune", []explore.Tune{explore.WithPrune()}},
		{"symmetry", []explore.Tune{explore.WithSymmetry()}},
		{"sleepsets", []explore.Tune{explore.WithSleepSets()}},
		{"sym+sleep", []explore.Tune{explore.WithSymmetry(), explore.WithSleepSets()}},
	}
	fmt.Fprintln(w, "family\tmode\tcomplete\toutcomes\tprobes\tsym hits\tsleep skips\tmatch")
	for _, f := range families {
		var base *explore.Census
		for _, m := range modes {
			local := append(append([]explore.Tune{}, tunes...), m.extra...)
			c := f.run(local...)
			if !c.Exhaustive || c.Cancelled || len(c.Errors) > 0 {
				if !allowPartial {
					return fmt.Errorf("e18: %s/%s census incomplete (exhaustive=%v cancelled=%v, %d errors)",
						f.name, m.name, c.Exhaustive, c.Cancelled, len(c.Errors))
				}
				fmt.Fprintf(w, "%s\t%s\tpartial\t—\t—\t—\t—\tskipped\n", f.name, m.name)
				continue
			}
			probes, symHits, sleepSkips := "—", "—", "—"
			if p := c.Prune; p != nil {
				probes = fmt.Sprint(p.Probes)
				symHits = fmt.Sprint(p.SymmetryHits)
				sleepSkips = fmt.Sprint(p.SleepSkips)
			}
			match := "baseline"
			if base != nil {
				match = "ok"
				if err := sameCounts(c, base); err != nil {
					if !allowPartial {
						return fmt.Errorf("e18: %s/%s diverges from unreduced census: %w", f.name, m.name, err)
					}
					match = "MISMATCH"
				}
			} else {
				base = c
			}
			fmt.Fprintf(w, "%s\t%s\t%d\t%d\t%s\t%s\t%s\t%s\n",
				f.name, m.name, c.Complete, len(c.Outcomes), probes, symHits, sleepSkips, match)
		}
	}
	return nil
}

// sameCounts reports whether two censuses agree on every number a
// reducer must preserve.
func sameCounts(got, want *explore.Census) error {
	if got.Complete != want.Complete || got.Incomplete != want.Incomplete ||
		got.ViolationRuns != want.ViolationRuns || got.Exhaustive != want.Exhaustive {
		return fmt.Errorf("counts %d/%d viol=%d ex=%v, want %d/%d viol=%d ex=%v",
			got.Complete, got.Incomplete, got.ViolationRuns, got.Exhaustive,
			want.Complete, want.Incomplete, want.ViolationRuns, want.Exhaustive)
	}
	if len(got.Outcomes) != len(want.Outcomes) {
		return fmt.Errorf("outcome histogram %v, want %v", got.Outcomes, want.Outcomes)
	}
	for k, v := range want.Outcomes {
		if got.Outcomes[k] != v {
			return fmt.Errorf("outcome %q × %d, want × %d", k, got.Outcomes[k], v)
		}
	}
	return nil
}

func e9(w *tabwriter.Writer) error {
	fmt.Fprintln(w, "k\tmax processes\tops run\tover-capacity\tbounded cells")
	for k := 3; k <= 5; k++ {
		n := k - 1
		sys := sim.NewSystem()
		u, err := universal.NewUniversal(sys, "ctr", spec.CounterSpec{}, n, k, 0)
		if err != nil {
			return err
		}
		for p := 0; p < n; p++ {
			sess := u.NewSession()
			sys.Spawn(func(e *sim.Env) (sim.Value, error) {
				for j := 0; j < 4; j++ {
					if _, err := sess.Invoke(e, universal.Op{Kind: "add", Args: []sim.Value{1}}); err != nil {
						return nil, err
					}
				}
				return nil, nil
			})
		}
		if _, err := sys.Run(sim.Config{Scheduler: sim.Random(int64(k)), DisableTrace: true}); err != nil {
			return err
		}
		_, overErr := universal.NewUniversal(sim.NewSystem(), "x", spec.CounterSpec{}, k, k, 0)
		over := "allowed?!"
		if overErr != nil {
			over = "refused"
		}
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\texhausts (ErrLogExhausted)\n", k, n, n*4, over)
	}
	return nil
}
