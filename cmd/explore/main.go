// Command explore enumerates every schedule of a chosen small protocol
// (optionally with crash branching) and prints the outcome census, the
// initial valence, and — for doomed protocols — a concrete violating
// schedule and the greedy bivalence path, the FLP-style adversary
// argument made executable.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/censusd"
	"repro/internal/explore"
	"repro/internal/profiling"
	"repro/internal/runctx"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "explore:", err)
		os.Exit(1)
	}
}

func run() error {
	protocol := flag.String("protocol", "tas2", "protocol: "+strings.Join(censusd.ProtocolNames(), " | "))
	k := flag.Int("k", 4, "compare&swap alphabet (for -protocol cas/casdeg)")
	n := flag.Int("n", 2, "processes (for -protocol cas/casdeg)")
	crashes := flag.Int("crashes", 1, "crash budget per schedule")
	objFaults := flag.Int("objfaults", 0, "object-fault budget per schedule (needs a fault-wrapped protocol, e.g. casdeg)")
	faultModes := flag.String("faultmodes", "crash", "comma-separated fault modes to enumerate: crash,omission,reset,garble")
	maxRuns := flag.Int("maxruns", 200000, "exploration budget")
	stepLimit := flag.Int("steplimit", 0, "per-process step budget: a run exceeding it is counted as a step-limit outcome instead of hanging the census (0 = sim default)")
	bivalence := flag.Bool("bivalence", true, "trace the greedy bivalence path")
	workers := flag.Int("workers", 1, "exploration workers (0 or 1: one worker walks the whole tree as one root; -1 = GOMAXPROCS)")
	prune := flag.Bool("prune", false, "enable state-fingerprint subtree pruning for the census")
	pruneBudget := flag.Int("prunebudget", 0, "prune-table entry budget; at it a new entry evicts the entry of its bucket that was cheapest to walk (0 = default cap)")
	symmetry := flag.Bool("symmetry", false, "canonicalize fingerprints under declared process symmetry (implies -prune; audited per protocol, silently off with a note if the protocol declares none)")
	sleepsets := flag.Bool("sleepsets", false, "skip re-exploration of independent-step commutations via the prune table (implies -prune)")
	verifyfp := flag.Bool("verifyfp", false, "audit the incremental fingerprint caches: cross-check every granted step's plain and canonical hashes against from-scratch recomputes, panicking on divergence (slow; for verification runs)")
	checkpoint := flag.String("checkpoint", "", "checkpoint file: periodically persist census progress for -resume")
	checkpointEvery := flag.Int("checkpoint-every", 0, "save the checkpoint after this many completed subtree roots (0 = default)")
	resume := flag.Bool("resume", false, "resume from -checkpoint if it matches this exploration")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	timeout := flag.Duration("timeout", 0, "per-run deadline: cancel the census after this long, leaving a resumable checkpoint (0 = none)")
	allowPartial := flag.Bool("allow-partial", false, "exit zero even when the census was cancelled or lost subtrees")
	retries := flag.Int("retries", 0, "per-subtree attempt budget for failed workers, at any -workers (0 = default)")
	stallTimeout := flag.Duration("stall-timeout", 0, "watchdog: requeue a subtree whose worker makes no progress for this long (0 = off)")
	chaosKills := flag.Int("chaos-kills", 0, "chaos: inject up to this many worker panics (testing the supervisor)")
	chaosStalls := flag.Int("chaos-stalls", 0, "chaos: inject up to this many worker stalls")
	chaosStallFor := flag.Duration("chaos-stall-for", 50*time.Millisecond, "chaos: duration of each injected stall")
	chaosSeed := flag.Int64("chaos-seed", 1, "chaos: random seed for injection placement")
	jsonOut := flag.Bool("json", false, "emit the census (counts, prune/steal stats, supervision counters) as JSON on stdout instead of prose")
	flag.Parse()

	ctx, stop := runctx.WithDrain(context.Background(), *timeout)
	defer stop()

	stopProf, err := profiling.Start(*cpuprofile, *memprofile)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); perr != nil {
			fmt.Fprintln(os.Stderr, "explore:", perr)
		}
	}()

	// The request/identity encoding is shared with the census daemon:
	// the same flags submitted to cmd/censusd name the same exploration
	// and would dedup against it.
	req := censusd.Request{
		Protocol: *protocol, K: *k, N: *n,
		Crashes: crashes, ObjFaults: *objFaults,
		MaxRuns: *maxRuns, StepLimit: *stepLimit,
		Workers: *workers, Prune: *prune, Symmetry: *symmetry, SleepSets: *sleepsets,
	}
	if *objFaults > 0 {
		req.FaultModes = strings.Split(*faultModes, ",")
	}
	if err := req.Normalize(); err != nil {
		return err
	}
	builder, props, err := req.Build()
	if err != nil {
		return err
	}

	opts := req.Options()
	opts.VerifyFingerprints = *verifyfp
	opts.PruneTableEntries = *pruneBudget
	opts.Context = ctx
	var supStats explore.SuperviseStats
	sup := explore.Supervise{
		MaxAttempts:  *retries,
		StallTimeout: *stallTimeout,
		Stats:        &supStats,
	}
	supervised := *retries > 0 || *stallTimeout > 0
	if *chaosKills > 0 || *chaosStalls > 0 {
		sup.Chaos = &explore.ChaosPlan{
			Seed:     *chaosSeed,
			KillRate: 0.2, MaxKills: *chaosKills,
			StallRate: 0.2, MaxStalls: *chaosStalls,
			StallFor: *chaosStallFor,
		}
		supervised = true
	}
	if supervised {
		opts.Supervision = &sup
	}
	check := req.Check(props)
	var c *explore.Census
	if *checkpoint != "" {
		ck := explore.Checkpoint{Path: *checkpoint, Every: *checkpointEvery, Resume: *resume}
		var stats explore.CheckpointStats
		c, stats, err = explore.RunCheckpointed(builder, opts, check, ck)
		if err != nil {
			return err
		}
		if stats.Warning != "" {
			fmt.Fprintln(os.Stderr, "explore: warning:", stats.Warning)
		}
		fmt.Printf("checkpoint: %d roots (%d resumed), %d saves to %s\n",
			stats.TotalRoots, stats.ResumedRoots, stats.Saves, *checkpoint)
	} else {
		c = explore.Run(builder, opts, check)
	}
	if *jsonOut {
		if err := emitJSON(os.Stdout, *protocol, *crashes, *objFaults, c, supervised, &supStats); err != nil {
			return err
		}
	} else {
		fmt.Printf("census of %s (crash budget %d, object-fault budget %d):\n%s",
			*protocol, *crashes, *objFaults, explore.DescribeCensus(c))
		if supervised {
			fmt.Printf("supervision: %d attempts, %d retries, %d requeues (chaos: %d kills, %d stalls)\n",
				supStats.Attempts.Load(), supStats.Retries.Load(), supStats.Requeues.Load(),
				supStats.Kills.Load(), supStats.Stalls.Load())
		}
	}
	for _, e := range c.Errors {
		fmt.Fprintln(os.Stderr, "explore: exploration error:", e)
	}
	if c.Cancelled {
		msg := "census cancelled before completion"
		if *checkpoint != "" {
			msg += "; resumable with -resume"
		}
		fmt.Fprintln(os.Stderr, "explore:", msg)
	}

	// The valence and bivalence analyses re-explore the crash-free tree
	// from scratch, under the census's reducers; once the deadline or an
	// interrupt has fired there is no budget for them. JSON mode skips
	// them: stdout carries exactly one JSON object.
	reduced := func(maxRuns int) explore.Options {
		return explore.Options{
			MaxRuns: maxRuns, Context: ctx, Prune: opts.Prune, Symmetry: opts.Symmetry,
			SleepSets: opts.SleepSets, PruneTableEntries: opts.PruneTableEntries,
		}
	}
	if !*jsonOut && ctx.Err() == nil {
		v := explore.Valence(builder, reduced(*maxRuns/4), nil)
		fmt.Println("initial valence:", explore.ValenceString(v))
	}

	if !*jsonOut && *bivalence && ctx.Err() == nil {
		path, still := explore.BivalencePath(builder, reduced(*maxRuns/16), 12)
		if still {
			fmt.Printf("bivalence path ran the full 12 steps and is STILL bivalent: %s\n",
				explore.FormatSchedule(path))
			fmt.Println("(an adversary can keep this protocol undecided — the FLP shape)")
		} else {
			fmt.Printf("bivalence exhausted after %d steps: some step decides — the object arbitrates\n",
				len(path))
		}
	}
	if !*allowPartial {
		if len(c.Errors) > 0 {
			return fmt.Errorf("%d subtree(s) permanently failed (rerun with -allow-partial to accept the deficit)", len(c.Errors))
		}
		if c.Cancelled {
			return fmt.Errorf("census cancelled (rerun with -allow-partial to accept partial results)")
		}
	}
	return nil
}

// emitJSON renders the census through the shared censusd.Result shape
// — the same encoding the daemon's durable result cache stores, so
// daemon results and -json output compare field for field.
func emitJSON(w io.Writer, protocol string, crashes, objFaults int, c *explore.Census, supervised bool, st *explore.SuperviseStats) error {
	if !supervised {
		st = nil
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(censusd.ResultFrom(protocol, crashes, objFaults, c, st))
}
