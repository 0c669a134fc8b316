// Command perfbench is the repository's seeded benchmark. It runs one
// workload as a closed loop for a fixed number of seconds, checks every
// operation's output against pinned censuses, and prints the end-to-end
// metrics (or, with --trace 1, the per-layer metrics) as the last line
// of standard output:
//
//	perfbench --workload census-sym --seed 1 --seconds 20 --trace 0
//
// Every layer is measured from outside: the benchmark times calls into
// the public functions of internal/explore, internal/sim, internal/core,
// internal/censusd and internal/distcensus, and wraps the explore.Builder,
// the per-run check, distcensus.Client.HTTP and distcensus.Worker.Build.
// README.md explains the workloads and the metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// buildDir holds everything a run writes: result records, traces and
// the service workload's temporary store. It is relative to the working
// directory, which is the repository root.
const buildDir = ".bench_build"

// workload is one named traffic shape.
type workload struct {
	name string
	// clients is the number of closed-loop clients issuing ops.
	clients int
	// params are the workload's fixed inputs, recorded with every result.
	params any
	// setup builds a ready instance, warm-up included.
	setup func(seed int64, tr *tracer, ls *layerStats) (instance, error)
}

// instance is one set-up workload.
type instance interface {
	// op runs operation i of the workload's seeded sequence; sp is the
	// op's span, nil when the op is not traced.
	op(ctx context.Context, i int64, sp *openSpan) error
	// layers adds the workload's per-layer metrics for a traced window.
	layers(tw tracedWindow, m metrics) error
	// close releases everything setup acquired.
	close() error
}

func workloads() []workload {
	return []workload{
		{name: "census-sym", clients: 1, params: censusSymReq(), setup: func(seed int64, tr *tracer, ls *layerStats) (instance, error) {
			return newCensus(censusSymReq(), pinFor("census-sym"), seed, ls)
		}},
		{name: "census-faults", clients: 1, params: censusFaultsReq(), setup: func(seed int64, tr *tracer, ls *layerStats) (instance, error) {
			return newCensus(censusFaultsReq(), pinFor("census-faults"), seed, ls)
		}},
		{name: "service-mix", clients: 2, params: serviceParams(), setup: func(seed int64, tr *tracer, ls *layerStats) (instance, error) {
			return newService(seed, serviceTemplates, tr, ls)
		}},
		{name: "emulate", clients: 1, params: emulateDefaults, setup: func(seed int64, tr *tracer, ls *layerStats) (instance, error) {
			return newEmulate(seed, emulateDefaults, ls)
		}},
	}
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	name := flag.String("workload", "", "workload: census-sym | census-faults | service-mix | emulate")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 10, "length of the timed window")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.Parse()
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("need --seconds > 0 and --trace 0 or 1")
	}
	var w *workload
	var names []string
	for _, cand := range workloads() {
		names = append(names, cand.name)
		if cand.name == *name {
			cand := cand
			w = &cand
		}
	}
	if w == nil {
		return fmt.Errorf("unknown workload %q (have %s)", *name, strings.Join(names, ", "))
	}
	if pinErr != nil {
		return pinErr
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return err
	}
	prov := provenanceOf(w, *seed, *seconds, *trace == 1)
	res, spans, err := measure(w, *seed, *seconds, *trace == 1)
	if err != nil {
		return err
	}
	return report(prov, res, spans)
}

// provenance is recorded with every result.
type provenance struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	Params     any     `json:"params"`
	CPUs       int     `json:"cpus"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"num_cpu"`
	GoVersion  string  `json:"go_version"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	Commit     string  `json:"commit"`
	Dirty      *bool   `json:"dirty"`
}

func provenanceOf(w *workload, seed int64, seconds float64, trace bool) provenance {
	p := provenance{
		Workload: w.name, Seed: seed, Seconds: seconds, Trace: trace, Params: w.params,
		// cpus follows the repository's BENCH files: the processors the Go
		// runtime actually uses.
		CPUs:       runtime.GOMAXPROCS(0),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Commit:     "unknown",
	}
	// A checkout without git metadata records the commit as unknown.
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		p.Commit = strings.TrimSpace(string(out))
		if st, err := exec.Command("git", "status", "--porcelain", "--untracked-files=no").Output(); err == nil {
			dirty := len(strings.TrimSpace(string(st))) > 0
			p.Dirty = &dirty
		}
	}
	return p
}

// report prints the human-readable metric lines, the provenance line and
// the final JSON line, and writes the run's result record (and trace)
// under buildDir.
func report(prov provenance, res *result, spans []span) error {
	shown := metrics{}
	for n, m := range res.Metrics {
		shown[n] = m
	}
	for n, m := range res.shown {
		shown[n] = m
	}
	names := make([]string, 0, len(shown))
	for n := range shown {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("metric %-40s %16.6f %s\n", n, shown[n].Value, shown[n].Unit)
	}
	for _, e := range res.errs {
		fmt.Println("failure", e)
	}
	provJSON, err := json.Marshal(prov)
	if err != nil {
		return err
	}
	fmt.Printf("provenance %s\n", provJSON)

	mode := "e2e"
	if prov.Trace {
		mode = "trace"
	}
	stem := fmt.Sprintf("%s-seed%d-%s", prov.Workload, prov.Seed, mode)
	record := struct {
		Provenance provenance `json:"provenance"`
		Metrics    metrics    `json:"metrics"`
		Attempted  int        `json:"attempted"`
		Failed     int        `json:"failed"`
		Failures   []string   `json:"failures,omitempty"`
	}{prov, shown, res.Attempted, res.Failed, res.errs}
	if err := writeJSON(filepath.Join(buildDir, "results", stem+".json"), record); err != nil {
		return err
	}
	if prov.Trace {
		if err := writeTrace(filepath.Join(buildDir, "traces", stem+".jsonl"), prov, spans); err != nil {
			return err
		}
	}
	last, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(last))
	return nil
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
