package main

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"reflect"
	"sort"
	"testing"

	"repro/internal/censusd"
	"repro/internal/explore"
)

var update = flag.Bool("update", false, "rewrite pins.json from the oracle engines")

// direct runs req as one plain explore.Run.
func direct(t *testing.T, req censusd.Request) *censusd.Result {
	t.Helper()
	if err := req.Normalize(); err != nil {
		t.Fatal(err)
	}
	b, props, err := req.Build()
	if err != nil {
		t.Fatal(err)
	}
	c := explore.Run(b, req.Options(), req.Check(props))
	return censusd.ResultFrom(req.Protocol, *req.Crashes, req.ObjFaults, c, nil)
}

// oracles maps every pin to a request that produces it with an engine
// other than the one the benchmark times on that instance.
func oracles() map[string]censusd.Request {
	out := map[string]censusd.Request{}
	// census-sym times symmetry plus sleep sets; plain pruning pins it.
	sym := censusSymReq()
	sym.Symmetry, sym.SleepSets, sym.Prune = false, false, true
	out["census-sym"] = sym
	// census-faults times two workers on one shared table; one worker pins it.
	faults := censusFaultsReq()
	faults.Workers = 1
	out["census-faults"] = faults
	// Service jobs run distributed through censusd; a direct run pins them.
	for _, tmpl := range serviceTemplates {
		r := tmpl.Req
		r.MaxRuns = 1 << 40
		out["service/"+tmpl.Name] = r
	}
	return out
}

func TestPinsMatchOracleEngines(t *testing.T) {
	got := map[string]*pinnedCensus{}
	for name, req := range oracles() {
		r := direct(t, req)
		if err := checkCensus(r, req.MaxRuns); err != nil {
			t.Fatalf("%s: the oracle's census fails the gate: %v", name, err)
		}
		got[name] = pinOf(r)
	}
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("pins.json", append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if pinErr != nil {
		t.Fatal(pinErr)
	}
	for name, want := range got {
		if !reflect.DeepEqual(pins[name], want) {
			t.Errorf("%s: pinned %+v, oracle gives %+v", name, pins[name], want)
		}
	}
	if len(pins) != len(got) {
		t.Errorf("pins.json has %d pins, the oracles produce %d", len(pins), len(got))
	}
}

// knownBadReq is recorded as known-bad and is not a workload: its pruned
// census miscounts at both worker counts (see README.md).
func knownBadReq() censusd.Request {
	return censusd.Request{
		Protocol: "casdeg", K: 5, N: 4, Crashes: intp(1), MaxRuns: 1 << 62,
		ObjFaults: 1, FaultModes: []string{"crash"}, Workers: 1, Prune: true,
	}
}

func TestGateFlagsKnownBad(t *testing.T) {
	if testing.Short() {
		t.Skip("explores the known-bad census for several seconds")
	}
	req := knownBadReq()
	err := checkCensus(direct(t, req), req.MaxRuns)
	if err == nil {
		t.Error("workers=1: the gate accepts the known-bad census")
	}
	t.Logf("workers=1: %v", err)
	// At workers=2 the census takes ~36 s on a 2-CPU host; as recorded:
	rec := &censusd.Result{Complete: 743_000_000_000_000_000, ViolationRuns: 6_550_000_000_000_000_000, Exhaustive: true}
	err = checkCensus(rec, req.MaxRuns)
	if err == nil {
		t.Error("workers=2: the gate accepts the recorded known-bad census")
	}
	t.Logf("workers=2 (recorded): %v", err)
}

var allModes = []string{"crash", "garble", "omission", "reset"}

// TestDeterminismSmoke runs a tiny size of every workload: the same seed
// gives the same op sequence, censuses and steps; a different seed
// changes the service job order and the emulate schedules.
func TestDeterminismSmoke(t *testing.T) {
	ctx := context.Background()
	t.Run("census", func(t *testing.T) {
		for _, req := range []censusd.Request{
			{Protocol: "cas", K: 4, N: 3, Crashes: intp(1), MaxRuns: 1 << 62, Workers: 1, Symmetry: true, SleepSets: true},
			{Protocol: "casdeg", K: 3, N: 2, Crashes: intp(1), MaxRuns: 1 << 62, ObjFaults: 1, FaultModes: allModes, Workers: 2, Prune: true},
		} {
			oracle := req
			oracle.Symmetry, oracle.SleepSets, oracle.Prune, oracle.Workers = false, false, true, 1
			c, err := newCensus(req, pinOf(direct(t, oracle)), 1, newLayerStats())
			if err != nil {
				t.Fatalf("%s: %v", req.Protocol, err)
			}
			for i := int64(0); i < 3; i++ {
				if err := c.op(ctx, i, nil); err != nil {
					t.Fatalf("%s op %d: %v", req.Protocol, i, err)
				}
			}
		}
	})
	t.Run("service", func(t *testing.T) {
		tiny := []serviceTemplate{serviceTemplates[0], serviceTemplates[2], serviceTemplates[6]}
		seq := func(seed int64) []serviceItem {
			var out []serviceItem
			for i := int64(0); i < 20; i++ {
				out = append(out, serviceSequence(seed, len(tiny), i))
			}
			return out
		}
		if !reflect.DeepEqual(seq(1), seq(1)) {
			t.Error("the same seed gives different job orders")
		}
		if reflect.DeepEqual(seq(1), seq(2)) {
			t.Error("a different seed gives the same job order")
		}
		s, err := newService(1, tiny, newTracer(), newLayerStats())
		if err != nil {
			t.Fatal(err)
		}
		for i := int64(0); i < int64(len(tiny)+resubmitsPerDeck); i++ {
			if err := s.op(ctx, i, nil); err != nil {
				t.Errorf("op %d: %v", i, err)
			}
		}
		if err := s.close(); err != nil {
			t.Fatal(err)
		}
		if _, err := os.Stat(s.dir); !os.IsNotExist(err) {
			t.Errorf("close left %s behind", s.dir)
		}
	})
	t.Run("emulate", func(t *testing.T) {
		p := emulateParams{K: 3, N: 30, Quota: 3, Hops: 4, MaxIterations: 300, SeedPool: 8}
		steps := func(seed int64) map[int64]int {
			e, err := newEmulate(seed, p, newLayerStats())
			if err != nil {
				t.Fatal(err)
			}
			for i := int64(0); i < 2*int64(p.SeedPool); i++ {
				if err := e.op(ctx, i, nil); err != nil {
					t.Fatalf("op %d: %v", i, err)
				}
			}
			return e.steps
		}
		if a, b := steps(1), steps(1); !reflect.DeepEqual(a, b) {
			t.Errorf("the same seed gives different steps: %v vs %v", a, b)
		}
		if !reflect.DeepEqual(emulatorSeeds(1, 8), emulatorSeeds(1, 8)) {
			t.Error("the same seed gives different schedules")
		}
		if reflect.DeepEqual(emulatorSeeds(1, 8), emulatorSeeds(2, 8)) {
			t.Error("a different seed gives the same schedules")
		}
	})
}

// TestMetricsMatchBenchmarkJSON checks that an untraced run reports
// exactly the end_to_end list of BENCHMARK.json and a traced run exactly
// its per_layer list.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json next to this directory")
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var declared []string
	for _, m := range spec.PerLayer {
		declared = append(declared, m.Name)
		if perLayerUnit[m.Name] != m.Unit {
			t.Errorf("%s: unit %q in BENCHMARK.json, %q here", m.Name, m.Unit, perLayerUnit[m.Name])
		}
	}
	sort.Strings(declared)
	if !reflect.DeepEqual(declared, perLayerNames()) {
		t.Errorf("per_layer in BENCHMARK.json:\n%v\nreported:\n%v", declared, perLayerNames())
	}

	w := workload{name: "emulate-tiny", clients: 1, setup: func(seed int64, tr *tracer, ls *layerStats) (instance, error) {
		return newEmulate(seed, emulateParams{K: 3, N: 30, Quota: 3, Hops: 4, MaxIterations: 300, SeedPool: 8}, ls)
	}}
	res, _, err := measure(&w, 1, 0.2, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Metrics) != len(spec.EndToEnd) {
		t.Errorf("untraced run reports %d metrics, BENCHMARK.json declares %d", len(res.Metrics), len(spec.EndToEnd))
	}
	for _, m := range spec.EndToEnd {
		if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("%s: reported %+v, declared unit %q", m.Name, got, m.Unit)
		}
	}
	if res, _, err = measure(&w, 1, 0.2, true); err != nil {
		t.Fatal(err)
	}
	if len(res.Metrics) != len(spec.PerLayer) {
		t.Errorf("traced run reports %d metrics, BENCHMARK.json declares %d", len(res.Metrics), len(spec.PerLayer))
	}
}
