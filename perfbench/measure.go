package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/explore"
	"repro/internal/sim"
)

// setupRuns is how many times one run sets its workload up; setup_s is
// the median, so one slow set-up does not move it. The instance built
// last is the one measured.
const setupRuns = 3

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps metric names to values.
type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = metric{Value: v, Unit: unit}
}

// result is the final line of standard output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`

	// shown holds numbers printed with the metrics but kept out of the
	// final line: fail_frac (zero when nothing fails) and the percentile
	// op_ms.tail used.
	shown metrics
	errs  []string
}

// window is one closed-loop timed window.
type window struct {
	lat     []float64 // op latencies in ms
	failed  int
	errs    []string
	elapsed time.Duration
	cpu     time.Duration
}

// tracedWindow is what a workload's layers method gets to read.
type tracedWindow struct {
	ops        int
	allocBytes uint64
	gcs        uint32
}

// runWindow runs clients closed-loop clients for d: each issues the
// next op of the shared sequence as soon as its previous op returns,
// until the deadline. Ops in flight at the deadline run to completion
// and count.
func runWindow(inst instance, clients int, d time.Duration, next *atomic.Int64, tr *tracer) *window {
	ctx := context.Background()
	w := &window{}
	var mu sync.Mutex
	cpu0 := cpuTime()
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := next.Add(1) - 1
				sp := tr.start("op", i)
				t0 := time.Now()
				err := inst.op(ctx, i, sp)
				lat := msSince(t0)
				sp.end()
				mu.Lock()
				w.lat = append(w.lat, lat)
				if err != nil {
					w.failed++
					if len(w.errs) < 5 {
						w.errs = append(w.errs, fmt.Sprintf("op %d: %v", i, err))
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	w.elapsed = time.Since(start)
	w.cpu = cpuTime() - cpu0
	return w
}

// measure sets the workload up, runs its timed window and computes the
// metrics: end-to-end ones untraced, or per-layer ones from a traced
// run. The traced run spends the first half of its time untraced, as
// the baseline of the tracing overhead, and the second half traced.
func measure(w *workload, seed int64, seconds float64, traced bool) (res *result, spans []span, err error) {
	tr := newTracer()
	ls := newLayerStats()
	var inst instance
	defer func() {
		if inst != nil {
			if cerr := inst.close(); cerr != nil && err == nil {
				err = fmt.Errorf("%s close: %w", w.name, cerr)
			}
		}
	}()
	var setups []float64
	for r := 0; r < setupRuns; r++ {
		if inst != nil {
			cerr := inst.close()
			inst = nil
			if cerr != nil {
				return nil, nil, fmt.Errorf("%s close: %w", w.name, cerr)
			}
		}
		t0 := time.Now()
		if inst, err = w.setup(seed, tr, ls); err != nil {
			inst = nil
			return nil, nil, fmt.Errorf("%s setup: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	d := time.Duration(seconds * float64(time.Second))
	var next atomic.Int64
	res = &result{Metrics: metrics{}, shown: metrics{}}
	if !traced {
		win := runWindow(inst, w.clients, d, &next, nil)
		res.add(win)
		endToEnd(win, setups, res)
		return res, nil, nil
	}

	base := runWindow(inst, w.clients, d/2, &next, nil)
	res.add(base)
	ls.reset()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	tr.on.Store(true)
	win := runWindow(inst, w.clients, d/2, &next, tr)
	tr.on.Store(false)
	runtime.ReadMemStats(&ms1)
	res.add(win)

	tw := tracedWindow{ops: len(win.lat), allocBytes: ms1.TotalAlloc - ms0.TotalAlloc, gcs: ms1.NumGC - ms0.NumGC}
	if err := inst.layers(tw, res.Metrics); err != nil {
		return nil, nil, fmt.Errorf("%s layers: %w", w.name, err)
	}
	spans = tr.snapshot()
	self := selfTimes(spans)
	for _, layer := range traceLayers {
		res.Metrics.set("self_ms."+layer, float64(self[layer])/1e6/float64(tw.ops), "ms")
	}
	res.Metrics.set("trace.overhead", ratio(median(win.lat), median(base.lat)), "ratio")
	res.Metrics.set("trace.spans_per_op", float64(len(spans))/float64(tw.ops), "count/op")
	// Layers a workload does not exercise report zero, so every traced
	// run prints the same metric set.
	for _, pl := range perLayer {
		if _, ok := res.Metrics[pl.name]; !ok {
			res.Metrics.set(pl.name, 0, pl.unit)
		}
	}
	for name := range res.Metrics {
		if _, ok := perLayerUnit[name]; !ok {
			return nil, nil, fmt.Errorf("metric %s is not declared in perLayer", name)
		}
	}
	return res, spans, nil
}

func (r *result) add(w *window) {
	r.Attempted += len(w.lat)
	r.Failed += w.failed
	r.errs = append(r.errs, w.errs...)
	r.Correct = r.Failed == 0
	r.shown.set("fail_frac", ratio(float64(r.Failed), float64(r.Attempted)), "ratio")
}

func endToEnd(w *window, setups []float64, r *result) {
	n := float64(len(w.lat))
	m := r.Metrics
	m.set("op_ms.p50", median(w.lat), "ms")
	v, pct := tail(w.lat)
	m.set("op_ms.tail", v, "ms")
	r.shown.set("op_ms.tail_percentile", pct, "%")
	r.shown.set("ops", n, "count")
	m.set("ops_per_s", n/w.elapsed.Seconds(), "1/s")
	m.set("cpu_ms_per_op", ms(w.cpu)/n, "ms")
	m.set("peak_rss_mb", peakRSSMB(), "MB")
	m.set("setup_s", median(setups), "s")
}

// traceLayers are the layers the traced run reports self time for.
var traceLayers = []string{"op", "explore", "consensus", "censusd", "distcensus", "core"}

type layerMetric struct{ name, unit string }

// perLayer is every metric a traced run reports, on every workload.
var perLayer = func() []layerMetric {
	out := []layerMetric{
		{"sim.step_ns", "ns"}, {"sim.step_fp_ns", "ns"}, {"sim.step_canon_ns", "ns"},
		{"sim.canon_read_ns", "ns"}, {"sim.snapshot_ns", "ns"}, {"sim.restore_ns", "ns"},
		{"sim.snap_words", "count"},
	}
	for _, c := range exploreCounters {
		out = append(out, layerMetric{"explore." + c, "count/op"})
	}
	out = append(out, []layerMetric{
		{"explore.hit_rate", "ratio"}, {"explore.steal_yield", "ratio"},
		{"explore.us_per_probe", "us"}, {"explore.self_ms", "ms"},
		{"explore.alloc_mb_per_op", "MB"}, {"explore.gc_per_op", "count/op"},
		{"consensus.build_calls", "count/op"}, {"consensus.build_ms", "ms"},
		{"consensus.check_calls", "count/op"}, {"consensus.check_ms", "ms"},
		{"censusd.submit_ms.p50", "ms"}, {"censusd.queue_ms.p50", "ms"},
		{"censusd.run_ms.p50", "ms"}, {"censusd.result_lag_ms.p50", "ms"},
		{"censusd.cache_ms.p50", "ms"}, {"censusd.cache_hits", "count"},
		{"censusd.shed", "count"}, {"censusd.roots_per_job", "count"},
		{"censusd.checkpoint_saves_per_job", "count"}, {"censusd.store_kb_per_job", "KB"},
		{"censusd.remote_roots", "count"}, {"censusd.lease_expiries", "count"},
		{"censusd.stale_results", "count"}, {"censusd.duplicate_results", "count"},
		{"distcensus.lease_rtt_ms.p50", "ms"}, {"distcensus.lease_polls", "count/op"},
		{"distcensus.leases", "count/op"}, {"distcensus.lease_yield", "ratio"},
		{"distcensus.heartbeat_rtt_ms.p50", "ms"}, {"distcensus.heartbeats", "count/op"},
		{"distcensus.deliver_rtt_ms.p50", "ms"}, {"distcensus.deliveries", "count/op"},
		{"distcensus.root_ms.p50", "ms"},
		{"core.run_ms", "ms"}, {"core.analyze_ms", "ms"}, {"core.audit_ms", "ms"},
		{"core.steps", "count/op"}, {"core.iterations", "count/op"}, {"core.ns_per_step", "ns"},
	}...)
	for _, l := range traceLayers {
		out = append(out, layerMetric{"self_ms." + l, "ms"})
	}
	return append(out, layerMetric{"trace.overhead", "ratio"}, layerMetric{"trace.spans_per_op", "count/op"})
}()

var perLayerUnit = func() map[string]string {
	m := make(map[string]string, len(perLayer))
	for _, pl := range perLayer {
		m[pl.name] = pl.unit
	}
	return m
}()

// perLayerNames lists the per-layer metric names, sorted.
func perLayerNames() []string {
	out := make([]string, 0, len(perLayer))
	for _, pl := range perLayer {
		out = append(out, pl.name)
	}
	sort.Strings(out)
	return out
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailLadder lists the percentiles op_ms.tail may report, highest first.
var tailLadder = []float64{99.9, 99, 95, 90, 75}

// tail returns the highest percentile of xs that has at least ten
// samples beyond it, and which percentile that was. With fewer than
// twenty samples no percentile above the median qualifies, and the
// median is reported as percentile 50.
func tail(xs []float64) (value, pct float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	for _, q := range tailLadder {
		// Nearest rank: the sample at rank ceil(q·n/100).
		rank := int(math.Ceil(q / 100 * float64(n)))
		if rank >= 1 && n-rank >= 10 {
			return s[rank-1], q
		}
	}
	return median(xs), 50
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size (VmHWM) in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func msSince(t time.Time) float64 { return ms(time.Since(t)) }

// layerStats accumulates per-layer samples and sums.
type layerStats struct {
	mu      sync.Mutex
	samples map[string][]float64
	sums    map[string]float64
}

func newLayerStats() *layerStats {
	return &layerStats{samples: map[string][]float64{}, sums: map[string]float64{}}
}

func (l *layerStats) sample(name string, v float64) {
	l.mu.Lock()
	l.samples[name] = append(l.samples[name], v)
	l.mu.Unlock()
}

func (l *layerStats) add(name string, v float64) {
	l.mu.Lock()
	l.sums[name] += v
	l.mu.Unlock()
}

func (l *layerStats) p50(name string) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return median(l.samples[name])
}

func (l *layerStats) sum(name string) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sums[name]
}

// reset drops everything recorded so far.
func (l *layerStats) reset() {
	l.mu.Lock()
	l.samples = map[string][]float64{}
	l.sums = map[string]float64{}
	l.mu.Unlock()
}

// span is one traced interval: a layer boundary the benchmark crossed.
// Spans of one op share Op; Parent is the span that caused this one (0
// for none). An aggregate span stands for Calls calls of a
// high-frequency function — the per-run check — under one parent:
// BusyNs is their summed duration and Start/End bound the parent.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Calls  int64  `json:"calls,omitempty"`
	BusyNs int64  `json:"busy_ns,omitempty"`
}

// tracer keeps spans in memory until the run ends. It records only
// while on is set; a span started while off is nil, and every method of
// a nil *openSpan is a no-op, so untraced ops pay one atomic load.
type tracer struct {
	t0    time.Time
	on    atomic.Bool
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// openSpan is a started, not yet ended span.
type openSpan struct {
	t *tracer
	s span
}

// start opens a span with no parent for op; nil while tracing is off.
func (t *tracer) start(name string, op int64) *openSpan {
	if t == nil || !t.on.Load() {
		return nil
	}
	return &openSpan{t: t, s: span{ID: t.ids.Add(1), Op: op, Name: name, Start: t.now()}}
}

// child opens a span caused by p; nil when p is nil.
func (p *openSpan) child(name string) *openSpan {
	if p == nil {
		return nil
	}
	t := p.t
	return &openSpan{t: t, s: span{ID: t.ids.Add(1), Parent: p.s.ID, Op: p.s.Op, Name: name, Start: t.now()}}
}

func (p *openSpan) end() {
	if p == nil {
		return
	}
	p.s.End = p.t.now()
	p.t.record(p.s)
}

// aggregate records a's calls as one aggregate span under p.
func (p *openSpan) aggregate(name string, a *callAgg) {
	if p == nil || a.calls.Load() == 0 {
		return
	}
	p.t.record(span{
		ID: p.t.ids.Add(1), Parent: p.s.ID, Op: p.s.Op, Name: name,
		Start: p.s.Start, End: p.t.now(), Calls: a.calls.Load(), BusyNs: a.ns.Load(),
	})
}

// callAgg counts and times the calls of one wrapped function. It is
// safe for the concurrent calls of parallel census workers.
type callAgg struct {
	calls atomic.Int64
	ns    atomic.Int64
}

func (a *callAgg) observe(t0 time.Time) {
	a.ns.Add(int64(time.Since(t0)))
	a.calls.Add(1)
}

// wrapCheck times every call of a per-run census check.
func (a *callAgg) wrapCheck(check func(*sim.Result) error) func(*sim.Result) error {
	if check == nil {
		return nil
	}
	return func(r *sim.Result) error {
		t0 := time.Now()
		err := check(r)
		a.observe(t0)
		return err
	}
}

// wrapBuilder times every system build, each as a consensus.build span
// under parent.
func (a *callAgg) wrapBuilder(b explore.Builder, parent *openSpan) explore.Builder {
	return func() *sim.System {
		sp := parent.child("consensus.build")
		t0 := time.Now()
		sys := b()
		a.observe(t0)
		sp.end()
		return sys
	}
}

// recordConsensus adds one scope's builder and check calls to the
// consensus layer's totals.
func recordConsensus(ls *layerStats, builds, checks *callAgg) {
	ls.add("consensus.build_calls", float64(builds.calls.Load()))
	ls.add("consensus.build_ms", float64(builds.ns.Load())/1e6)
	ls.add("consensus.check_calls", float64(checks.calls.Load()))
	ls.add("consensus.check_ms", float64(checks.ns.Load())/1e6)
}

// consensusLayers reports the consensus layer per op.
func consensusLayers(ls *layerStats, ops float64, m metrics) {
	m.set("consensus.build_calls", ls.sum("consensus.build_calls")/ops, "count/op")
	m.set("consensus.build_ms", ls.sum("consensus.build_ms")/ops, "ms")
	m.set("consensus.check_calls", ls.sum("consensus.check_calls")/ops, "count/op")
	m.set("consensus.check_ms", ls.sum("consensus.check_ms")/ops, "ms")
}

// layerOf names the layer a span belongs to: its name up to the first
// dot ("explore.run" → "explore"; the op span is layer "op").
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// selfTimes sums each layer's self time in nanoseconds. A span's self
// time is its duration minus the part of it its children cover: the
// union of ordinary children's intervals plus the busy time of
// aggregate children. An aggregate's own self time is its busy time.
// Children that ran on parallel workers can cover more than their
// parent's duration; the parent's self time is then clamped to zero,
// so on a parallel census the explore self time is a lower bound.
func selfTimes(spans []span) map[string]int64 {
	kids := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[string]int64)
	for _, s := range spans {
		self := s.BusyNs
		if s.Calls == 0 {
			self = max(0, s.End-s.Start-covered(s, kids[s.ID]))
		}
		out[layerOf(s.Name)] += self
	}
	return out
}

func covered(p span, kids []span) int64 {
	var busy int64
	var iv [][2]int64
	for _, k := range kids {
		if k.Calls > 0 {
			busy += k.BusyNs
			continue
		}
		a, b := max(k.Start, p.Start), min(k.End, p.End)
		if a < b {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, lo, hi int64
	for i, x := range iv {
		switch {
		case i == 0:
			lo, hi = x[0], x[1]
		case x[0] > hi:
			total += hi - lo
			lo, hi = x[0], x[1]
		case x[1] > hi:
			hi = x[1]
		}
	}
	if len(iv) > 0 {
		total += hi - lo
	}
	return total + busy
}

// writeTrace writes the provenance and then one span per line.
func writeTrace(path string, prov provenance, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"provenance": prov}); err != nil {
		f.Close()
		return err
	}
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
