// Command perfbench is oblivmc's benchmark: seeded closed-loop workloads
// against the public API (relational queries and joins on a Session, a
// served HTTP mix, graph operators) with every output checked against a
// plain-Go reference. An untraced run prints the end-to-end metrics; a
// traced run (-trace 1) replays the workload through each layer's entry
// points and prints the per-layer breakdown. The last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// Usage (from the repository root; see README.md in this directory):
//
//	bash perfbench/run.sh --workload relational --seed 1 --seconds 25 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// workload is one benchmark workload after set-up.
type workload interface {
	// loop runs the untraced closed loop for d.
	loop(d time.Duration) loopResult
	// traced replays the workload's operation stream for d through the
	// layers' entry points, recording spans into tr.
	traced(d time.Duration, tr *tracer) (tracedResult, error)
	// kinds lists the operation kinds whose latencies are reported.
	kinds() []string
	close()
}

// tracedResult is what a traced replay measured besides its spans.
type tracedResult struct {
	// ops operations completed in busy (single caller) or wall (several
	// callers) time.
	ops        int
	busy, wall time.Duration
	// replicaOps is the per-operation denominator of the replica's layer
	// metrics.
	replicaOps float64
	// plannedSorts sums plan.Plan.SortPasses over builds plan.Build calls.
	plannedSorts, builds int
	// networkCalls is the bitonic network invocations during the replica's
	// operations.
	networkCalls int64
	// spms is the probe's estimate of the sample-sort time in the
	// replica's shuffle sorts.
	spms time.Duration
	// layers holds metrics the workload computes itself.
	layers map[string]float64
}

// shape is a workload's parallelism: fork-join workers per lane, lanes,
// and client goroutines.
type shape struct{ workers, lanes, clients int }

var workloads = map[string]struct {
	build func(seed uint64, tiny bool) (workload, error)
	shape shape
}{
	"relational": {newRelational, shape{2, 1, 1}},
	"serve":      {newServe, shape{2, 1, serveClients}},
	"graph":      {newGraph, shape{2, 1, 1}},
}

type metricDef struct{ name, unit string }

// endToEnd are the untraced run's metrics.
var endToEnd = []metricDef{
	{"throughput_ops_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"setup_s", "s"},
	{"peak_heap_mb", "MB"},
}

// perLayer are the traced run's metrics; a layer a workload does not
// exercise reports 0.
var perLayer = []metricDef{
	{"query_p50_ms", "ms"},
	{"join_all_p50_ms", "ms"},
	{"graph_p50_ms", "ms"},
	{"load_p50_ms", "ms"},
	{"failed_ratio", "ratio"},
	{"serve.rtt_ms", "ms"},
	{"serve.handler_ms", "ms"},
	{"serve.transport_ms", "ms"},
	{"serve.codec_ms", "ms"},
	{"serve.resp_kb", "kB"},
	{"serve.execute_ms", "ms"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.lane_wait_ms", "ms"},
	{"serve.load_ms", "ms"},
	{"serve.refused", "count"},
	{"oblivmc.op_ms", "ms"},
	{"oblivmc.self_ms", "ms"},
	{"oblivmc.sort_passes", "count"},
	{"plan.build_us", "us"},
	{"plan.sorts", "count"},
	{"relops.execute_ms", "ms"},
	{"relops.joinall_ms", "ms"},
	{"relops.self_ms", "ms"},
	{"sort.calls", "count"},
	{"sort.elems", "count"},
	{"sort.ms", "ms"},
	{"core.shuffle_ms", "ms"},
	{"core.shuffle_calls", "count"},
	{"core.benes_ms", "ms"},
	{"spms.samplesort_ms", "ms"},
	{"bitonic.ms", "ms"},
	{"bitonic.calls", "count"},
	{"bitonic.network_calls", "count"},
	{"graph.kernel_ms", "ms"},
	{"graph.self_ms", "ms"},
	{"graph.rounds", "count"},
	{"graph.sorts_per_round", "count"},
	{"forkjoin.cpu_util", "ratio"},
	{"mem.alloc_mb", "MB"},
	{"mem.gc_cpu_frac", "ratio"},
	{"metered.work", "count"},
	{"metered.span", "count"},
	{"metered.memops", "count"},
	{"metered.cache_misses", "count"},
	{"metered.shuffle_work", "count"},
	{"metered.shuffle_span", "count"},
	{"metered.shuffle_memops", "count"},
	{"metered.shuffle_cache_misses", "count"},
	{"trace.overhead_ratio", "ratio"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// meta is printed before the result: the run's environment and sample
// counts.
type meta struct {
	Workload   string         `json:"workload"`
	Seed       uint64         `json:"seed"`
	Trace      int            `json:"trace"`
	NumCPU     int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	GoVersion  string         `json:"go"`
	Workers    int            `json:"workers"`
	Lanes      int            `json:"lanes"`
	Clients    int            `json:"clients"`
	TailPct    int            `json:"latency_tail_pct"`
	Samples    map[string]int `json:"samples"`
	SetupRuns  []float64      `json:"setup_runs_s,omitempty"`
	Spans      string         `json:"spans,omitempty"`
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	tiny     bool
	out      string
}

// setupReps is the number of set-ups an untraced run times; setup_s is
// their median.
const setupReps = 3

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run executes one benchmark run and returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload: relational, serve or graph")
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	fs.Float64Var(&o.seconds, "seconds", 25, "measured seconds")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: traced per-layer metrics")
	fs.BoolVar(&o.tiny, "tiny", false, "tiny sizes, for the smoke test")
	fs.StringVar(&o.out, "out", filepath.Join(".bench_build", "perfbench"), "directory for the span files of traced runs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	res, m, err := bench(o)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]meta{"perfbench": m}); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if !res.Correct {
		fmt.Fprintln(stderr, "perfbench: wrong outputs; see failed")
		return 1
	}
	return 0
}

func bench(o options) (result, meta, error) {
	wl, ok := workloads[o.workload]
	if !ok {
		return result{}, meta{}, fmt.Errorf("unknown workload %q (relational, serve, graph)", o.workload)
	}
	if o.trace != 0 && o.trace != 1 {
		return result{}, meta{}, fmt.Errorf("-trace must be 0 or 1")
	}
	if o.seconds <= 0 {
		return result{}, meta{}, fmt.Errorf("-seconds must be positive")
	}
	m := meta{
		Workload: o.workload, Seed: o.seed, Trace: o.trace,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Workers: wl.shape.workers, Lanes: wl.shape.lanes, Clients: wl.shape.clients,
	}
	threads := max(wl.shape.workers*wl.shape.lanes, wl.shape.clients)
	if threads > m.NumCPU || threads > m.GOMAXPROCS {
		return result{}, m, fmt.Errorf("refusing to run: %s uses %d workers x %d lanes and %d clients, but only %d CPUs (GOMAXPROCS %d) are available",
			o.workload, wl.shape.workers, wl.shape.lanes, wl.shape.clients, m.NumCPU, m.GOMAXPROCS)
	}
	reps := setupReps
	if o.trace == 1 {
		reps = 1
	}
	var w workload
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		var err error
		if w, err = wl.build(o.seed, o.tiny); err != nil {
			return result{}, m, fmt.Errorf("set-up: %w", err)
		}
		m.SetupRuns = append(m.SetupRuns, time.Since(t0).Seconds())
		if i < reps-1 {
			w.close()
		}
	}
	defer w.close()
	d := time.Duration(o.seconds * float64(time.Second))
	if o.trace == 0 {
		lr := w.loop(d)
		res := outcome(lr)
		lats := lr.lats("")
		m.TailPct = tailPct(len(lats))
		m.Samples = samples(w, lr)
		setup := append([]float64(nil), m.SetupRuns...)
		sort.Float64s(setup)
		res.Metrics = metricsOf(endToEnd, map[string]float64{
			"throughput_ops_s": lr.throughput(wl.shape.clients),
			"latency_p50_ms":   quantile(lats, 0.5),
			"latency_tail_ms":  quantile(lats, float64(m.TailPct)/100),
			"setup_s":          setup[len(setup)/2],
			"peak_heap_mb":     lr.peakHeap / 1e6,
		})
		return res, m, nil
	}
	res, err := tracedRun(o, w, wl.shape, d, &m)
	return res, m, err
}

// outcome fills the result's counts from a loop.
func outcome(lr loopResult) result {
	return result{Correct: lr.wrong() == 0, Attempted: len(lr.recs), Failed: lr.failed()}
}

func samples(w workload, lr loopResult) map[string]int {
	s := map[string]int{"ops": len(lr.recs)}
	for _, k := range w.kinds() {
		s[k] = lr.count(k)
	}
	return s
}

// tracedRun measures half the time untraced (the latency-by-kind, CPU,
// memory and failure figures and the base of the tracing overhead) and
// half traced, then derives the per-layer metrics from the spans.
func tracedRun(o options, w workload, sh shape, d time.Duration, m *meta) (result, error) {
	lr := w.loop(d / 2)
	res := outcome(lr)
	m.TailPct = tailPct(len(lr.recs))
	m.Samples = samples(w, lr)
	vals := map[string]float64{}
	for _, k := range []struct{ kind, name string }{
		{"query", "query_p50_ms"}, {"join_all", "join_all_p50_ms"}, {"graph", "graph_p50_ms"}, {"load", "load_p50_ms"},
	} {
		vals[k.name] = quantile(lr.lats(k.kind), 0.5)
	}
	if res.Attempted > 0 {
		vals["failed_ratio"] = float64(res.Failed) / float64(res.Attempted)
	}
	vals["serve.refused"] = float64(lr.refused)
	if lr.wall > 0 {
		vals["forkjoin.cpu_util"] = lr.cpu.Seconds() / (lr.wall.Seconds() * float64(sh.workers*sh.lanes))
	}
	if n := len(lr.recs); n > 0 {
		vals["mem.alloc_mb"] = lr.allocBytes / 1e6 / float64(n)
	}
	if lr.totalCPU > 0 {
		vals["mem.gc_cpu_frac"] = lr.gcCPU / lr.totalCPU
	}

	tr := newTracer()
	tres, err := w.traced(d/2, tr)
	if err != nil {
		return res, fmt.Errorf("traced run: %w", err)
	}
	res.Attempted += tres.ops
	spans := tr.snapshot()
	if err := checkNesting(spans); err != nil {
		return res, fmt.Errorf("traced run: %w", err)
	}
	if err := replicaLayers(vals, spans, tres); err != nil {
		return res, err
	}
	for k, v := range tres.layers {
		vals[k] = v
	}
	untraced := lr.throughput(sh.clients)
	traced := 0.0
	if sh.clients == 1 && tres.busy > 0 {
		traced = float64(tres.ops) / tres.busy.Seconds()
	} else if tres.wall > 0 {
		traced = float64(tres.ops) / tres.wall.Seconds()
	}
	if untraced > 0 {
		vals["trace.overhead_ratio"] = traced / untraced
	}
	if err := meteredCounts(o.workload, vals); err != nil {
		return res, err
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return res, err
	}
	m.Spans = filepath.Join(o.out, fmt.Sprintf("spans-%s-%d.jsonl", o.workload, o.seed))
	if err := tr.write(m.Spans); err != nil {
		return res, err
	}
	res.Metrics = metricsOf(perLayer, vals)
	return res, nil
}

// metricsOf reports every defined metric with its unit (0 when absent).
func metricsOf(defs []metricDef, vals map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, def := range defs {
		out[def.name] = metric{vals[def.name], def.unit}
	}
	return out
}

// replicaLayers derives the relational, sorter and graph layer metrics
// from the replica's spans, per operation.
func replicaLayers(m map[string]float64, spans []span, t tracedResult) error {
	lt, err := totals(spans)
	if err != nil {
		return err
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	if t.builds > 0 {
		m["plan.build_us"] = float64(lt.dur["plan.build"]) / float64(time.Microsecond) / float64(lt.calls["plan.build"])
		m["plan.sorts"] = float64(t.plannedSorts) / float64(t.builds)
	}
	ops := t.replicaOps
	if ops <= 0 {
		return nil
	}
	var elems, shuffleCalls int
	var shuffle time.Duration
	for _, s := range spans {
		if s.Name != "sort" {
			continue
		}
		elems += s.N
		if shuffled(s.N) {
			shuffle += s.dur()
			shuffleCalls++
		}
	}
	per := func(x float64) float64 { return x / ops }
	m["oblivmc.op_ms"] = per(ms(lt.dur["oblivmc.op"]))
	m["oblivmc.self_ms"] = per(ms(lt.self["oblivmc.op"]))
	m["relops.execute_ms"] = per(ms(lt.dur["relops.execute"]))
	m["relops.joinall_ms"] = per(ms(lt.dur["relops.joinall"]))
	m["relops.self_ms"] = per(ms(lt.self["relops.execute"] + lt.self["relops.joinall"] + lt.self["relops.load"] + lt.self["relops.unload"]))
	m["sort.calls"] = per(float64(lt.calls["sort"]))
	m["sort.elems"] = per(float64(elems))
	m["sort.ms"] = per(ms(lt.dur["sort"]))
	m["core.shuffle_ms"] = per(ms(shuffle))
	m["core.shuffle_calls"] = per(float64(shuffleCalls))
	m["spms.samplesort_ms"] = per(ms(t.spms))
	m["core.benes_ms"] = max(0, m["core.shuffle_ms"]-m["spms.samplesort_ms"])
	m["bitonic.ms"] = per(ms(lt.dur["bitonic"]))
	m["bitonic.calls"] = per(float64(lt.calls["bitonic"]))
	m["bitonic.network_calls"] = per(float64(t.networkCalls))
	m["graph.kernel_ms"] = per(ms(lt.dur["graph.kernel"]))
	m["graph.self_ms"] = per(ms(lt.self["graph.kernel"]))
	return nil
}
