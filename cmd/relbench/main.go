// Command relbench measures the wall-clock throughput (elements/second) of
// the oblivious relational layer — Compact, GroupBy (narrow and wide),
// Join, the many-to-many JoinAll, and the end-to-end
// Filter→Distinct→GroupBy→TopK query pipeline in both its planner-fused
// and staged-baseline form — at n ∈ {2^12, 2^16, 2^20}, and writes the
// results as JSON (the BENCH_*.json trend artifact CI uploads). The graph
// points (graph_cc_bitonic / graph_cc_shuffle / graph_msf) run the
// edge-table workloads over the canonical benchmark graph at 2^16 and 2^20
// edges — n for those points counts edges — with min-hook CC measured on
// both backends side by side; MSF stops at 2^16 edges (its revealed
// Borůvka iteration count makes the 2^20 point a multi-hour measurement).
//
// The trend points run the default (Auto) sort backend; the explicitly
// suffixed points (groupby_bitonic/groupby_shuffle and the query_fused
// pair) pin one backend each, recording the keyed-bitonic versus
// shuffle-then-sort comparison side by side at every size.
//
// -procs takes a comma-separated list of pool sizes and repeats every
// point once per size, producing a scaling curve in a single artifact:
// each result records the workers it ran under, and the envelope records
// both GOMAXPROCS and the machine's CPU count so single- and multi-core
// trajectories stay distinguishable. Asking for more workers than
// GOMAXPROCS is an error — oversubscribed goroutines time-share cores and
// the "curve" would silently measure scheduler noise — unless
// -oversubscribe explicitly opts in (the artifact is then marked).
//
// Usage:
//
//	relbench -out BENCH_HEAD.json             # full sweep, one pool size
//	relbench -procs 1,4,8 -out BENCH_8.json   # scaling sweep
//	relbench -max 65536 -iters 5              # bounded sweep for quick checks
//	relbench -points groupby_shuffle,join_all # only the named points
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"oblivmc"
	"oblivmc/internal/benchdata"
	"oblivmc/internal/bitonic"
	"oblivmc/internal/core"
	"oblivmc/internal/forkjoin"
	"oblivmc/internal/mem"
	"oblivmc/internal/obliv"
	"oblivmc/internal/plan"
	"oblivmc/internal/relops"
)

// Result is one benchmark measurement.
type Result struct {
	Name        string  `json:"name"`
	N           int     `json:"n"`
	Workers     int     `json:"workers"`
	Iters       int     `json:"iters"`
	SecPerOp    float64 `json:"sec_per_op"`
	ElemsPerSec float64 `json:"elems_per_sec"`
}

// File is the artifact envelope. Schema 2 adds per-result workers and the
// sweep list; Workers stays as the first sweep entry so schema-1 consumers
// (and old artifacts fed to benchdiff) keep working.
type File struct {
	Schema         string   `json:"schema"`
	Generated      string   `json:"generated"`
	GoVersion      string   `json:"go_version"`
	MaxProcs       int      `json:"max_procs"`
	NumCPU         int      `json:"num_cpu"`
	Workers        int      `json:"workers"`
	Procs          []int    `json:"procs"`
	Oversubscribed bool     `json:"oversubscribed,omitempty"`
	Sizes          []int    `json:"sizes"`
	Results        []Result `json:"results"`
}

// The workload is the canonical one shared with bench_test.go via
// internal/benchdata, so this artifact stays comparable with
// `go test -bench` numbers.
func rows(n int) []oblivmc.Row {
	recs := benchdata.Records(n)
	out := make([]oblivmc.Row, n)
	for i, r := range recs {
		out[i] = oblivmc.Row{Key: r.Key, Val: r.Val}
	}
	return out
}

// Relational sort backends measured side by side. The sorter constructors
// run per iteration: the shuffle sorter counts its sorts, so instances are
// per logical run, mirroring the Table layer. The benchmarks pin the
// shuffle seed (FixedSeed / DeterministicShuffle) so iterations measure
// identical traces — acceptable here because nothing secret is being
// hidden, and exactly the mode the library defaults away from.
var benchSeed uint64 = 1

func autoSorter() obliv.ScheduledSorter    { return &core.ShuffleSorter{FixedSeed: &benchSeed} }
func bitonicSorter() obliv.ScheduledSorter { return bitonic.CacheAgnostic{} }
func shuffleSorter() obliv.ScheduledSorter {
	return &core.ShuffleSorter{FixedSeed: &benchSeed, Crossover: 2}
}

// parseProcs parses the -procs comma list into resolved pool sizes
// (0 → GOMAXPROCS) and fails fast on oversubscription unless allowed.
func parseProcs(spec string, oversubscribe bool) ([]int, bool) {
	maxProcs := runtime.GOMAXPROCS(0)
	var ws []int
	oversub := false
	for _, f := range strings.Split(spec, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		v, err := strconv.Atoi(f)
		if err != nil || v < 0 {
			log.Fatalf("relbench: bad -procs entry %q (want a non-negative integer)", f)
		}
		if v == 0 {
			v = maxProcs
		}
		if v > maxProcs {
			if !oversubscribe {
				log.Fatalf("relbench: -procs %d exceeds GOMAXPROCS=%d; the workers would time-share cores and the scaling point would be meaningless. Raise GOMAXPROCS (or run on a bigger machine), or pass -oversubscribe to record it anyway (the artifact is marked oversubscribed).", v, maxProcs)
			}
		}
		if v > runtime.NumCPU() {
			// Even when GOMAXPROCS permits it, more workers than physical
			// CPUs is time-sharing; the artifact says so.
			oversub = true
		}
		ws = append(ws, v)
	}
	if len(ws) == 0 {
		log.Fatal("relbench: -procs parsed to an empty list")
	}
	return ws, oversub
}

func main() {
	out := flag.String("out", "BENCH_HEAD.json", "output file (\"-\" = stdout)")
	max := flag.Int("max", 1<<20, "largest relation size to measure")
	iters := flag.Int("iters", 0, "iterations per point (0 = auto: more for small n)")
	procs := flag.String("procs", "0", "comma-separated fork-join pool sizes; each point is measured once per size (0 = GOMAXPROCS)")
	points := flag.String("points", "", "comma-separated point names to measure (empty = all)")
	oversubscribe := flag.Bool("oversubscribe", false, "allow -procs entries above GOMAXPROCS (scaling numbers will reflect time-sharing, not parallel speedup)")
	flag.Parse()

	sweep, oversub := parseProcs(*procs, *oversubscribe)
	wantPoint := func(name string) bool {
		if *points == "" {
			return true
		}
		for _, p := range strings.Split(*points, ",") {
			if strings.TrimSpace(p) == name {
				return true
			}
		}
		return false
	}

	query := oblivmc.Query{
		Filter:   func(r oblivmc.Row) bool { return benchdata.FilterPred(r.Val) },
		Distinct: true,
		GroupBy:  oblivmc.AggSum,
		TopK:     benchdata.TopK,
	}

	measure := func(n int, body func()) (float64, int) {
		it := *iters
		if it == 0 {
			it = 3
			if n >= 1<<20 {
				it = 1
			}
		}
		body() // warm-up (pool spin-up, allocator)
		start := time.Now()
		for i := 0; i < it; i++ {
			body()
		}
		return time.Since(start).Seconds() / float64(it), it
	}

	doc := File{
		Schema:         "oblivmc-relbench/2",
		Generated:      time.Now().UTC().Format(time.RFC3339),
		GoVersion:      runtime.Version(),
		MaxProcs:       runtime.GOMAXPROCS(0),
		NumCPU:         runtime.NumCPU(),
		Workers:        sweep[0],
		Procs:          sweep,
		Oversubscribed: oversub,
	}

	for _, w := range sweep {
		pool := forkjoin.NewPool(w)
		queryCfg := func(b oblivmc.SortBackend) oblivmc.Config {
			return oblivmc.Config{Workers: w, Seed: benchSeed, SortBackend: b, DeterministicShuffle: true}
		}

		for _, n := range []int{1 << 12, 1 << 16, 1 << 20} {
			if n > *max {
				break
			}
			if w == sweep[0] {
				doc.Sizes = append(doc.Sizes, n)
			}
			recs := benchdata.Records(n)
			wrecs := benchdata.WideRecords(n)
			lrecs := benchdata.LeftRecords(n)
			table, err := oblivmc.NewTable(rows(n))
			if err != nil {
				log.Fatal(err)
			}

			// The unary operator points run the one-stage plan of their
			// shape through relops.Execute, as the Table layer does.
			sumPlan := plan.Build(plan.Shape{KeyCols: 1, GroupBy: true, Agg: uint8(relops.AggSum)})
			groupby := func(srt func() obliv.ScheduledSorter) func() {
				return func() {
					pool.Run(func(c *forkjoin.Ctx) {
						sp := mem.NewSpace()
						a, err := relops.Load(sp, recs, 1)
						if err != nil {
							log.Fatal(err)
						}
						relops.Execute(c, sp, relops.NewArena(), a, sumPlan, nil, srt())
					})
				}
			}
			queryFused := func(b oblivmc.SortBackend) func() {
				return func() {
					if _, _, err := oblivmc.RunQuery(queryCfg(b), table, query); err != nil {
						log.Fatal(err)
					}
				}
			}

			pts := []struct {
				name string
				body func()
			}{
				{"compact", func() {
					pool.Run(func(c *forkjoin.Ctx) {
						sp := mem.NewSpace()
						a, err := relops.Load(sp, recs, 1)
						if err != nil {
							log.Fatal(err)
						}
						relops.Execute(c, sp, relops.NewArena(), a, plan.Build(plan.Shape{KeyCols: 1, Filter: true}),
							func(r relops.Record) bool { return r.Val%2 == 0 }, autoSorter())
					})
				}},
				{"groupby", groupby(autoSorter)},
				{"groupby_bitonic", groupby(bitonicSorter)},
				{"groupby_shuffle", groupby(shuffleSorter)},
				{"groupby_w2", func() {
					pool.Run(func(c *forkjoin.Ctx) {
						sp := mem.NewSpace()
						a, err := relops.Load(sp, wrecs, 2)
						if err != nil {
							log.Fatal(err)
						}
						relops.Execute(c, sp, relops.NewArena(), a, plan.Build(plan.Shape{KeyCols: 2, GroupBy: true, Agg: uint8(relops.AggAvg)}), nil, autoSorter())
					})
				}},
				{"join", func() {
					pool.Run(func(c *forkjoin.Ctx) {
						sp := mem.NewSpace()
						l, err := relops.Load(sp, lrecs, 1)
						if err != nil {
							log.Fatal(err)
						}
						r, err := relops.Load(sp, recs, 1)
						if err != nil {
							log.Fatal(err)
						}
						relops.Join(c, sp, relops.NewArena(), l, r, autoSorter())
					})
				}},
				{"join_all", func() {
					jl, jr, maxOut := benchdata.JoinAllRecords(n)
					pool.Run(func(c *forkjoin.Ctx) {
						sp := mem.NewSpace()
						l, err := relops.Load(sp, jl, 1)
						if err != nil {
							log.Fatal(err)
						}
						r, err := relops.Load(sp, jr, 1)
						if err != nil {
							log.Fatal(err)
						}
						if _, _, err := relops.JoinAll(c, sp, relops.NewArena(), l, r, maxOut, autoSorter()); err != nil {
							log.Fatal(err)
						}
					})
				}},
				{"query_staged", func() {
					q := query
					q.NoOptimize = true
					if _, _, err := oblivmc.RunQuery(queryCfg(oblivmc.SortAuto), table, q); err != nil {
						log.Fatal(err)
					}
				}},
				{"query_fused", queryFused(oblivmc.SortAuto)},
				{"query_fused_bitonic", queryFused(oblivmc.SortBitonic)},
				{"query_fused_shuffle", queryFused(oblivmc.SortShuffle)},
			}
			if n >= 1<<16 {
				// Graph workload points: n counts edges; the canonical
				// benchmark graph has n/16 vertices. Min-hook CC runs to
				// convergence (the round count is a fixed property of the
				// fixed workload, so iterations measure identical traces) on
				// both backends.
				_, ge := benchdata.GraphEdges(n)
				wedges := make([]oblivmc.WeightedEdge, len(ge))
				for i, e := range ge {
					wedges[i] = oblivmc.WeightedEdge{U: e.U, V: e.V, W: e.W}
				}
				etab, err := oblivmc.NewEdgeTable(wedges)
				if err != nil {
					log.Fatal(err)
				}
				graphCC := func(b oblivmc.SortBackend) func() {
					return func() {
						if _, _, err := oblivmc.Components(queryCfg(b), etab, 0); err != nil {
							log.Fatal(err)
						}
					}
				}
				pts = append(pts,
					struct {
						name string
						body func()
					}{"graph_cc_bitonic", graphCC(oblivmc.SortBitonic)},
					struct {
						name string
						body func()
					}{"graph_cc_shuffle", graphCC(oblivmc.SortShuffle)},
				)
				if n <= 1<<16 {
					pts = append(pts, struct {
						name string
						body func()
					}{"graph_msf", func() {
						if _, _, err := oblivmc.MSF(queryCfg(oblivmc.SortAuto), etab); err != nil {
							log.Fatal(err)
						}
					}})
				}
			}
			for _, p := range pts {
				if !wantPoint(p.name) {
					continue
				}
				sec, it := measure(n, p.body)
				doc.Results = append(doc.Results, Result{
					Name: p.name, N: n, Workers: w, Iters: it,
					SecPerOp:    sec,
					ElemsPerSec: float64(n) / sec,
				})
				fmt.Fprintf(os.Stderr, "%-20s n=%-8d w=%-3d %10.4fs/op %14.0f elems/s\n", p.name, n, w, sec, float64(n)/sec)
			}
		}
		pool.Close()
	}

	enc, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	enc = append(enc, '\n')
	if *out == "-" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", *out)
}
