package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	"oblivmc"
	"oblivmc/internal/graph"
)

// graphWL is one caller in a closed loop running Components to
// convergence on two graphs and MSF on a third, each over an edge table
// shaped like benchdata.GraphEdges: a path backbone over half the
// vertices plus uniform random edges, n = m/16.
type graphWL struct {
	cfg oblivmc.Config
	ops []graphOp
}

type graphOp struct {
	kind  string // cc or msf
	n     int
	edges []graph.WEdge
	tab   oblivmc.Table
	// labels is the reference CC labelling; weight and size the reference
	// forest's total weight and edge count.
	labels      []int
	weight      uint64
	forestEdges int
}

// genGraph draws an m-edge benchmark graph.
func genGraph(rng *rand.Rand, m int) (int, []graph.WEdge) {
	n := max(m/16, 2)
	edges := make([]graph.WEdge, m)
	backbone := n / 2
	for i := range edges {
		if i < backbone-1 {
			edges[i] = graph.WEdge{U: i, V: i + 1}
		} else {
			edges[i] = graph.WEdge{U: rng.IntN(n), V: rng.IntN(n)}
		}
		edges[i].W = rng.Uint64N(1 << 20)
	}
	// The public operators take n as one past the largest endpoint.
	n = 0
	for _, e := range edges {
		n = max(n, e.U+1, e.V+1)
	}
	return n, edges
}

func newGraph(seed uint64, tiny bool) (workload, error) {
	ccM, msfM := 1<<12, 1<<10
	if tiny {
		ccM, msfM = 1<<9, 1<<8
	}
	rng := rand.New(rand.NewPCG(seed, 3))
	g := &graphWL{cfg: oblivmc.Config{Workers: 2}}
	for _, k := range []struct {
		kind string
		m    int
	}{{"cc", ccM}, {"cc", ccM}, {"msf", msfM}} {
		op := graphOp{kind: k.kind}
		op.n, op.edges = genGraph(rng, k.m)
		wes := make([]oblivmc.WeightedEdge, len(op.edges))
		pairs := make([][2]int, len(op.edges))
		for i, e := range op.edges {
			wes[i] = oblivmc.WeightedEdge{U: e.U, V: e.V, W: e.W}
			pairs[i] = [2]int{e.U, e.V}
		}
		var err error
		if op.tab, err = oblivmc.NewEdgeTable(wes); err != nil {
			return nil, err
		}
		if k.kind == "cc" {
			op.labels = graph.ConnectedComponentsSeq(op.n, pairs)
		} else {
			for _, i := range graph.MinimumSpanningForestSeq(op.n, op.edges) {
				op.weight += op.edges[i].W
				op.forestEdges++
			}
		}
		g.ops = append(g.ops, op)
	}
	// Warm-up: one pass over the cycle.
	if res := g.cycle(); res.failed() > 0 {
		return nil, fmt.Errorf("graph warm-up failed")
	}
	return g, nil
}

func (g *graphWL) close()          {}
func (g *graphWL) kinds() []string { return []string{"graph"} }

func (op *graphOp) checkLabels(labels []int) error {
	if len(labels) != len(op.labels) {
		return fmt.Errorf("cc labelled %d vertices, want %d", len(labels), len(op.labels))
	}
	for v, l := range labels {
		if l != op.labels[v] {
			return fmt.Errorf("cc label of %d is %d, want %d", v, l, op.labels[v])
		}
	}
	return nil
}

func (op *graphOp) checkForest(chosen []graph.WEdge) error {
	var w uint64
	for _, e := range chosen {
		w += e.W
	}
	if len(chosen) != op.forestEdges || w != op.weight {
		return fmt.Errorf("msf has %d edges of weight %d, want %d of weight %d", len(chosen), w, op.forestEdges, op.weight)
	}
	return nil
}

// run executes one operation through the public API and checks it.
func (g *graphWL) run(op *graphOp) opRec {
	rec := opRec{kind: "graph"}
	t0 := time.Now()
	var err error
	if op.kind == "cc" {
		var out oblivmc.Table
		out, _, err = oblivmc.Components(g.cfg, op.tab, 0)
		rec.lat = time.Since(t0)
		if err == nil {
			labels := make([]int, out.Len())
			for _, r := range out.Rows() {
				labels[r.Key] = int(r.Val)
			}
			rec.bad = op.checkLabels(labels) != nil
		}
	} else {
		var out oblivmc.Table
		out, _, err = oblivmc.MSF(g.cfg, op.tab)
		rec.lat = time.Since(t0)
		if err == nil {
			var chosen []graph.WEdge
			if out.Len() > 0 {
				es, eerr := out.Edges()
				err = eerr
				for _, e := range es {
					chosen = append(chosen, graph.WEdge{U: e.U, V: e.V, W: e.W})
				}
			}
			rec.bad = err == nil && op.checkForest(chosen) != nil
		}
	}
	rec.err = err != nil
	return rec
}

func (g *graphWL) cycle() loopResult {
	var res loopResult
	for i := range g.ops {
		rec := g.run(&g.ops[i])
		res.busy += rec.lat
		res.recs = append(res.recs, rec)
	}
	return res
}

func (g *graphWL) loop(d time.Duration) loopResult {
	var res loopResult
	p := beginPhase()
	for time.Since(p.start) < d {
		c := g.cycle()
		res.recs = append(res.recs, c.recs...)
		res.busy += c.busy
	}
	p.end(&res)
	return res
}

// traced replays the cycle through the graph kernels with a timing
// sorter, checking every output against the references.
func (g *graphWL) traced(d time.Duration, tr *tracer) (tracedResult, error) {
	rp := newReplica(tr, g.cfg.Workers)
	defer rp.close()
	out := tracedResult{layers: map[string]float64{}}
	var ccOps, rounds int
	ccOp := map[int32]bool{}
	op := int32(0)
	start := time.Now()
	for time.Since(start) < d {
		for i := range g.ops {
			o := &g.ops[i]
			t0 := time.Now()
			var err error
			if o.kind == "cc" {
				labels, r := rp.components(op, o.n, o.edges)
				out.busy += time.Since(t0)
				ccOps++
				rounds += r
				ccOp[op] = true
				err = o.checkLabels(labels)
			} else {
				forest := rp.msf(op, o.n, o.edges)
				out.busy += time.Since(t0)
				var chosen []graph.WEdge
				for _, e := range forest {
					chosen = append(chosen, o.edges[e])
				}
				err = o.checkForest(chosen)
			}
			if err != nil {
				return out, fmt.Errorf("traced %s op: %w", o.kind, err)
			}
			op++
		}
	}
	out.ops = int(op)
	out.replicaOps = float64(op)
	out.networkCalls = rp.networkCalls
	spans := tr.snapshot()
	ccSorts := 0
	for _, s := range spans {
		if s.Name == "sort" && ccOp[s.Op] {
			ccSorts++
		}
	}
	if ccOps > 0 && rounds > 0 {
		out.layers["graph.rounds"] = float64(rounds) / float64(ccOps)
		out.layers["graph.sorts_per_round"] = float64(ccSorts) / float64(rounds)
	}
	out.spms = rp.sampleSortProbe(spans, 11)
	if n := rp.sc.overlaps.Load(); n > 0 {
		return out, fmt.Errorf("%d overlapping sorter-seam calls", n)
	}
	return out, nil
}
