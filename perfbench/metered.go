package main

import (
	"fmt"
	"math/rand/v2"

	"oblivmc"
)

// meteredSeed fixes the metered runs' inputs and the deterministic shuffle
// seed, so the counts are exact constants of the code, independent of the
// workload seed.
const meteredSeed = 2021

// meteredOp is one representative operation per workload at small n.
func meteredOp(workload string) (func(cfg oblivmc.Config) (*oblivmc.Report, error), error) {
	rng := rand.New(rand.NewPCG(meteredSeed, 0))
	switch workload {
	case "relational", "serve":
		n, w := 1<<10, 1
		q := qdesc{filt: &filter{col: -1, op: "ge", val: 1 << 28}, distinct: true, agg: "sum", topk: 10}
		if workload == "serve" {
			n, w = 512, 2
			q = qdesc{filt: &filter{col: 0, op: "lt", val: 8}, agg: "avg"}
		}
		t, err := tableOf(genRows(rng, n, w), w)
		if err != nil {
			return nil, err
		}
		return func(cfg oblivmc.Config) (*oblivmc.Report, error) {
			_, rep, err := oblivmc.RunQuery(cfg, t, q.query())
			return rep, err
		}, nil
	case "graph":
		_, edges := genGraph(rng, 1<<8)
		wes := make([]oblivmc.WeightedEdge, len(edges))
		for i, e := range edges {
			wes[i] = oblivmc.WeightedEdge{U: e.U, V: e.V, W: e.W}
		}
		t, err := oblivmc.NewEdgeTable(wes)
		if err != nil {
			return nil, err
		}
		return func(cfg oblivmc.Config) (*oblivmc.Report, error) {
			_, rep, err := oblivmc.Components(cfg, t, 0)
			return rep, err
		}, nil
	}
	return nil, fmt.Errorf("no metered operation for workload %q", workload)
}

// meteredCounts runs the representative operation in ModeMetered with
// the ideal-cache simulation twice per backend, once with SortBitonic and
// once with the shuffle backend at a fixed DeterministicShuffle seed, and
// fails unless both runs of each pair report identical counts.
func meteredCounts(workload string, m map[string]float64) error {
	op, err := meteredOp(workload)
	if err != nil {
		return err
	}
	base := oblivmc.Config{Mode: oblivmc.ModeMetered, CacheM: 1 << 12, CacheB: 16}
	shuffle := base
	shuffle.SortBackend, shuffle.DeterministicShuffle, shuffle.Seed = oblivmc.SortShuffle, true, meteredSeed
	bitonic := base
	bitonic.SortBackend = oblivmc.SortBitonic
	for _, b := range []struct {
		prefix string
		cfg    oblivmc.Config
	}{{"metered.", bitonic}, {"metered.shuffle_", shuffle}} {
		var reps [2]*oblivmc.Report
		for i := range reps {
			if reps[i], err = op(b.cfg); err != nil {
				return fmt.Errorf("metered run: %w", err)
			}
		}
		a, c := reps[0], reps[1]
		if a.Work != c.Work || a.Span != c.Span || a.MemOps != c.MemOps || a.CacheMisses != c.CacheMisses {
			return fmt.Errorf("metered counts differ between identical runs (%s): %+v vs %+v", b.prefix, *a, *c)
		}
		m[b.prefix+"work"] = float64(a.Work)
		m[b.prefix+"span"] = float64(a.Span)
		m[b.prefix+"memops"] = float64(a.MemOps)
		m[b.prefix+"cache_misses"] = float64(a.CacheMisses)
	}
	return nil
}
