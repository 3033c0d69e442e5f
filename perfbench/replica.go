package main

import (
	"math/rand/v2"
	"sort"
	"time"

	"oblivmc/internal/bitonic"
	"oblivmc/internal/core"
	"oblivmc/internal/forkjoin"
	"oblivmc/internal/graph"
	"oblivmc/internal/mem"
	"oblivmc/internal/obliv"
	"oblivmc/internal/plan"
	"oblivmc/internal/relops"
	"oblivmc/internal/spms"
)

// replica runs the traced replay of relational and graph operations
// through the internal entry points the public operators use, on a
// persistent pool, space and arena as a Session keeps them. The sorter
// seam and the shuffle sorter's bitonic fallback are timed; every call
// into a layer records one span.
type replica struct {
	sc    *scope
	pool  *forkjoin.Pool
	sp    *mem.Space
	arena *relops.Arena
	seam  *timedSorter
	// networkCalls counts the bitonic network invocations of the
	// replica's operations.
	networkCalls int64
}

func newReplica(tr *tracer, workers int) *replica {
	rp := &replica{sc: newScope(tr), pool: forkjoin.NewPool(workers), sp: mem.NewSpace(), arena: relops.NewArena()}
	rp.seam = rp.newSeam()
	return rp
}

// newSeam builds a timed shuffle sorter with the default Auto crossover
// and fresh crypto/rand coins, the sorter a default Session runs.
func (rp *replica) newSeam() *timedSorter {
	sh := &core.ShuffleSorter{Fallback: &timedSorter{inner: bitonic.CacheAgnostic{}, name: "bitonic", sc: rp.sc}}
	return &timedSorter{inner: sh, name: "sort", sc: rp.sc, seam: true}
}

func (rp *replica) close() { rp.pool.Close() }

// run executes fn on the pool, counting its bitonic network invocations.
func (rp *replica) run(fn func(c *forkjoin.Ctx)) {
	n0 := bitonic.NetworkCalls()
	rp.pool.Run(fn)
	rp.networkCalls += bitonic.NetworkCalls() - n0
}

func records(rows []row) []relops.Record {
	recs := make([]relops.Record, len(rows))
	for i, r := range rows {
		recs[i] = relops.Record{Key: r.k1, Key2: r.k2, Val: r.v}
	}
	return recs
}

// query runs one planned query the way Session.RunQuery does: plan.Build
// over the shape and input order, then relops.Load, Execute and Unload in
// one pool run. It returns the result rows and the plan.
func (rp *replica) query(op int32, rows []row, w int, q qdesc, in plan.Order) ([]row, plan.Plan, error) {
	id, prev := rp.sc.startOp("oblivmc.op", op)
	defer rp.sc.exit(id, prev)
	recs := records(rows)
	var pl plan.Plan
	rp.sc.timed("plan.build", func() { pl = plan.Build(q.shape(w, in)) })
	pred := q.pred()
	var (
		out []relops.Record
		err error
	)
	rp.run(func(c *forkjoin.Ctx) {
		var r relops.Rel
		rp.sc.timed("relops.load", func() { r, err = relops.Load(rp.sp, recs, w) })
		if err != nil {
			return
		}
		rp.sc.timed("relops.execute", func() { relops.Execute(c, rp.sp, rp.arena, r, pl, pred, rp.seam) })
		rp.sc.timed("relops.unload", func() { out = relops.Unload(r) })
	})
	res := make([]row, len(out))
	for i, r := range out {
		res[i] = row{k1: r.Key, k2: r.Key2, v: r.Val}
	}
	return res, pl, err
}

// joinAll runs the many-to-many join the way JoinAllRows does, on the
// replica's persistent resources.
func (rp *replica) joinAll(op int32, left, right []row, maxOut int) ([]relops.Joined, error) {
	id, prev := rp.sc.startOp("oblivmc.op", op)
	defer rp.sc.exit(id, prev)
	lrec, rrec := records(left), records(right)
	var (
		out []relops.Joined
		err error
	)
	rp.run(func(c *forkjoin.Ctx) {
		var l, r, j relops.Rel
		rp.sc.timed("relops.load", func() {
			if l, err = relops.Load(rp.sp, lrec, 1); err == nil {
				r, err = relops.Load(rp.sp, rrec, 1)
			}
		})
		if err != nil {
			return
		}
		rp.sc.timed("relops.joinall", func() { j, _, err = relops.JoinAll(c, rp.sp, rp.arena, l, r, maxOut, rp.seam) })
		if err != nil {
			return
		}
		rp.sc.timed("relops.unload", func() { out = relops.UnloadJoined(j) })
	})
	return out, err
}

// components runs the min-hook CC kernel to convergence the way
// oblivmc.Components does (a fresh space and sorter per call), returning
// the labels and the round count.
func (rp *replica) components(op int32, n int, edges []graph.WEdge) (labels []int, rounds int) {
	id, prev := rp.sc.startOp("oblivmc.op", op)
	defer rp.sc.exit(id, prev)
	pairs := make([][2]int, len(edges))
	for i, e := range edges {
		pairs[i] = [2]int{e.U, e.V}
	}
	p := core.Params{Sorter: rp.newSeam()}
	sp := mem.NewSpace()
	rp.run(func(c *forkjoin.Ctx) {
		rp.sc.timed("graph.kernel", func() { labels, rounds = graph.ConnectedComponentsMinHook(c, sp, n, pairs, 0, p) })
	})
	return labels, rounds
}

// msf runs the oblivious Borůvka MSF kernel the way oblivmc.MSF does.
func (rp *replica) msf(op int32, n int, edges []graph.WEdge) []int {
	id, prev := rp.sc.startOp("oblivmc.op", op)
	defer rp.sc.exit(id, prev)
	ge := append([]graph.WEdge(nil), edges...)
	p := core.Params{Sorter: rp.newSeam()}
	sp := mem.NewSpace()
	var chosen []int
	rp.run(func(c *forkjoin.Ctx) {
		rp.sc.timed("graph.kernel", func() { chosen = graph.MinimumSpanningForestOblivious(c, sp, n, ge, p) })
	})
	return chosen
}

// shuffled reports whether the shuffle sorter sorted a span of n elements
// itself rather than handing it to its fallback.
func shuffled(n int) bool { return n >= core.DefaultShuffleCrossover && obliv.IsPow2(n) }

// sampleSortProbe times spms.SampleSortScheduled alone at every (size,
// width) the seam sorted through the shuffle path, and returns the total
// estimated sample-sort time of those sorts.
func (rp *replica) sampleSortProbe(spans []span, seed uint64) time.Duration {
	type shape struct{ n, w int }
	counts := map[shape]int{}
	for _, s := range spans {
		if s.Name == "sort" && shuffled(s.N) {
			counts[shape{s.N, s.W}]++
		}
	}
	var total time.Duration
	rng := rand.New(rand.NewPCG(seed, 0x5eed))
	for sh, cnt := range counts {
		total += time.Duration(cnt) * rp.sampleSortOnce(sh.n, sh.w, rng)
	}
	return total
}

// sampleSortOnce returns the median of three timed sample sorts of n
// random width-w keys with random tie words.
func (rp *replica) sampleSortOnce(n, w int, rng *rand.Rand) time.Duration {
	sp := mem.NewSpace()
	a := mem.Alloc[obliv.Elem](sp, n)
	ks := obliv.AllocKeySchedule(sp, n, w)
	ks.Tie = obliv.TiePos
	tie := mem.Alloc[uint64](sp, n)
	scr := mem.Alloc[obliv.Elem](sp, n)
	kscr := obliv.AllocKeySchedule(sp, n, w)
	kscr.Tie = obliv.TiePos
	tscr := mem.Alloc[uint64](sp, n)
	var times []time.Duration
	for rep := 0; rep < 3; rep++ {
		for i := range a.Data() {
			a.Data()[i] = obliv.Elem{Key: rng.Uint64() >> 8, Key2: rng.Uint64() >> 8, Aux: uint64(i), Kind: obliv.Real}
			tie.Data()[i] = rng.Uint64()
		}
		seed := rng.Uint64()
		rp.pool.Run(func(c *forkjoin.Ctx) {
			obliv.BuildKeySchedule(c, a, ks, 0, n, func(e obliv.Elem, out []uint64) {
				out[0] = e.Key
				if len(out) > 1 {
					out[1] = e.Key2
				}
			})
			t0 := time.Now()
			spms.SampleSortScheduled(c, sp, a, ks, tie, scr, kscr, tscr, 0, n, seed)
			times = append(times, time.Since(t0))
		})
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	return times[1]
}
