package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	"oblivmc"
	"oblivmc/internal/plan"
	"oblivmc/internal/relops"
)

// relational is one caller in a closed loop on one oblivmc.Session with
// Workers = 2 and the default Auto backend: fused queries over width-1 and
// width-2 tables whose padded sizes are all above the shuffle crossover,
// a KeyOrderOut query followed by one over its result, and JoinAllRows
// with a tight capacity.
type relational struct {
	cfg  oblivmc.Config
	sess *oblivmc.Session
	tabs map[string]relTable
	ops  []relOp
	refs []expect
	// The join's inputs, its tight public capacity and reference output.
	left, right []row
	lt, rt      oblivmc.Table
	joinCap     int
	joinRef     []oblivmc.WideJoinedRow
	// sortPasses sums QueryStats.SortPasses over the loop's queries.
	sortPasses, queries int
}

type relTable struct {
	rows []row
	w    int
	t    oblivmc.Table
}

// relOp is one operation of the cycle: a query over a named table ("prev"
// is the result of the previous operation), or the join.
type relOp struct {
	kind  string // query or join_all
	table string
	q     qdesc
}

// relSizes are the row counts of the relational tables.
type relSizes struct{ a, b, wide, joinRight int }

func relationalSizes(tiny bool) relSizes {
	if tiny {
		return relSizes{a: 1 << 13, b: 1<<12 + 100, wide: 1<<12 + 50, joinRight: 1 << 12}
	}
	// b and wide sit just above a power of two, so they pad to twice
	// their size.
	return relSizes{a: 1 << 16, b: 1<<16 + 1000, wide: 1<<16 + 500, joinRight: 1 << 16}
}

// genRows draws n rows whose keys take about n/8 distinct values per
// column (column 2 only when w = 2) and whose values are below 2^30.
func genRows(rng *rand.Rand, n, w int) []row {
	rows := make([]row, n)
	groups := uint64(max(n/8, 1))
	for i := range rows {
		rows[i] = row{k1: rng.Uint64N(groups), v: rng.Uint64N(1 << 30)}
		if w == 2 {
			rows[i].k1 = rng.Uint64N(max(groups/4, 1))
			rows[i].k2 = rng.Uint64N(4)
		}
	}
	return rows
}

// genJoin draws the join inputs: the left side has every key below
// nRight/16 exactly twice, the right side every key below nRight/8 exactly
// eight times in a seeded order, so exactly nRight pairs match and nRight
// is the tight capacity.
func genJoin(rng *rand.Rand, nRight int) (left, right []row, maxOut int) {
	left = make([]row, nRight/8)
	for i := range left {
		left[i] = row{k1: uint64(i / 2), v: rng.Uint64N(1 << 30)}
	}
	right = make([]row, nRight)
	for i, p := range rng.Perm(nRight) {
		right[i] = row{k1: uint64(p % (nRight / 8)), v: rng.Uint64N(1 << 30)}
	}
	return left, right, nRight
}

// joinReference is the join's output in the operator's order: for each
// right row in order, every matching left row in order.
func joinReference(left, right []row) []oblivmc.WideJoinedRow {
	byKey := map[uint64][]int{}
	for i, l := range left {
		byKey[l.k1] = append(byKey[l.k1], i)
	}
	var out []oblivmc.WideJoinedRow
	for _, r := range right {
		for _, i := range byKey[r.k1] {
			out = append(out, oblivmc.WideJoinedRow{Keys: []uint64{r.k1}, LeftVal: left[i].v, RightVal: r.v})
		}
	}
	return out
}

func checkJoin(got, want []oblivmc.WideJoinedRow) error {
	if len(got) != len(want) {
		return fmt.Errorf("join returned %d rows, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if len(g.Keys) != 1 || g.Keys[0] != w.Keys[0] || g.LeftVal != w.LeftVal || g.RightVal != w.RightVal {
			return fmt.Errorf("join row %d is %v, want %v", i, g, w)
		}
	}
	return nil
}

func newRelational(seed uint64, tiny bool) (workload, error) {
	sz := relationalSizes(tiny)
	rng := rand.New(rand.NewPCG(seed, 1))
	r := &relational{cfg: oblivmc.Config{Workers: 2}, tabs: map[string]relTable{}}
	for _, t := range []struct {
		name string
		n, w int
	}{{"a", sz.a, 1}, {"b", sz.b, 1}, {"wide", sz.wide, 2}} {
		rows := genRows(rng, t.n, t.w)
		tab, err := tableOf(rows, t.w)
		if err != nil {
			return nil, err
		}
		r.tabs[t.name] = relTable{rows: rows, w: t.w, t: tab}
	}
	groupsA := uint64(sz.a / 8)
	r.ops = []relOp{
		{kind: "query", table: "a", q: qdesc{filt: &filter{col: 0, op: "lt", val: groupsA / 2}, agg: "count"}},
		{kind: "query", table: "b", q: qdesc{filt: &filter{col: -1, op: "ge", val: 1 << 28}, distinct: true, agg: "sum", topk: 10}},
		{kind: "query", table: "wide", q: qdesc{agg: "avg"}},
		{kind: "query", table: "a", q: qdesc{topk: 32}},
		{kind: "query", table: "b", q: qdesc{agg: "sum", keyOrder: true}},
		{kind: "query", table: "prev", q: qdesc{agg: "max", keyOrder: true}},
		{kind: "join_all"},
	}
	var prev []row
	for _, op := range r.ops {
		if op.kind == "join_all" {
			r.refs = append(r.refs, expect{})
			continue
		}
		in := prev
		if op.table != "prev" {
			in = r.tabs[op.table].rows
		}
		e := reference(in, op.q)
		r.refs = append(r.refs, e)
		prev = e.rows
	}
	r.left, r.right, r.joinCap = genJoin(rng, sz.joinRight)
	var err error
	if r.lt, err = tableOf(r.left, 1); err != nil {
		return nil, err
	}
	if r.rt, err = tableOf(r.right, 1); err != nil {
		return nil, err
	}
	r.joinRef = joinReference(r.left, r.right)
	r.sess = oblivmc.NewSession(r.cfg)
	// Warm-up: one pass over the cycle grows the session's arena, tie
	// planes and Beneš plans to every size the loop uses.
	if res := r.cycle(); res.failed() > 0 {
		r.close()
		return nil, fmt.Errorf("relational warm-up failed")
	}
	return r, nil
}

func (r *relational) close() { r.sess.Close() }

// cycle runs the operation cycle once.
func (r *relational) cycle() loopResult {
	var res loopResult
	var prev oblivmc.Table
	for i, op := range r.ops {
		rec := opRec{kind: op.kind}
		t0 := time.Now()
		if op.kind == "join_all" {
			rows, _, err := oblivmc.JoinAllRows(r.cfg, r.lt, r.rt, r.joinCap)
			rec.lat = time.Since(t0)
			if err != nil {
				rec.err = true
			} else if checkJoin(rows, r.joinRef) != nil {
				rec.bad = true
			}
		} else {
			in := prev
			if op.table != "prev" {
				in = r.tabs[op.table].t
			}
			out, st, err := r.sess.RunQuery(in, op.q.query())
			rec.lat = time.Since(t0)
			r.sortPasses += st.SortPasses
			r.queries++
			if err != nil {
				rec.err = true
			} else if r.refs[i].check(rowsOf(out)) != nil {
				rec.bad = true
			}
			prev = out
		}
		res.busy += rec.lat
		res.recs = append(res.recs, rec)
	}
	return res
}

// loop runs whole cycles until d has passed.
func (r *relational) loop(d time.Duration) loopResult {
	var res loopResult
	r.sortPasses, r.queries = 0, 0
	p := beginPhase()
	for time.Since(p.start) < d {
		c := r.cycle()
		res.recs = append(res.recs, c.recs...)
		res.busy += c.busy
	}
	p.end(&res)
	return res
}

// traced replays the cycle through plan.Build and relops on the replica
// for d, checking every output against the same references as the
// untraced loop.
func (r *relational) traced(d time.Duration, tr *tracer) (tracedResult, error) {
	rp := newReplica(tr, r.cfg.Workers)
	defer rp.close()
	out := tracedResult{layers: map[string]float64{"oblivmc.sort_passes": r.sortPassesPerQuery()}}
	op := int32(0)
	start := time.Now()
	for time.Since(start) < d {
		var prev []row
		prevOrder := plan.OrderInput
		prevW := 1
		for i, o := range r.ops {
			t0 := time.Now()
			var err error
			if o.kind == "join_all" {
				var got []relops.Joined
				got, err = rp.joinAll(op, r.left, r.right, r.joinCap)
				out.busy += time.Since(t0)
				if err == nil {
					err = checkJoin(joinedRows(got), r.joinRef)
				}
			} else {
				in, w := prev, prevW
				order := prevOrder
				if o.table != "prev" {
					in, w, order = r.tabs[o.table].rows, r.tabs[o.table].w, plan.OrderInput
				}
				var pl plan.Plan
				prev, pl, err = rp.query(op, in, w, o.q, order)
				out.busy += time.Since(t0)
				prevOrder, prevW = pl.Output, w
				if prevOrder == plan.OrderPos {
					prevOrder = plan.OrderInput
				}
				out.plannedSorts += pl.SortPasses
				out.builds++
				if err == nil {
					err = r.refs[i].check(prev)
				}
			}
			if err != nil {
				return out, fmt.Errorf("traced %s op %d: %w", o.kind, i, err)
			}
			op++
		}
	}
	out.ops = int(op)
	out.replicaOps = float64(op)
	out.networkCalls = rp.networkCalls
	out.spms = rp.sampleSortProbe(tr.snapshot(), 7)
	if n := rp.sc.overlaps.Load(); n > 0 {
		return out, fmt.Errorf("%d overlapping sorter-seam calls", n)
	}
	return out, nil
}

func joinedRows(js []relops.Joined) []oblivmc.WideJoinedRow {
	out := make([]oblivmc.WideJoinedRow, len(js))
	for i, j := range js {
		out[i] = oblivmc.WideJoinedRow{Keys: []uint64{j.Key}, LeftVal: j.LeftVal, RightVal: j.RightVal}
	}
	return out
}

// kinds lists the operation kinds of the workload.
func (r *relational) kinds() []string { return []string{"query", "join_all"} }

// sortPassesPerQuery is the mean executed sort passes per planned query
// of the last loop (QueryStats.SortPasses).
func (r *relational) sortPassesPerQuery() float64 {
	if r.queries == 0 {
		return 0
	}
	return float64(r.sortPasses) / float64(r.queries)
}
