package main

import (
	"fmt"
	"sort"

	"oblivmc"
	"oblivmc/client"
	"oblivmc/internal/plan"
	"oblivmc/internal/relops"
	"oblivmc/internal/serve"
)

// row is one table row at either key width (k2 is 0 at width 1).
type row struct{ k1, k2, v uint64 }

func rowLess(a, b row) bool {
	if a.k1 != b.k1 {
		return a.k1 < b.k1
	}
	if a.k2 != b.k2 {
		return a.k2 < b.k2
	}
	return a.v < b.v
}

func keyLess(a, b row) bool {
	if a.k1 != b.k1 {
		return a.k1 < b.k1
	}
	return a.k2 < b.k2
}

// tableOf builds the public Table of rows at width w.
func tableOf(rows []row, w int) (oblivmc.Table, error) {
	if w == 1 {
		rs := make([]oblivmc.Row, len(rows))
		for i, r := range rows {
			rs[i] = oblivmc.Row{Key: r.k1, Val: r.v}
		}
		return oblivmc.NewTable(rs)
	}
	return oblivmc.NewWideTable(wideRows(rows, w))
}

// wideRows converts rows to public wide rows of w key columns.
func wideRows(rows []row, w int) []oblivmc.WideRow {
	ws := make([]oblivmc.WideRow, len(rows))
	for i, r := range rows {
		keys := []uint64{r.k1, r.k2}
		ws[i] = oblivmc.WideRow{Keys: keys[:w], Val: r.v}
	}
	return ws
}

// rowsOf reads a public Table back into rows.
func rowsOf(t oblivmc.Table) []row {
	if t.Width() == 1 {
		out := make([]row, t.Len())
		for i, r := range t.Rows() {
			out[i] = row{k1: r.Key, v: r.Val}
		}
		return out
	}
	out := make([]row, t.Len())
	for i, r := range t.WideRows() {
		out[i] = row{k1: r.Keys[0], k2: r.Keys[1], v: r.Val}
	}
	return out
}

// filter is a comparison of one column against a constant: col 0 or 1 is a
// key column, -1 the value.
type filter struct {
	col int
	op  string // lt or ge
	val uint64
}

func (f *filter) keep(r row) bool {
	x := r.v
	switch f.col {
	case 0:
		x = r.k1
	case 1:
		x = r.k2
	}
	if f.op == "lt" {
		return x < f.val
	}
	return x >= f.val
}

// qdesc is one relational query shape, convertible to the public Query,
// the served spec and the planner shape, with a plain-Go reference.
type qdesc struct {
	filt     *filter
	distinct bool
	agg      string // "", sum, count, min, max, avg
	topk     int
	keyOrder bool
}

var aggs = map[string]struct {
	pub oblivmc.Agg
	rel relops.AggKind
}{
	"sum":   {oblivmc.AggSum, relops.AggSum},
	"count": {oblivmc.AggCount, relops.AggCount},
	"min":   {oblivmc.AggMin, relops.AggMin},
	"max":   {oblivmc.AggMax, relops.AggMax},
	"avg":   {oblivmc.AggAvg, relops.AggAvg},
}

// query converts q to the public Query.
func (q qdesc) query() oblivmc.Query {
	out := oblivmc.Query{Distinct: q.distinct, TopK: q.topk, KeyOrderOut: q.keyOrder}
	if q.agg != "" {
		out.GroupBy = aggs[q.agg].pub
	}
	if f := q.filt; f != nil {
		out.FilterWide = func(r oblivmc.WideRow) bool {
			x := row{k1: r.Keys[0], v: r.Val}
			if len(r.Keys) > 1 {
				x.k2 = r.Keys[1]
			}
			return f.keep(x)
		}
		out.FilterKeyOnly = f.col >= 0
	}
	return out
}

// pred is q's filter over relational records (nil without a filter).
func (q qdesc) pred() func(relops.Record) bool {
	f := q.filt
	if f == nil {
		return nil
	}
	return func(r relops.Record) bool { return f.keep(row{k1: r.Key, k2: r.Key2, v: r.Val}) }
}

// shape is q's planner shape over a width-w input carrying order token in.
func (q qdesc) shape(w int, in plan.Order) plan.Shape {
	s := plan.Shape{
		KeyCols:       w,
		Filter:        q.filt != nil,
		FilterKeyOnly: q.filt != nil && q.filt.col >= 0,
		Distinct:      q.distinct,
		GroupBy:       q.agg != "",
		TopK:          q.topk,
		InputOrder:    in,
		KeyOrderOut:   q.keyOrder,
	}
	if q.agg != "" {
		s.Agg = uint8(aggs[q.agg].rel)
	}
	return s
}

// spec converts q over table name to the client's wire spec.
func (q qdesc) spec(table string) client.Spec {
	s := client.Spec{Table: table, Distinct: q.distinct, GroupBy: q.agg, TopK: q.topk, KeyOrderOut: q.keyOrder}
	if f := q.filt; f != nil {
		s.Filter = &client.Filter{Col: f.col, Op: f.op, Value: f.val}
	}
	return s
}

// serveSpec converts q over table name to the server's spec.
func (q qdesc) serveSpec(table string) serve.QuerySpec {
	s := serve.QuerySpec{Table: table, Distinct: q.distinct, GroupBy: q.agg, TopK: q.topk, KeyOrderOut: q.keyOrder}
	if f := q.filt; f != nil {
		s.Filter = &serve.FilterSpec{Col: f.col, Op: f.op, Value: f.val}
	}
	return s
}

// expect is the reference outcome of one query: the result rows in
// canonical order (the candidates of the top-k cut when topk > 0).
type expect struct {
	rows     []row
	topk     int
	keyOrder bool
}

// reference evaluates q over rows in plain Go.
func reference(rows []row, q qdesc) expect {
	var cur []row
	for _, r := range rows {
		if q.filt == nil || q.filt.keep(r) {
			cur = append(cur, r)
		}
	}
	if q.distinct {
		seen := map[[2]uint64]bool{}
		kept := cur[:0:0]
		for _, r := range cur {
			k := [2]uint64{r.k1, r.k2}
			if !seen[k] {
				seen[k] = true
				kept = append(kept, r)
			}
		}
		cur = kept
	}
	if q.agg != "" {
		type acc struct{ sum, cnt, min, max uint64 }
		groups := map[[2]uint64]*acc{}
		var order [][2]uint64
		for _, r := range cur {
			k := [2]uint64{r.k1, r.k2}
			g := groups[k]
			if g == nil {
				g = &acc{min: r.v, max: r.v}
				groups[k] = g
				order = append(order, k)
			}
			g.sum += r.v
			g.cnt++
			g.min = min(g.min, r.v)
			g.max = max(g.max, r.v)
		}
		cur = make([]row, len(order))
		for i, k := range order {
			g := groups[k]
			v := g.sum
			switch q.agg {
			case "count":
				v = g.cnt
			case "min":
				v = g.min
			case "max":
				v = g.max
			case "avg":
				v = g.sum / g.cnt
			}
			cur[i] = row{k1: k[0], k2: k[1], v: v}
		}
	}
	sort.Slice(cur, func(i, j int) bool { return rowLess(cur[i], cur[j]) })
	return expect{rows: cur, topk: q.topk, keyOrder: q.keyOrder && q.topk == 0}
}

// check compares a result against the reference: equal as multisets, in
// key order when the query asked for it, and for a top-k query exactly k
// candidates in descending value order that include every candidate above
// the cut value.
func (e expect) check(out []row) error {
	if e.topk > 0 {
		return e.checkTopK(out)
	}
	if e.keyOrder {
		for i := 1; i < len(out); i++ {
			if keyLess(out[i], out[i-1]) {
				return fmt.Errorf("row %d out of key order", i)
			}
		}
	}
	if len(out) != len(e.rows) {
		return fmt.Errorf("%d rows, want %d", len(out), len(e.rows))
	}
	got := append([]row(nil), out...)
	sort.Slice(got, func(i, j int) bool { return rowLess(got[i], got[j]) })
	for i := range got {
		if got[i] != e.rows[i] {
			return fmt.Errorf("row %v, want %v", got[i], e.rows[i])
		}
	}
	return nil
}

func (e expect) checkTopK(out []row) error {
	want := min(e.topk, len(e.rows))
	if len(out) != want {
		return fmt.Errorf("top-k returned %d rows, want %d", len(out), want)
	}
	if want == 0 {
		return nil
	}
	vals := make([]uint64, len(e.rows))
	for i, r := range e.rows {
		vals[i] = r.v
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] > vals[j] })
	cut := vals[want-1]
	left := map[row]int{}
	for _, r := range e.rows {
		left[r]++
	}
	above := 0
	for i, r := range out {
		if (i > 0 && r.v > out[i-1].v) || r.v < cut {
			return fmt.Errorf("top-k row %d out of value order or below the cut", i)
		}
		if left[r] == 0 {
			return fmt.Errorf("top-k row %v is not a candidate", r)
		}
		left[r]--
		if r.v > cut {
			above++
		}
	}
	for _, v := range vals {
		if v <= cut {
			break
		}
		above--
	}
	if above != 0 {
		return fmt.Errorf("top-k misses a row above the cut value %d", cut)
	}
	return nil
}
