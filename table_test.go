package oblivmc

import (
	"fmt"
	"testing"

	"oblivmc/internal/prng"
	"oblivmc/internal/trace"
)

func mustTable(t *testing.T, rows []Row) Table {
	t.Helper()
	tab, err := NewTable(rows)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestNewTableValidation(t *testing.T) {
	if _, err := NewTable(nil); err == nil {
		t.Fatal("empty table should be rejected")
	}
	// The old 2^40 key ceiling is lifted: only the filler sentinel itself
	// is out of range.
	if _, err := NewTable([]Row{{Key: ^uint64(0), Val: 0}}); err == nil {
		t.Fatal("sentinel key should be rejected")
	}
	if _, err := NewTable([]Row{{Key: 1 << 40, Val: ^uint64(0)}}); err != nil {
		t.Fatalf("legal table rejected: %v", err)
	}
	if _, err := NewTable([]Row{{Key: ^uint64(0) - 1, Val: ^uint64(0)}}); err != nil {
		t.Fatalf("maximum legal key rejected: %v", err)
	}
}

func TestFilterTable(t *testing.T) {
	tab := mustTable(t, []Row{{1, 10}, {2, 25}, {3, 30}, {4, 45}, {5, 50}})
	got, _, err := Filter(Config{Mode: ModeSerial}, tab, func(r Row) bool { return r.Val%10 == 0 })
	if err != nil {
		t.Fatal(err)
	}
	want := []Row{{1, 10}, {3, 30}, {5, 50}}
	if len(got.Rows()) != len(want) {
		t.Fatalf("got %v, want %v", got.Rows(), want)
	}
	for i, r := range want {
		if got.Rows()[i] != r {
			t.Fatalf("got %v, want %v", got.Rows(), want)
		}
	}
}

func TestGroupByAndTopKTable(t *testing.T) {
	// Departments and salaries; top-2 departments by total salary.
	tab := mustTable(t, []Row{
		{1, 120}, {2, 95}, {1, 140}, {3, 80}, {2, 105}, {1, 130}, {3, 75},
	})
	grouped, _, err := GroupBy(Config{Mode: ModeSerial}, tab, AggSum)
	if err != nil {
		t.Fatal(err)
	}
	wantTotals := map[uint64]uint64{1: 390, 2: 200, 3: 155}
	if len(grouped.Rows()) != len(wantTotals) {
		t.Fatalf("grouped rows %v", grouped.Rows())
	}
	for _, r := range grouped.Rows() {
		if wantTotals[r.Key] != r.Val {
			t.Fatalf("group %d total %d, want %d", r.Key, r.Val, wantTotals[r.Key])
		}
	}

	top, _, err := TopK(Config{Mode: ModeSerial}, grouped, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(top.Rows()) != 2 || top.Rows()[0] != (Row{1, 390}) || top.Rows()[1] != (Row{2, 200}) {
		t.Fatalf("top-2 = %v", top.Rows())
	}
}

// TestTopKZeroAndNegative pins the one-shot TopK's k edge cases: k = 0
// keeps no row (unlike Query.TopK, where 0 means no top-k stage) and a
// negative k is an error.
func TestTopKZeroAndNegative(t *testing.T) {
	tab := mustTable(t, []Row{{1, 5}, {2, 9}, {3, 7}})
	for _, mode := range []Mode{ModeSerial, ModeMetered} {
		got, rep, err := TopK(Config{Mode: mode}, tab, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got.Len() != 0 || got.Order() != OrderValues {
			t.Fatalf("mode %v: TopK(k=0) = %v (order %v), want no rows (order %v)", mode, got.Rows(), got.Order(), OrderValues)
		}
		if (rep != nil) != (mode == ModeMetered) {
			t.Fatalf("mode %v: TopK(k=0) report %v", mode, rep)
		}
	}
	if _, _, err := TopK(Config{Mode: ModeSerial}, tab, -1); err == nil {
		t.Fatal("TopK accepted a negative k")
	}
}

func TestDistinctTable(t *testing.T) {
	tab := mustTable(t, []Row{{4, 1}, {2, 2}, {4, 3}, {9, 4}, {2, 5}})
	got, _, err := Distinct(Config{Mode: ModeSerial}, tab)
	if err != nil {
		t.Fatal(err)
	}
	want := []Row{{4, 1}, {2, 2}, {9, 4}}
	if len(got.Rows()) != len(want) {
		t.Fatalf("got %v, want %v", got.Rows(), want)
	}
	for i, r := range want {
		if got.Rows()[i] != r {
			t.Fatalf("got %v, want %v", got.Rows(), want)
		}
	}
}

func TestJoinTable(t *testing.T) {
	budgets := mustTable(t, []Row{{1, 1000}, {2, 800}, {3, 600}})
	employees := mustTable(t, []Row{{1, 120}, {2, 95}, {7, 50}, {1, 140}})
	got, _, err := Join(Config{Mode: ModeSerial}, budgets, employees)
	if err != nil {
		t.Fatal(err)
	}
	want := []JoinedRow{{1, 1000, 120}, {2, 800, 95}, {1, 1000, 140}}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i, r := range want {
		if got[i] != r {
			t.Fatalf("got %v, want %v", got, want)
		}
	}

	dup := mustTable(t, []Row{{1, 1}, {1, 2}})
	if _, _, err := Join(Config{Mode: ModeSerial}, dup, employees); err == nil {
		t.Fatal("duplicate left keys should be rejected")
	}
}

// refAgg is the plain-Go reference of every aggregation kind over a
// group's moment statistics and extrema.
func refAgg(agg Agg, sum, sq, cnt, minv, maxv uint64) uint64 {
	switch agg {
	case AggSum:
		return sum
	case AggCount:
		return cnt
	case AggMin:
		return minv
	case AggMax:
		return maxv
	case AggAvg:
		return sum / cnt
	case AggVar:
		m := sum / cnt
		ex2 := sq / cnt
		if ex2 < m*m {
			return 0
		}
		return ex2 - m*m
	}
	return 0
}

func refQuery(rows []Row, q Query) []Row {
	cur := append([]Row(nil), rows...)
	if q.Filter != nil {
		var kept []Row
		for _, r := range cur {
			if q.Filter(r) {
				kept = append(kept, r)
			}
		}
		cur = kept
	}
	if q.Distinct {
		seen := map[uint64]bool{}
		var kept []Row
		for _, r := range cur {
			if !seen[r.Key] {
				seen[r.Key] = true
				kept = append(kept, r)
			}
		}
		cur = kept
	}
	if q.GroupBy != AggNone {
		type stats struct{ sum, sq, cnt, minv, maxv uint64 }
		aggs := map[uint64]*stats{}
		var order []uint64
		for _, r := range cur {
			s, ok := aggs[r.Key]
			if !ok {
				s = &stats{minv: r.Val, maxv: r.Val}
				aggs[r.Key] = s
				order = append(order, r.Key)
			} else {
				if r.Val < s.minv {
					s.minv = r.Val
				}
				if r.Val > s.maxv {
					s.maxv = r.Val
				}
			}
			s.sum += r.Val
			s.sq += r.Val * r.Val
			s.cnt++
		}
		cur = cur[:0]
		for _, k := range order {
			cur = append(cur, Row{Key: k, Val: refAgg(q.GroupBy, aggs[k].sum, aggs[k].sq, aggs[k].cnt, aggs[k].minv, aggs[k].maxv)})
		}
	}
	if q.TopK > 0 {
		// Insertion-sort descending by value (stable enough for distinct vals).
		sorted := append([]Row(nil), cur...)
		for i := 1; i < len(sorted); i++ {
			for j := i; j > 0 && sorted[j].Val > sorted[j-1].Val; j-- {
				sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
			}
		}
		if q.TopK < len(sorted) {
			sorted = sorted[:q.TopK]
		}
		cur = sorted
	}
	return cur
}

func TestRunQueryPipeline(t *testing.T) {
	src := prng.New(88)
	rows := make([]Row, 120)
	for i := range rows {
		rows[i] = Row{Key: src.Uint64n(9), Val: 10 + uint64(i)} // distinct vals
	}
	tab := mustTable(t, rows)
	q := Query{
		Filter:  func(r Row) bool { return r.Val%2 == 0 },
		GroupBy: AggSum,
		TopK:    3,
	}
	got, _, err := RunQuery(Config{Mode: ModeSerial, Seed: 1}, tab, q)
	if err != nil {
		t.Fatal(err)
	}
	want := refQuery(rows, q)
	if len(got.Rows()) != len(want) {
		t.Fatalf("got %v, want %v", got.Rows(), want)
	}
	for i, r := range want {
		if got.Rows()[i] != r {
			t.Fatalf("row %d: got %v, want %v", i, got.Rows()[i], r)
		}
	}
}

func TestRunQueryParallelMatchesSerial(t *testing.T) {
	src := prng.New(99)
	rows := make([]Row, 200)
	for i := range rows {
		rows[i] = Row{Key: src.Uint64n(20), Val: src.Uint64n(1 << 30)}
	}
	tab := mustTable(t, rows)
	q := Query{Filter: func(r Row) bool { return r.Val%3 != 0 }, GroupBy: AggMax, TopK: 5}
	serial, _, err := RunQuery(Config{Mode: ModeSerial}, tab, q)
	if err != nil {
		t.Fatal(err)
	}
	par, _, err := RunQuery(Config{Workers: 4}, tab, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Rows()) != len(par.Rows()) {
		t.Fatalf("serial %v != parallel %v", serial.Rows(), par.Rows())
	}
	for i := range serial.Rows() {
		if serial.Rows()[i] != par.Rows()[i] {
			t.Fatalf("serial %v != parallel %v", serial.Rows(), par.Rows())
		}
	}
}

// TestQueryObliviousTrace asserts the full public pipeline's adversary view
// depends only on the table's shape, not its contents.
func TestQueryObliviousTrace(t *testing.T) {
	q := Query{Filter: func(r Row) bool { return r.Val > 500 }, GroupBy: AggSum, TopK: 4}
	traceOf := func(rows []Row) trace.Fingerprint {
		tab := mustTable(t, rows)
		_, rep, err := RunQuery(Config{Mode: ModeMetered, Trace: true, Seed: 3}, tab, q)
		if err != nil {
			t.Fatal(err)
		}
		return rep.TraceFingerprint
	}
	src := prng.New(77)
	n := 90
	a := make([]Row, n)
	b := make([]Row, n)
	for i := 0; i < n; i++ {
		a[i] = Row{Key: 1, Val: 0}
		b[i] = Row{Key: src.Uint64n(30), Val: src.Uint64n(1 << 35)}
	}
	if !traceOf(a).Equal(traceOf(b)) {
		t.Fatal("query trace depends on table contents")
	}
}

// --- Wide-key (multi-column) table tests --------------------------------

func mustWideTable(t *testing.T, rows []WideRow) Table {
	t.Helper()
	tab, err := NewWideTable(rows)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// wideQueryRows draws two-column rows with full-range column values (far
// beyond the old 2^40 key ceiling) and heavy tuple duplication.
func wideQueryRows(n int) []WideRow {
	src := prng.New(2024)
	rows := make([]WideRow, n)
	for i := range rows {
		rows[i] = WideRow{
			Keys: []uint64{
				src.Uint64n(4) * 0x9e3779b97f4a7c15,
				src.Uint64n(3) * 0x517cc1b727220a95,
			},
			Val: src.Uint64n(1 << 20),
		}
	}
	return rows
}

// refGroupBy is the plain-Go reference of GroupBy over wide rows.
func refGroupBy(rows []WideRow, agg Agg) []WideRow {
	type stats struct{ sum, sq, cnt, minv, maxv uint64 }
	aggs := map[[2]uint64]*stats{}
	var order [][2]uint64
	for _, r := range rows {
		k := [2]uint64{r.Keys[0], r.Keys[1]}
		s, ok := aggs[k]
		if !ok {
			s = &stats{minv: r.Val, maxv: r.Val}
			aggs[k] = s
			order = append(order, k)
		} else {
			if r.Val < s.minv {
				s.minv = r.Val
			}
			if r.Val > s.maxv {
				s.maxv = r.Val
			}
		}
		s.sum += r.Val
		s.sq += r.Val * r.Val
		s.cnt++
	}
	out := make([]WideRow, len(order))
	for i, k := range order {
		s := aggs[k]
		out[i] = WideRow{Keys: []uint64{k[0], k[1]}, Val: refAgg(agg, s.sum, s.sq, s.cnt, s.minv, s.maxv)}
	}
	return out
}

func checkWideRows(t *testing.T, got, want []WideRow, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d\ngot  %v\nwant %v", label, len(got), len(want), got, want)
	}
	for i := range want {
		if got[i].Val != want[i].Val || got[i].Keys[0] != want[i].Keys[0] || got[i].Keys[1] != want[i].Keys[1] {
			t.Fatalf("%s: row %d = %v, want %v", label, i, got[i], want[i])
		}
	}
}

// TestGroupByColsWide drives the composite GROUP BY (a, b) through the
// public API under every aggregation, including the one-pass (sum, count)
// Avg and Var.
func TestGroupByColsWide(t *testing.T) {
	rows := wideQueryRows(150)
	tab := mustWideTable(t, rows)
	if tab.Width() != 2 {
		t.Fatalf("width = %d, want 2", tab.Width())
	}
	for _, agg := range []Agg{AggSum, AggCount, AggMin, AggMax, AggAvg, AggVar} {
		got, _, err := GroupBy(Config{Mode: ModeSerial}, tab, agg)
		if err != nil {
			t.Fatalf("agg %d: %v", agg, err)
		}
		checkWideRows(t, got.WideRows(), refGroupBy(rows, agg), fmt.Sprintf("GroupBy agg %d", agg))
	}
}

// TestAvgVarNarrow pins the new aggregates on a hand-checked width-1 table.
func TestAvgVarNarrow(t *testing.T) {
	tab := mustTable(t, []Row{
		{1, 10}, {2, 7}, {1, 20}, {1, 30}, {2, 7},
	})
	avg, _, err := GroupBy(Config{Mode: ModeSerial}, tab, AggAvg)
	if err != nil {
		t.Fatal(err)
	}
	wantAvg := []Row{{1, 20}, {2, 7}}
	for i, r := range wantAvg {
		if avg.Rows()[i] != r {
			t.Fatalf("avg = %v, want %v", avg.Rows(), wantAvg)
		}
	}
	vr, _, err := GroupBy(Config{Mode: ModeSerial}, tab, AggVar)
	if err != nil {
		t.Fatal(err)
	}
	// Group 1: E[X^2] = (100+400+900)/3 = 466, mean 20 → var 66.
	wantVar := []Row{{1, 66}, {2, 0}}
	for i, r := range wantVar {
		if vr.Rows()[i] != r {
			t.Fatalf("var = %v, want %v", vr.Rows(), wantVar)
		}
	}
}

// TestWideQueryPipeline runs the fused Distinct→GroupBy→TopK pipeline over
// a two-column table and checks it against the staged baseline and the
// plain-Go reference.
func TestWideQueryPipeline(t *testing.T) {
	rows := wideQueryRows(120)
	for i := range rows {
		rows[i].Val = uint64(i) // distinct values: TopK tie-breaks exact
	}
	tab := mustWideTable(t, rows)
	q := Query{Distinct: true, GroupBy: AggSum, TopK: 3}

	fused, _, err := RunQuery(Config{Mode: ModeSerial}, tab, q)
	if err != nil {
		t.Fatal(err)
	}
	staged := q
	staged.NoOptimize = true
	base, _, err := RunQuery(Config{Mode: ModeSerial}, tab, staged)
	if err != nil {
		t.Fatal(err)
	}
	// Distinct keeps each tuple's earliest (distinct) value; the singleton
	// sums stay distinct, so the top-3 is unique and both paths must agree
	// exactly.
	checkWideRows(t, fused.WideRows(), base.WideRows(), "wide fused vs staged")
	if len(fused.WideRows()) != 3 {
		t.Fatalf("wide top-3: %d rows", len(fused.WideRows()))
	}

	// Filters over wide tables are a declared follow-on: reject, not
	// mis-execute.
	if _, _, err := RunQuery(Config{Mode: ModeSerial}, tab, Query{Filter: func(Row) bool { return true }}); err == nil {
		t.Fatal("wide table with Filter should be rejected")
	}
	if _, _, err := Filter(Config{Mode: ModeSerial}, tab, func(Row) bool { return true }); err == nil {
		t.Fatal("Filter over wide table should be rejected")
	}
	if _, _, err := Join(Config{Mode: ModeSerial}, tab, tab); err == nil {
		t.Fatal("Join over wide tables should be rejected")
	}
}

// TestWideQueryObliviousTrace is the width-2 trace satellite at the public
// layer: same-shape two-column tables with wildly different contents must
// produce identical views through the planned pipeline.
func TestWideQueryObliviousTrace(t *testing.T) {
	const n = 80
	src := prng.New(31)
	contents := [][]WideRow{make([]WideRow, n), make([]WideRow, n), make([]WideRow, n)}
	for i := 0; i < n; i++ {
		contents[0][i] = WideRow{Keys: []uint64{^uint64(1), ^uint64(1)}, Val: 0}
		contents[1][i] = WideRow{Keys: []uint64{uint64(i) << 45, uint64(i)}, Val: uint64(i)}
		contents[2][i] = WideRow{Keys: []uint64{src.Uint64n(5), src.Uint64n(3)}, Val: src.Uint64n(1 << 30)}
	}
	q := Query{Distinct: true, GroupBy: AggAvg, TopK: 4}
	traceOf := func(rows []WideRow) trace.Fingerprint {
		tab := mustWideTable(t, rows)
		_, rep, err := RunQuery(Config{Mode: ModeMetered, Trace: true, Seed: 9}, tab, q)
		if err != nil {
			t.Fatal(err)
		}
		return rep.TraceFingerprint
	}
	ref := traceOf(contents[0])
	for i := 1; i < len(contents); i++ {
		if !traceOf(contents[i]).Equal(ref) {
			t.Fatalf("wide planned trace differs between contents 0 and %d — record contents leak", i)
		}
	}
}

// TestWideGroupByBeyondRowLimit is the acceptance stress: a two-column
// GROUP BY (a, b) with full-range uint64 column values over a relation of
// more than 2^20 rows — beyond the old MaxRows — loads, runs under the
// parallel pool, and matches the plain-Go reference.
func TestWideGroupByBeyondRowLimit(t *testing.T) {
	if testing.Short() {
		t.Skip("2^20+1-row group-by takes tens of seconds; skipped with -short")
	}
	if raceEnabled {
		t.Skip("race instrumentation multiplies the 2^21-element sort cost; covered by the non-race run")
	}
	const n = 1<<20 + 1 // pads to 2^21 elements
	src := prng.New(555)
	rows := make([]WideRow, n)
	for i := range rows {
		rows[i] = WideRow{
			Keys: []uint64{
				src.Uint64n(3) * 0x9e3779b97f4a7c15, // full-range column values
				src.Uint64n(2) * 0x517cc1b727220a95,
			},
			Val: src.Uint64n(1 << 20),
		}
	}
	tab := mustWideTable(t, rows)
	got, _, err := GroupBy(Config{}, tab, AggAvg)
	if err != nil {
		t.Fatal(err)
	}
	checkWideRows(t, got.WideRows(), refGroupBy(rows, AggAvg), "GroupBy beyond 2^20 rows")
}
