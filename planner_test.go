package oblivmc

// Planner-level tests: the sort-fusion planner must (a) produce the same
// rows as the staged reference for every query shape, (b) run strictly
// fewer sorting-network passes than the staged execution on multi-stage
// pipelines, and (c) keep the trace a function of (row count, query shape)
// only — fusing and reordering passes must not let record contents leak.

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"oblivmc/internal/forkjoin"
	"oblivmc/internal/mem"
	"oblivmc/internal/obliv"
	"oblivmc/internal/obliv/oblivtest"
	"oblivmc/internal/plan"
	"oblivmc/internal/prng"
	"oblivmc/internal/relops"
	"oblivmc/internal/trace"
)

// countingSorter wraps a ScheduledSorter and counts full sorting passes.
// The relational sorts all run through the key-schedule path, so the
// counter lives on SortScheduled; Sort delegates for completeness.
type countingSorter struct {
	inner obliv.ScheduledSorter
	n     *int
}

func (s countingSorter) Name() string { return "counting:" + s.inner.Name() }

func (s countingSorter) Sort(c *forkjoin.Ctx, sp *mem.Space, a *mem.Array[obliv.Elem], lo, n int, key func(obliv.Elem) uint64) {
	*s.n++
	s.inner.Sort(c, sp, a, lo, n, key)
}

func (s countingSorter) SortScheduled(c *forkjoin.Ctx, sp *mem.Space, a *mem.Array[obliv.Elem], ks *obliv.KeySchedule, scr *mem.Array[obliv.Elem], kscr *obliv.KeySchedule, lo, n int) {
	*s.n++
	s.inner.SortScheduled(c, sp, a, ks, scr, kscr, lo, n)
}

// executedSorts runs q over tab through the query layer's one execution
// body under a counting selection-network sorter and returns the sorting
// passes it executed — the staged plan's when q.NoOptimize is set.
func executedSorts(t *testing.T, tab Table, q Query) int {
	t.Helper()
	kind, err := queryAgg(q)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	pl := q.compile(kind, tab.Width(), tab.order)
	if _, _, err := runQueryPlanned(exec{cfg: Config{Mode: ModeSerial}}, tab, q, pl,
		countingSorter{inner: obliv.SelectionNetwork{}, n: &n}); err != nil {
		t.Fatal(err)
	}
	return n
}

// queryShapes enumerates every stage combination, with both filter
// declarations where a filter is present and with and without KeyOrderOut.
func queryShapes() []Query {
	var out []Query
	for _, filter := range []int{0, 1, 2} { // none, value-filter, key-only filter
		for _, distinct := range []bool{false, true} {
			for _, agg := range []Agg{AggNone, AggSum, AggCount, AggMin, AggAvg, AggVar} {
				for _, k := range []int{0, 3} {
					for _, keyOut := range []bool{false, true} {
						q := Query{Distinct: distinct, GroupBy: agg, TopK: k, KeyOrderOut: keyOut}
						switch filter {
						case 1:
							q.Filter = func(r Row) bool { return r.Val%3 != 0 }
						case 2:
							q.Filter = func(r Row) bool { return r.Key%2 == 0 }
							q.FilterKeyOnly = true
						}
						out = append(out, q)
					}
				}
			}
		}
	}
	return out
}

func queryRows(n int) []Row {
	src := prng.New(4242)
	rows := make([]Row, n)
	for i := range rows {
		// Distinct values (and practically distinct group aggregates) keep
		// the TopK reference exact.
		rows[i] = Row{Key: src.Uint64n(11), Val: uint64(i)*977 + src.Uint64n(900)}
	}
	return rows
}

// keyOrdered reports whether q delivers its result in key order: it asks
// for KeyOrderOut and has a filter, distinct or group-by stage to deliver
// it from (TopK's public order is descending value instead).
func keyOrdered(q Query) bool {
	return q.KeyOrderOut && q.TopK == 0 && (q.Filter != nil || q.FilterWide != nil || q.Distinct || q.GroupBy != AggNone)
}

// checkQueryResult compares the result table res against the reference
// semantics of q over rows. For shapes without TopK the row sequence must
// match exactly — in ascending key order, stamped OrderKeys, when
// keyOrdered(q). With TopK, value ties make the k-th row's identity
// implementation-defined ("broken deterministically but arbitrarily"), so
// the check accepts any valid top-k: correct length, descending values, the
// top-k value multiset of the pre-TopK relation, and every row present in
// that relation; the result must carry OrderValues.
func checkQueryResult(t *testing.T, label string, res Table, rows []Row, q Query) {
	t.Helper()
	got := res.Rows()
	if q.TopK == 0 {
		want := refQuery(rows, q)
		if keyOrdered(q) {
			want = keySorted(want)
			if res.Order() != OrderKeys {
				t.Fatalf("%s: order token %v, want %v", label, res.Order(), OrderKeys)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d rows, want %d\ngot  %v\nwant %v", label, len(got), len(want), got, want)
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("%s: row %d = %v, want %v", label, j, got[j], want[j])
			}
		}
		return
	}
	pre := q
	pre.TopK = 0
	preRows := refQuery(rows, pre)
	preCount := map[Row]int{}
	vals := make([]uint64, 0, len(preRows))
	for _, r := range preRows {
		preCount[r]++
		vals = append(vals, r.Val)
	}
	for i := 1; i < len(vals); i++ { // insertion-sort descending
		for j := i; j > 0 && vals[j] > vals[j-1]; j-- {
			vals[j], vals[j-1] = vals[j-1], vals[j]
		}
	}
	if res.Order() != OrderValues {
		t.Fatalf("%s: order token %v, want %v", label, res.Order(), OrderValues)
	}
	wantLen := q.TopK
	if wantLen > len(preRows) {
		wantLen = len(preRows)
	}
	if len(got) != wantLen {
		t.Fatalf("%s: %d rows, want %d (%v)", label, len(got), wantLen, got)
	}
	for j, r := range got {
		if r.Val != vals[j] {
			t.Fatalf("%s: row %d val %d, want %d (top vals %v, got %v)", label, j, r.Val, vals[j], vals[:wantLen], got)
		}
		if preCount[r] == 0 {
			t.Fatalf("%s: row %d = %v is not a pre-TopK result row", label, j, r)
		}
		preCount[r]--
	}
}

// TestPlannedMatchesReferenceAllShapes runs every query shape through the
// fused planner path and the staged baseline and compares both against the
// plain-Go reference semantics.
func TestPlannedMatchesReferenceAllShapes(t *testing.T) {
	rows := queryRows(96)
	tab := mustTable(t, rows)
	for i, q := range queryShapes() {
		label := fmt.Sprintf("shape %d (filter=%v keyonly=%v distinct=%v agg=%d topk=%d keyout=%v)",
			i, q.Filter != nil, q.FilterKeyOnly, q.Distinct, q.GroupBy, q.TopK, q.KeyOrderOut)

		fused, _, err := RunQuery(Config{Mode: ModeSerial}, tab, q)
		if err != nil {
			t.Fatalf("%s: fused: %v", label, err)
		}
		staged := q
		staged.NoOptimize = true
		base, _, err := RunQuery(Config{Mode: ModeSerial}, tab, staged)
		if err != nil {
			t.Fatalf("%s: staged: %v", label, err)
		}
		checkQueryResult(t, label+" fused", fused, rows, q)
		checkQueryResult(t, label+" staged", base, rows, q)
	}
}

// TestFusedRunsFewerSorts is the sort-pass counter test: the fused
// Filter→Distinct→GroupBy→TopK pipeline must run strictly fewer sorts than
// the staged seed path — concretely 2 against 6 — and every multi-stage
// shape must save at least one sort.
func TestFusedRunsFewerSorts(t *testing.T) {
	rows := queryRows(64)
	tab := mustTable(t, rows)

	sortsOf := func(q Query, staged bool) int {
		q.NoOptimize = staged
		return executedSorts(t, tab, q)
	}

	full := Query{
		Filter:   func(r Row) bool { return r.Val%2 == 0 },
		Distinct: true,
		GroupBy:  AggSum,
		TopK:     5,
	}
	if fused, staged := sortsOf(full, false), sortsOf(full, true); fused != 2 || staged != 6 {
		t.Fatalf("full pipeline: fused %d sorts, staged %d — want 2 and 6", fused, staged)
	}

	for i, q := range queryShapes() {
		stages := 0
		for _, b := range []bool{q.Filter != nil, q.Distinct, q.GroupBy != AggNone, q.TopK > 0} {
			if b {
				stages++
			}
		}
		if stages < 2 {
			continue
		}
		if fused, staged := sortsOf(q, false), sortsOf(q, true); fused >= staged {
			t.Errorf("shape %d: fused %d sorts >= staged %d", i, fused, staged)
		}
	}
}

// TestWidthOneQueriesKeepTwoPassSchedule is the sort-pass-counter pin for
// the wide-key refactor: a width-1 four-stage pipeline must still plan and
// execute exactly 2 sorting passes (PR 2's fused schedule), and widening
// the table to two key columns must not change the pass count — width only
// widens the schedules, never the plan.
func TestWidthOneQueriesKeepTwoPassSchedule(t *testing.T) {
	q := Query{
		Filter:   func(r Row) bool { return r.Val%2 == 0 },
		Distinct: true,
		GroupBy:  AggSum,
		TopK:     5,
	}
	kind, err := queryAgg(q)
	if err != nil {
		t.Fatal(err)
	}
	for w := 1; w <= relops.MaxKeyCols; w++ {
		if pl := plan.Build(q.shape(kind, w, OrderNone)); pl.SortPasses != 2 {
			t.Fatalf("width %d: planned %d sorts, want 2 (%s)", w, pl.SortPasses, pl)
		}
	}

	// Executed pass count, width 1: the full pipeline runs 2 sorts.
	if n := executedSorts(t, mustTable(t, queryRows(64)), q); n != 2 {
		t.Fatalf("width-1 fused pipeline executed %d sorts, want 2", n)
	}

	// Executed pass count, width 2 (no filter — wide filters are a
	// follow-on): Distinct→GroupBy→TopK fuses to the same 2 sorts.
	wq := Query{Distinct: true, GroupBy: AggAvg, TopK: 5}
	if n := executedSorts(t, mustWideTable(t, wideQueryRows(64)), wq); n != 2 {
		t.Fatalf("width-2 fused pipeline executed %d sorts, want 2", n)
	}
}

// TestPlannedQueryObliviousTrace asserts trace-fingerprint equality for
// fused/reordered plans across same-shape, different-content tables: the
// planner's rewrites must leave the adversary's view a function of (row
// count, query shape) only. The views come from the public metered Report,
// so the assertion goes through oblivtest.Equal rather than the harness's
// own metered runner.
func TestPlannedQueryObliviousTrace(t *testing.T) {
	shapes := []Query{
		{Filter: func(r Row) bool { return r.Val > 100 }, Distinct: true, GroupBy: AggSum, TopK: 4},
		{Filter: func(r Row) bool { return r.Key%2 == 0 }, FilterKeyOnly: true, Distinct: true},
		{Filter: func(r Row) bool { return r.Key < 5 }, FilterKeyOnly: true, GroupBy: AggMax},
		{Distinct: true, GroupBy: AggCount},
		{Filter: func(r Row) bool { return r.Val%2 == 1 }, TopK: 7},
		{GroupBy: AggMin},
	}
	const n = 80
	src := prng.New(555)
	contents := [][]Row{make([]Row, n), make([]Row, n), make([]Row, n)}
	for i := 0; i < n; i++ {
		contents[0][i] = Row{Key: 3, Val: 0}                                         // one group, constant
		contents[1][i] = Row{Key: uint64(i), Val: uint64(1<<40) - uint64(i)}         // all distinct
		contents[2][i] = Row{Key: src.Uint64n(6), Val: src.Uint64n(uint64(1 << 33))} // random dups
	}
	for si, q := range shapes {
		fps := make([]trace.Fingerprint, len(contents))
		for ci, rows := range contents {
			fps[ci] = queryTraceOf(t, mustTable(t, rows), q)
		}
		oblivtest.Equal(t, fmt.Sprintf("planned query shape %d", si), fps...)
	}
}

// queryTraceOf runs q metered over tab and returns the adversary's view
// from the public Report.
func queryTraceOf(t *testing.T, tab Table, q Query) trace.Fingerprint {
	t.Helper()
	_, rep, err := RunQuery(Config{Mode: ModeMetered, Trace: true, Seed: 9}, tab, q)
	if err != nil {
		t.Fatal(err)
	}
	return rep.TraceFingerprint
}

// TestPlannedTraceDependsOnShape is the sanity inverse: different query
// shapes (and different row counts) must change the view.
func TestPlannedTraceDependsOnShape(t *testing.T) {
	rows := queryRows(64)
	withTopK := queryTraceOf(t, mustTable(t, rows), Query{GroupBy: AggSum, TopK: 3})
	withoutTopK := queryTraceOf(t, mustTable(t, rows), Query{GroupBy: AggSum})
	if withTopK.Equal(withoutTopK) {
		t.Fatal("different query shapes should yield different traces")
	}
	small := queryTraceOf(t, mustTable(t, queryRows(32)), Query{GroupBy: AggSum, TopK: 3})
	if small.Equal(withTopK) {
		t.Fatal("different row counts should yield different traces")
	}
}

// TestExplain pins the plan rendering the CLI exposes.
func TestExplain(t *testing.T) {
	got, err := Explain(Query{
		Filter:   func(r Row) bool { return r.Val > 0 },
		Distinct: true,
		GroupBy:  AggSum,
		TopK:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := "filter-mark → sort(key,pos) → dedup+aggregate → sort(val↓) → topk [2 sorts, staged 6]"
	if got != want {
		t.Fatalf("Explain = %q, want %q", got, want)
	}

	// A NoOptimize query explains what actually runs: the staged sequence.
	got, err = Explain(Query{Distinct: true, GroupBy: AggSum, TopK: 2, NoOptimize: true})
	if err != nil {
		t.Fatal(err)
	}
	if want := "staged: distinct → group-by → top-k [5 sorts]"; got != want {
		t.Fatalf("Explain(NoOptimize) = %q, want %q", got, want)
	}

	// Explain validates like RunQuery.
	if _, err := Explain(Query{TopK: -1}); err == nil {
		t.Fatal("Explain accepted negative k")
	}
}

// TestTableBoundaryErrors pins the typed boundary errors at both layers.
// The old 2^40 key ceiling is gone: every key below the filler sentinel
// (relops.KeyLimit = 2^64-1) is legal, and the row bound — now 2^40, far
// too large to materialize — is exercised through relops.CheckShape.
func TestTableBoundaryErrors(t *testing.T) {
	if _, err := NewTable([]Row{{Key: 1 << 40, Val: 1}}); err != nil {
		t.Fatalf("NewTable rejected a key above the lifted 2^40 bound: %v", err)
	}
	if _, err := NewTable([]Row{{Key: ^uint64(0), Val: 1}}); !errors.Is(err, ErrKeyTooLarge) {
		t.Fatalf("NewTable key at the filler sentinel: err = %v, want ErrKeyTooLarge", err)
	}
	if _, err := NewTable([]Row{{Key: ^uint64(0) - 1, Val: 1}}); err != nil {
		t.Fatalf("NewTable rejected the maximum legal key: %v", err)
	}
	if err := relops.CheckShape(relops.MaxRows+1, 1); !errors.Is(err, relops.ErrTooManyRows) {
		t.Fatalf("CheckShape row overflow: err = %v, want ErrTooManyRows", err)
	}
	if _, err := NewWideTable([]WideRow{{Keys: []uint64{1, 2, 3}, Val: 1}}); !errors.Is(err, ErrBadWidth) {
		t.Fatalf("NewWideTable 3 columns: err = %v, want ErrBadWidth", err)
	}
	if _, err := NewWideTable([]WideRow{{Keys: []uint64{1, 2}}, {Keys: []uint64{3}}}); !errors.Is(err, ErrBadWidth) {
		t.Fatalf("NewWideTable ragged widths: err = %v, want ErrBadWidth", err)
	}
	if _, err := NewWideTable([]WideRow{{Keys: []uint64{1, ^uint64(0)}, Val: 1}}); !errors.Is(err, ErrKeyTooLarge) {
		t.Fatalf("NewWideTable sentinel column: err = %v, want ErrKeyTooLarge", err)
	}
	// The public errors wrap the relops ones, so either layer matches.
	if !errors.Is(ErrKeyTooLarge, relops.ErrKeyTooLarge) || !errors.Is(ErrTooManyRows, relops.ErrTooManyRows) ||
		!errors.Is(ErrBadWidth, relops.ErrBadWidth) {
		t.Fatal("public boundary errors must wrap the relops typed errors")
	}
}

// --- Join stage --------------------------------------------------------------

// refJoinedRows is the plain-Go reference of the Query join stage: one row
// per (left row, right row) pair sharing its key, carrying the right row's
// key and value, ordered by (right position, left position).
func refJoinedRows(left, rows []Row) []Row {
	var out []Row
	for _, r := range rows {
		for _, l := range left {
			if l.Key == r.Key {
				out = append(out, r)
			}
		}
	}
	return out
}

// joinedQueryTables builds the canonical join-query fixture: a duplicated
// left dimension (two rows per key) against a right table with repeated
// keys, so the expansion is genuinely many-to-many in both directions.
func joinedQueryTables(t *testing.T, n int) (Table, Table, []Row, []Row) {
	t.Helper()
	src := prng.New(977)
	left := make([]Row, 12)
	for i := range left {
		left[i] = Row{Key: uint64(i / 2), Val: 1000 + uint64(i)} // keys 0..5, each twice
	}
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = Row{Key: src.Uint64n(9), Val: uint64(i)*977 + src.Uint64n(900)}
	}
	return mustTable(t, left), mustTable(t, rows), left, rows
}

// TestJoinedQueryMatchesReference runs joined query shapes through both
// the planned and the staged path and compares against the expand-then-ref
// semantics.
func TestJoinedQueryMatchesReference(t *testing.T) {
	lt, rt, left, rows := joinedQueryTables(t, 48)
	expanded := refJoinedRows(left, rows)
	spec := &JoinSpec{Left: lt, MaxOut: len(expanded) + 5}
	shapes := []Query{
		{},
		{Filter: func(r Row) bool { return r.Val%3 != 0 }},
		{Distinct: true},
		{GroupBy: AggSum},
		{GroupBy: AggCount, TopK: 3},
		{Filter: func(r Row) bool { return r.Key%2 == 0 }, FilterKeyOnly: true, Distinct: true, GroupBy: AggSum, TopK: 4},
	}
	for i, q := range shapes {
		q.Join = spec
		label := fmt.Sprintf("joined shape %d", i)
		fused, _, err := RunQuery(Config{Mode: ModeSerial}, rt, q)
		if err != nil {
			t.Fatalf("%s: fused: %v", label, err)
		}
		staged := q
		staged.NoOptimize = true
		base, _, err := RunQuery(Config{Mode: ModeSerial}, rt, staged)
		if err != nil {
			t.Fatalf("%s: staged: %v", label, err)
		}
		unary := q
		unary.Join = nil
		checkQueryResult(t, label+" fused", fused, expanded, unary)
		checkQueryResult(t, label+" staged", base, expanded, unary)
	}
}

// TestJoinedQueryWide compares the planned and staged paths over a
// two-column joined query (the reference semantics are pinned at width 1;
// width only widens the schedules).
func TestJoinedQueryWide(t *testing.T) {
	wide := func(rows []WideRow) Table { return mustWideTable(t, rows) }
	lt := wide([]WideRow{
		{Keys: []uint64{1, 7}, Val: 100}, {Keys: []uint64{1, 7}, Val: 101},
		{Keys: []uint64{2, 7}, Val: 200}, {Keys: []uint64{1, 8}, Val: 300},
	})
	rt := wide([]WideRow{
		{Keys: []uint64{1, 7}, Val: 10}, {Keys: []uint64{2, 7}, Val: 20},
		{Keys: []uint64{1, 8}, Val: 30}, {Keys: []uint64{1, 7}, Val: 40},
		{Keys: []uint64{9, 9}, Val: 50},
	})
	// Matches: (1,7)×2 for rows 10 and 40, (2,7)×1, (1,8)×1 → 7 pairs.
	q := Query{Join: &JoinSpec{Left: lt, MaxOut: 8}, GroupBy: AggCount}
	fused, _, err := RunQuery(Config{Mode: ModeSerial}, rt, q)
	if err != nil {
		t.Fatal(err)
	}
	want := map[[2]uint64]uint64{{1, 7}: 4, {2, 7}: 1, {1, 8}: 1}
	if len(fused.WideRows()) != len(want) {
		t.Fatalf("joined wide group-by: %v, want one row per matched tuple %v", fused.WideRows(), want)
	}
	for _, r := range fused.WideRows() {
		if want[[2]uint64{r.Keys[0], r.Keys[1]}] != r.Val {
			t.Fatalf("joined wide group-by row %v, want counts %v", r, want)
		}
	}
	staged := q
	staged.NoOptimize = true
	base, _, err := RunQuery(Config{Mode: ModeSerial}, rt, staged)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(base.WideRows()) != fmt.Sprint(fused.WideRows()) {
		t.Fatalf("staged joined wide result %v differs from fused %v", base.WideRows(), fused.WideRows())
	}
}

// TestJoinPlanSortPasses is the planner sort-pass-count pin for the join
// stage: the stand-alone join plans its three operator sorts (the
// bitonic-merge expansion absorbed the old distribution sort), and feeding
// a downstream stage defers the propagate+compact tail down to one — so
// the fused join+group-by pipeline runs 3 sorts against the staged 5.
func TestJoinPlanSortPasses(t *testing.T) {
	for _, tc := range []struct {
		shape         plan.Shape
		sorts, staged int
		rendered      string
	}{
		{plan.Shape{Join: true}, 3, 3,
			"join-all [3 sorts, staged 3]"},
		{plan.Shape{Join: true, GroupBy: true}, 3, 5,
			"join-all+defer → sort(key,pos) → aggregate → compact(pos) [3 sorts, staged 5]"},
		{plan.Shape{Join: true, TopK: 3}, 2, 4,
			"join-all+defer → sort(val↓) → topk [2 sorts, staged 4]"},
		{plan.Shape{Join: true, Distinct: true, GroupBy: true}, 3, 7,
			"join-all+defer → sort(key,pos) → dedup+aggregate → compact(pos) [3 sorts, staged 7]"},
	} {
		pl := plan.Build(tc.shape)
		if pl.SortPasses != tc.sorts || pl.StagedSortPasses != tc.staged {
			t.Errorf("shape %+v: %d sorts staged %d, want %d/%d", tc.shape, pl.SortPasses, pl.StagedSortPasses, tc.sorts, tc.staged)
		}
		if got := pl.String(); got != tc.rendered {
			t.Errorf("shape %+v renders %q, want %q", tc.shape, got, tc.rendered)
		}
		// Width never changes the join plan's pass structure.
		wide := tc.shape
		wide.KeyCols = 2
		if wpl := plan.Build(wide); wpl.SortPasses != tc.sorts {
			t.Errorf("shape %+v at width 2: %d sorts, want %d", tc.shape, wpl.SortPasses, tc.sorts)
		}
	}
}

// TestJoinedQueryExecutedSorts counts the sorting passes the executor
// actually runs for a joined pipeline: the deferred join's one sort plus
// the group-by stage's two — exactly the planned 3 — against the staged 5
// (stand-alone JoinAll's three plus GroupBy's two).
func TestJoinedQueryExecutedSorts(t *testing.T) {
	lt, rt, left, rows := joinedQueryTables(t, 32)
	q := Query{Join: &JoinSpec{Left: lt, MaxOut: len(refJoinedRows(left, rows)) + 1}, GroupBy: AggSum}
	sortsOf := func(staged bool) int {
		q := q
		q.NoOptimize = staged
		return executedSorts(t, rt, q)
	}
	if fused, staged := sortsOf(false), sortsOf(true); fused != 3 || staged != 5 {
		t.Fatalf("joined group-by pipeline: fused %d sorts, staged %d — want 3 and 5", fused, staged)
	}
}

// TestJoinedQueryObliviousTrace: the joined query's view must be identical
// across different contents of both sides — at both key widths — and must
// change when the public capacity changes.
func TestJoinedQueryObliviousTrace(t *testing.T) {
	const nl, nr, maxOut = 8, 24, 64
	q := func(lt Table) Query { return Query{Join: &JoinSpec{Left: lt, MaxOut: maxOut}, GroupBy: AggSum} }

	narrow := func(seed uint64) (Table, Table) {
		src := prng.New(seed)
		left := make([]Row, nl)
		for i := range left {
			left[i] = Row{Key: src.Uint64n(4), Val: src.Uint64n(1 << 20)}
		}
		rows := make([]Row, nr)
		for i := range rows {
			rows[i] = Row{Key: src.Uint64n(4), Val: src.Uint64n(1 << 20)}
		}
		return mustTable(t, left), mustTable(t, rows)
	}
	var fps []trace.Fingerprint
	for _, seed := range []uint64{1, 2, 3} {
		lt, rt := narrow(seed)
		fps = append(fps, queryTraceOf(t, rt, q(lt)))
	}
	oblivtest.Equal(t, "joined query width 1", fps...)

	wideTabs := func(seed uint64) (Table, Table) {
		src := prng.New(seed)
		left := make([]WideRow, nl)
		for i := range left {
			left[i] = WideRow{Keys: []uint64{src.Uint64n(4), src.Uint64n(3)}, Val: src.Uint64n(1 << 20)}
		}
		rows := make([]WideRow, nr)
		for i := range rows {
			rows[i] = WideRow{Keys: []uint64{src.Uint64n(4), src.Uint64n(3)}, Val: src.Uint64n(1 << 20)}
		}
		return mustWideTable(t, left), mustWideTable(t, rows)
	}
	var wfps []trace.Fingerprint
	for _, seed := range []uint64{4, 5, 6} {
		lt, rt := wideTabs(seed)
		wfps = append(wfps, queryTraceOf(t, rt, q(lt)))
	}
	oblivtest.Equal(t, "joined query width 2", wfps...)
	if fps[0].Equal(wfps[0]) {
		t.Fatal("width-1 and width-2 joined queries should yield different views")
	}

	// Capacity is public shape: a different maxOut must change the view.
	lt, rt := narrow(1)
	bigger := queryTraceOf(t, rt, Query{Join: &JoinSpec{Left: lt, MaxOut: 2 * maxOut}, GroupBy: AggSum})
	if bigger.Equal(fps[0]) {
		t.Fatal("different join capacities should yield different views")
	}
}

// TestJoinCapAuto: a JoinCapAuto capacity resolves to the advisor's exact
// worst-case bound inside the run, so the query result matches an explicit
// exact capacity, the join can never overflow, and both surfaces (Query
// and JoinAllRows) accept the sentinel.
func TestJoinCapAuto(t *testing.T) {
	lt, rt, left, rows := joinedQueryTables(t, 48)
	want := refJoinedRows(left, rows)

	exact, _, err := RunQuery(Config{Mode: ModeSerial}, rt, Query{Join: &JoinSpec{Left: lt, MaxOut: len(want)}, GroupBy: AggSum})
	if err != nil {
		t.Fatal(err)
	}
	auto, _, err := RunQuery(Config{Mode: ModeSerial}, rt, Query{Join: &JoinSpec{Left: lt, MaxOut: JoinCapAuto}, GroupBy: AggSum})
	if err != nil {
		t.Fatalf("JoinCapAuto query: %v", err)
	}
	if fmt.Sprint(auto.Rows()) != fmt.Sprint(exact.Rows()) {
		t.Fatalf("auto-capacity rows %v differ from exact-capacity rows %v", auto.Rows(), exact.Rows())
	}

	// The staged path resolves the sentinel through the same seam.
	staged, _, err := RunQuery(Config{Mode: ModeSerial}, rt, Query{Join: &JoinSpec{Left: lt, MaxOut: JoinCapAuto}, GroupBy: AggSum, NoOptimize: true})
	if err != nil {
		t.Fatalf("JoinCapAuto staged query: %v", err)
	}
	if fmt.Sprint(staged.Rows()) != fmt.Sprint(exact.Rows()) {
		t.Fatalf("staged auto-capacity rows %v differ from exact %v", staged.Rows(), exact.Rows())
	}

	// JoinAllRows honors the sentinel and delivers every match.
	joined, _, err := JoinAllRows(Config{Mode: ModeSerial}, lt, rt, JoinCapAuto)
	if err != nil {
		t.Fatalf("JoinAllRows(JoinCapAuto): %v", err)
	}
	if len(joined) != len(want) {
		t.Fatalf("JoinAllRows(JoinCapAuto) delivered %d rows, want every match: %d", len(joined), len(want))
	}

	// No possible matches: the advised bound of zero is floored to the
	// legal minimum capacity instead of failing validation.
	disjoint := mustTable(t, []Row{{Key: 1 << 30, Val: 1}})
	if rows, _, err := JoinAllRows(Config{Mode: ModeSerial}, disjoint, rt, JoinCapAuto); err != nil || len(rows) != 0 {
		t.Fatalf("disjoint JoinCapAuto: rows %v, err %v — want empty success", rows, err)
	}
}

// TestJoinedQueryBoundaryErrors pins the join stage's typed errors at the
// Query layer: capacity bounds, width mismatches, and the overflow error
// carrying the true match count.
func TestJoinedQueryBoundaryErrors(t *testing.T) {
	lt := mustTable(t, []Row{{Key: 1, Val: 1}, {Key: 1, Val: 2}})
	rt := mustTable(t, []Row{{Key: 1, Val: 10}, {Key: 1, Val: 20}, {Key: 2, Val: 30}})

	if _, _, err := RunQuery(Config{Mode: ModeSerial}, rt, Query{Join: &JoinSpec{Left: lt}}); !errors.Is(err, ErrBadCapacity) {
		t.Fatalf("zero capacity: err = %v, want ErrBadCapacity", err)
	}
	wt := mustWideTable(t, []WideRow{{Keys: []uint64{1, 2}, Val: 1}})
	if _, _, err := RunQuery(Config{Mode: ModeSerial}, rt, Query{Join: &JoinSpec{Left: wt, MaxOut: 4}}); !errors.Is(err, ErrBadWidth) {
		t.Fatalf("width mismatch: err = %v, want ErrBadWidth", err)
	}

	// Four true matches (two lefts × two key-1 rights): maxOut 3 overflows
	// on both paths, and the wrapped message carries the retry numbers.
	for _, noOpt := range []bool{false, true} {
		_, _, err := RunQuery(Config{Mode: ModeSerial}, rt, Query{Join: &JoinSpec{Left: lt, MaxOut: 3}, NoOptimize: noOpt})
		if !errors.Is(err, ErrJoinOverflow) || !errors.Is(err, relops.ErrJoinOverflow) {
			t.Fatalf("noOpt=%v: err = %v, want ErrJoinOverflow at both layers", noOpt, err)
		}
		if got := err.Error(); !strings.Contains(got, "4 matches, capacity 3") {
			t.Fatalf("noOpt=%v: overflow error %q does not carry the true count", noOpt, got)
		}
	}
	if _, _, err := RunQuery(Config{Mode: ModeSerial}, rt, Query{Join: &JoinSpec{Left: lt, MaxOut: 4}}); err != nil {
		t.Fatalf("exact capacity should succeed: %v", err)
	}
}
