package oblivmc

// Session-level tests: a long-lived Session (persistent pool, space,
// arena, sorter) must serve back-to-back queries with the exact rows of
// the one-shot surfaces, count its executed sort passes faithfully, and
// realize the cross-query order-token savings the serving layer is built
// on.

import (
	"fmt"
	"sort"
	"testing"

	"oblivmc/internal/plan"
)

// keySorted returns rows in ascending (key, first-occurrence) order — the
// public order of a KeyOrderOut materialization.
func keySorted(rows []Row) []Row {
	out := append([]Row(nil), rows...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

func TestSessionMatchesOneShot(t *testing.T) {
	rows := queryRows(256)
	tab, err := NewTable(rows)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Mode: ModeSerial}
	sess := NewSession(cfg)
	defer sess.Close()
	for i, q := range queryShapes() {
		if i%3 != 0 { // every shape family, a third of the full sweep
			continue
		}
		want, _, err := RunQuery(cfg, tab, q)
		if err != nil {
			t.Fatal(err)
		}
		got, stats, err := sess.RunQuery(tab, q)
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("shape %d", i)
		checkQueryResult(t, label+" (session)", got, rows, q)
		if len(got.Rows()) != len(want.Rows()) {
			t.Fatalf("%s: session %d rows, one-shot %d", label, len(got.Rows()), len(want.Rows()))
		}
		kind, err := queryAgg(q)
		if err != nil {
			t.Fatal(err)
		}
		pl := plan.Build(q.shape(kind, 1, OrderNone))
		if stats.SortPasses != pl.SortPasses {
			t.Fatalf("%s: executed %d sorts, plan says %d (%s)", label, stats.SortPasses, pl.SortPasses, pl)
		}
	}
}

// TestSessionPlanMatchesExplain pins one plan string per query: for every
// shape, fused and staged, QueryStats.Plan is exactly ExplainTable's
// rendering and the executed sort passes are the compiled plan's count.
func TestSessionPlanMatchesExplain(t *testing.T) {
	tab := mustTable(t, queryRows(64))
	sess := NewSession(Config{Mode: ModeSerial})
	defer sess.Close()
	for i, q := range queryShapes() {
		for _, staged := range []bool{false, true} {
			q.NoOptimize = staged
			label := fmt.Sprintf("shape %d staged=%v", i, staged)
			_, stats, err := sess.RunQuery(tab, q)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			want, err := ExplainTable(tab, q)
			if err != nil {
				t.Fatal(err)
			}
			if stats.Plan != want {
				t.Fatalf("%s: stats.Plan = %q, Explain = %q", label, stats.Plan, want)
			}
			kind, err := queryAgg(q)
			if err != nil {
				t.Fatal(err)
			}
			if pl := q.compile(kind, tab.Width(), tab.Order()); stats.SortPasses != pl.SortPasses {
				t.Fatalf("%s: executed %d sorts, plan says %d (%s)", label, stats.SortPasses, pl.SortPasses, want)
			}
		}
	}
}

func TestSessionKeyOrderOut(t *testing.T) {
	rows := queryRows(200)
	tab, err := NewTable(rows)
	if err != nil {
		t.Fatal(err)
	}
	sess := NewSession(Config{Mode: ModeSerial})
	defer sess.Close()
	q := Query{GroupBy: AggSum, KeyOrderOut: true}
	out, stats, err := sess.RunQuery(tab, q)
	if err != nil {
		t.Fatal(err)
	}
	if out.Order() != OrderKeys {
		t.Fatalf("result order token = %v, want OrderKeys", out.Order())
	}
	if stats.SortPasses != 1 {
		t.Fatalf("keyout groupby executed %d sorts, want 1 (plan %s)", stats.SortPasses, stats.Plan)
	}
	want := keySorted(refQuery(rows, Query{GroupBy: AggSum}))
	got := out.Rows()
	if len(got) != len(want) {
		t.Fatalf("%d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestSessionOrderTokenChaining is the cross-query seam end to end: a
// KeyOrderOut materialization feeds a follow-up query that skips its key
// sort — executed passes, not just the rendered plan.
func TestSessionOrderTokenChaining(t *testing.T) {
	rows := queryRows(256)
	tab, err := NewTable(rows)
	if err != nil {
		t.Fatal(err)
	}
	sess := NewSession(Config{Mode: ModeSerial})
	defer sess.Close()

	agg, stats, err := sess.RunQuery(tab, Query{GroupBy: AggSum, KeyOrderOut: true})
	if err != nil {
		t.Fatal(err)
	}
	if stats.SortPasses != 1 || agg.Order() != OrderKeys {
		t.Fatalf("materialization: %d sorts, order %v; want 1, OrderKeys", stats.SortPasses, agg.Order())
	}

	// Follow-up 1: zero-sort aggregate over the ordered materialization.
	out, stats, err := sess.RunQuery(agg, Query{GroupBy: AggMax, KeyOrderOut: true})
	if err != nil {
		t.Fatal(err)
	}
	if stats.SortPasses != 0 || stats.ColdSortPasses != 1 {
		t.Fatalf("ordered follow-up: executed %d sorts (cold %d), want 0 (1): %s",
			stats.SortPasses, stats.ColdSortPasses, stats.Plan)
	}
	want := keySorted(refQuery(agg.Rows(), Query{GroupBy: AggMax}))
	got := out.Rows()
	if len(got) != len(want) {
		t.Fatalf("%d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d = %v, want %v", i, got[i], want[i])
		}
	}

	// Follow-up 2: the token also saves a pass when the output order is the
	// default position order (1 sort instead of the cold 2).
	_, stats, err = sess.RunQuery(agg, Query{GroupBy: AggMin})
	if err != nil {
		t.Fatal(err)
	}
	if stats.SortPasses != 1 || stats.ColdSortPasses != 2 {
		t.Fatalf("pos-order follow-up: executed %d sorts (cold %d), want 1 (2): %s",
			stats.SortPasses, stats.ColdSortPasses, stats.Plan)
	}

	// The skip is visible in Explain against the carried token.
	plan, err := ExplainTable(agg, Query{GroupBy: AggMax, KeyOrderOut: true})
	if err != nil {
		t.Fatal(err)
	}
	if want := "in(key,pos) → aggregate [0 sorts, cold 1, staged 2]"; plan != want {
		t.Fatalf("ExplainTable = %q, want %q", plan, want)
	}
}

// TestSessionParallelPoolReuse drives a ModeParallel session (persistent
// work-stealing pool) through mixed shapes, including a join, and checks
// rows against the serial one-shot reference.
func TestSessionParallelPoolReuse(t *testing.T) {
	rows := queryRows(300)
	tab, err := NewTable(rows)
	if err != nil {
		t.Fatal(err)
	}
	dim, err := NewTable([]Row{{Key: 1, Val: 10}, {Key: 3, Val: 30}, {Key: 5, Val: 50}, {Key: 3, Val: 31}})
	if err != nil {
		t.Fatal(err)
	}
	sess := NewSession(Config{Mode: ModeParallel, Workers: 2})
	defer sess.Close()
	queries := []Query{
		{GroupBy: AggSum},
		{Distinct: true, TopK: 4},
		{Join: &JoinSpec{Left: dim, MaxOut: 2048}, GroupBy: AggCount},
		{Filter: func(r Row) bool { return r.Key%2 == 1 }, FilterKeyOnly: true, GroupBy: AggSum, KeyOrderOut: true},
	}
	for i, q := range queries {
		want, _, err := RunQuery(Config{Mode: ModeSerial}, tab, q)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := sess.RunQuery(tab, q)
		if err != nil {
			t.Fatal(err)
		}
		gr, wr := got.Rows(), want.Rows()
		if q.KeyOrderOut {
			wr = keySorted(wr)
		}
		if len(gr) != len(wr) {
			t.Fatalf("query %d: %d rows, want %d", i, len(gr), len(wr))
		}
		for j := range wr {
			if gr[j] != wr[j] {
				t.Fatalf("query %d row %d = %v, want %v", i, j, gr[j], wr[j])
			}
		}
	}
}

func TestSessionClosed(t *testing.T) {
	sess := NewSession(Config{Mode: ModeSerial})
	sess.Close()
	sess.Close() // idempotent
	tab, err := NewTable([]Row{{Key: 1, Val: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sess.RunQuery(tab, Query{Distinct: true}); err == nil {
		t.Fatal("RunQuery on a closed session must fail")
	}
}
