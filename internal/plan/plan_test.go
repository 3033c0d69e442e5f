package plan

import "testing"

// shapes enumerates all 16 stage combinations (plus key-only variants where
// a filter is present).
func shapes() []Shape {
	var out []Shape
	for _, f := range []bool{false, true} {
		for _, d := range []bool{false, true} {
			for _, g := range []bool{false, true} {
				for _, k := range []int{0, 5} {
					out = append(out, Shape{Filter: f, Distinct: d, GroupBy: g, Agg: 0, TopK: k})
					if f {
						out = append(out, Shape{Filter: f, FilterKeyOnly: true, Distinct: d, GroupBy: g, Agg: 0, TopK: k})
					}
				}
			}
		}
	}
	return out
}

func TestPlansNeverBeatenByStaged(t *testing.T) {
	for _, s := range shapes() {
		p := Build(s)
		if p.SortPasses > p.StagedSortPasses {
			t.Errorf("shape %+v: fused plan uses %d sorts, staged only %d (%s)", s, p.SortPasses, p.StagedSortPasses, p)
		}
	}
}

func TestMultiStagePlansSaveSorts(t *testing.T) {
	// Any shape with >= 2 stages must run strictly fewer sorts than the
	// staged baseline — that is the planner's whole point.
	for _, s := range shapes() {
		stages := 0
		for _, b := range []bool{s.Filter, s.Distinct, s.GroupBy, s.TopK > 0} {
			if b {
				stages++
			}
		}
		if stages < 2 {
			continue
		}
		p := Build(s)
		if p.SortPasses >= p.StagedSortPasses {
			t.Errorf("shape %+v: fused %d sorts >= staged %d (%s)", s, p.SortPasses, p.StagedSortPasses, p)
		}
	}
}

func TestFullPipelinePlan(t *testing.T) {
	// The benchmark pipeline Filter→Distinct→GroupBy→TopK: 6 staged sorts
	// collapse to 2 (one key sort feeding the fused dedup+aggregate, one
	// value sort feeding top-k).
	p := Build(Shape{Filter: true, Distinct: true, GroupBy: true, Agg: 1, TopK: 3})
	if p.SortPasses != 2 || p.StagedSortPasses != 6 {
		t.Fatalf("full pipeline: sorts = %d (staged %d), want 2 (6): %s", p.SortPasses, p.StagedSortPasses, p)
	}
	if p.Output != OrderValDesc {
		t.Fatalf("full pipeline output order = %v, want %v", p.Output, OrderValDesc)
	}
	want := []OpKind{OpFilterMark, OpSortKey, OpDedupAggregate, OpSortValDesc, OpTopK}
	if len(p.Ops) != len(want) {
		t.Fatalf("ops = %s, want kinds %v", p, want)
	}
	for i, k := range want {
		if p.Ops[i].Kind != k {
			t.Fatalf("op %d = %v, want %v (%s)", i, p.Ops[i].Kind, k, p)
		}
	}
}

func TestKeyOnlyFilterPushdown(t *testing.T) {
	p := Build(Shape{Filter: true, FilterKeyOnly: true, GroupBy: true, Agg: 0})
	for _, op := range p.Ops {
		if op.Kind == OpFilterMark {
			t.Fatalf("key-only filter not pushed below group-by: %s", p)
		}
	}
	found := false
	for _, op := range p.Ops {
		if op.Kind == OpAggregate && op.WithFilter {
			found = true
		}
	}
	if !found {
		t.Fatalf("pushed filter not merged into aggregate pass: %s", p)
	}
}

func TestSingleStagePlansMatchSeedCosts(t *testing.T) {
	cases := []struct {
		s     Shape
		sorts int
		out   Order
	}{
		{Shape{Filter: true}, 1, OrderPos},
		{Shape{Distinct: true}, 2, OrderPos},
		{Shape{GroupBy: true}, 2, OrderPos},
		{Shape{TopK: 4}, 1, OrderValDesc},
		{Shape{}, 0, OrderInput},
	}
	for _, tc := range cases {
		p := Build(tc.s)
		if p.SortPasses != tc.sorts || p.Output != tc.out {
			t.Errorf("shape %+v: %d sorts / output %v, want %d / %v (%s)",
				tc.s, p.SortPasses, p.Output, tc.sorts, tc.out, p)
		}
	}
}

// TestShapeOnlyDeterminism pins the planner contract: equal shapes yield
// identical plans (Build takes nothing else, so this guards against future
// signature drift more than current behavior).
func TestShapeOnlyDeterminism(t *testing.T) {
	for _, s := range shapes() {
		a, b := Build(s), Build(s)
		if a.String() != b.String() {
			t.Fatalf("shape %+v: plans differ: %s vs %s", s, a, b)
		}
	}
}

// TestKeyColsNeverChangeThePlan pins the width-awareness contract: the
// key-column count selects schedule widths, never passes — every shape
// compiles to the same op sequence and sort counts at width 1 and 2, and
// width 1 renders exactly as the single-word planner always has.
func TestKeyColsNeverChangeThePlan(t *testing.T) {
	for _, s := range shapes() {
		narrow := Build(s)
		wide := s
		wide.KeyCols = 2
		w := Build(wide)
		if len(w.Ops) != len(narrow.Ops) || w.SortPasses != narrow.SortPasses ||
			w.StagedSortPasses != narrow.StagedSortPasses || w.Output != narrow.Output {
			t.Fatalf("shape %+v: width changed the plan: %s vs %s", s, narrow, w)
		}
		for i := range w.Ops {
			if w.Ops[i] != narrow.Ops[i] {
				t.Fatalf("shape %+v: op %d differs across widths", s, i)
			}
		}
	}
	p := Build(Shape{KeyCols: 2, Distinct: true, GroupBy: true, Agg: 4, TopK: 3})
	if want := "sort(key×2,pos) → dedup+aggregate → sort(val↓) → topk [2 sorts, staged 5]"; p.String() != want {
		t.Fatalf("wide rendering = %q, want %q", p, want)
	}
	n := Build(Shape{Distinct: true, GroupBy: true, Agg: 4, TopK: 3})
	if want := "sort(key,pos) → dedup+aggregate → sort(val↓) → topk [2 sorts, staged 5]"; n.String() != want {
		t.Fatalf("narrow rendering = %q, want %q", n, want)
	}
}

// ordersAndShapes crosses every stage combination with every input-order
// token and both output modes — the cross-query planning space.
func ordersAndShapes() []Shape {
	var out []Shape
	for _, base := range shapes() {
		for _, in := range []Order{OrderInput, OrderPos, OrderKeyPos, OrderValDesc} {
			for _, ko := range []bool{false, true} {
				s := base
				s.InputOrder = in
				s.KeyOrderOut = ko
				out = append(out, s)
			}
		}
	}
	return out
}

func TestInputOrderNeverIncreasesSorts(t *testing.T) {
	for _, s := range ordersAndShapes() {
		p := Build(s)
		cold := s
		cold.InputOrder = OrderInput
		if want := Build(cold).SortPasses; p.ColdSortPasses != want {
			t.Errorf("shape %+v: ColdSortPasses = %d, want the cold build's %d", s, p.ColdSortPasses, want)
		}
		if p.SortPasses > p.ColdSortPasses {
			t.Errorf("shape %+v: token plan runs %d sorts, cold only %d (%s)", s, p.SortPasses, p.ColdSortPasses, p)
		}
	}
}

func TestInputOrderSkipsFirstSort(t *testing.T) {
	cases := []struct {
		name        string
		s           Shape
		sorts, cold int
	}{
		// A key-ordered input feeds Distinct/GroupBy without their key sort.
		{"distinct", Shape{Distinct: true, InputOrder: OrderKeyPos}, 1, 2},
		{"groupby", Shape{GroupBy: true, Agg: 1, InputOrder: OrderKeyPos}, 1, 2},
		// With KeyOrderOut the compaction goes too: a zero-sort aggregate.
		{"distinct/keyout", Shape{Distinct: true, InputOrder: OrderKeyPos, KeyOrderOut: true}, 0, 1},
		{"groupby/keyout", Shape{GroupBy: true, Agg: 1, InputOrder: OrderKeyPos, KeyOrderOut: true}, 0, 1},
		// A key-only filter pushes below the group stage, so it does not
		// break the contiguity the token needs.
		{"keyfilter+groupby/keyout", Shape{Filter: true, FilterKeyOnly: true, GroupBy: true, Agg: 1, InputOrder: OrderKeyPos, KeyOrderOut: true}, 0, 1},
		// A value-ordered input feeds TopK without its value sort.
		{"topk", Shape{TopK: 3, InputOrder: OrderValDesc}, 0, 1},
		// Wrong token: no skip.
		{"topk/wrong-token", Shape{TopK: 3, InputOrder: OrderKeyPos}, 1, 1},
	}
	for _, tc := range cases {
		p := Build(tc.s)
		if p.SortPasses != tc.sorts || p.ColdSortPasses != tc.cold {
			t.Errorf("%s: sorts = %d (cold %d), want %d (%d): %s",
				tc.name, p.SortPasses, p.ColdSortPasses, tc.sorts, tc.cold, p)
		}
	}
}

func TestMarkPassBreaksContiguityForGroupStages(t *testing.T) {
	// A non-key-only filter interleaves fillers among the key-sorted real
	// records; dedup needs contiguous key groups, so the key sort must
	// come back even though the token matches.
	s := Shape{Filter: true, Distinct: true, InputOrder: OrderKeyPos}
	p := Build(s)
	found := false
	for _, op := range p.Ops {
		if op.Kind == OpSortKey {
			found = true
		}
	}
	if !found {
		t.Fatalf("filter-mark + distinct over a key-ordered input must re-sort: %s", p)
	}
	if p.SortPasses != p.ColdSortPasses {
		t.Fatalf("no skip expected: %d vs cold %d (%s)", p.SortPasses, p.ColdSortPasses, p)
	}
}

func TestKeyOrderOutDropsCompaction(t *testing.T) {
	plain := Build(Shape{GroupBy: true, Agg: 1})
	keyed := Build(Shape{GroupBy: true, Agg: 1, KeyOrderOut: true})
	if plain.SortPasses != 2 || keyed.SortPasses != 1 {
		t.Fatalf("groupby: plain %d sorts, keyout %d, want 2 and 1 (%s / %s)",
			plain.SortPasses, keyed.SortPasses, plain, keyed)
	}
	if keyed.Output != OrderKeyPos {
		t.Fatalf("keyout output token = %v, want OrderKeyPos", keyed.Output)
	}
	// TopK's public order is descending value; KeyOrderOut is ignored.
	tk := Build(Shape{TopK: 5})
	tko := Build(Shape{TopK: 5, KeyOrderOut: true})
	if tk.String() != tko.String() || tko.Output != OrderValDesc {
		t.Fatalf("topk must ignore KeyOrderOut: %s vs %s (output %v)", tk, tko, tko.Output)
	}
}

func TestOrderPosInputIsNoToken(t *testing.T) {
	// Positions renumber on reload, so OrderPos carries no information:
	// plans must match the cold build exactly.
	for _, base := range shapes() {
		s := base
		s.InputOrder = OrderPos
		cold := base
		cold.InputOrder = OrderInput
		if got, want := Build(s).String(), Build(cold).String(); got != want {
			t.Errorf("shape %+v: OrderPos input planned %q, cold plans %q", base, got, want)
		}
	}
}

// TestStagedPlans pins BuildStaged against Build: for every shape, input
// order and output mode, with and without a join, the staged plan costs
// exactly Build's StagedSortPasses, stays cold (the input order never
// removes a sort) and delivers the fused plan's output order; a
// single-stage cold shape compiles to the same passes either way.
func TestStagedPlans(t *testing.T) {
	for _, base := range ordersAndShapes() {
		for _, join := range []bool{false, true} {
			s := base
			s.Join = join
			fused, staged := Build(s), BuildStaged(s)
			if staged.SortPasses != fused.StagedSortPasses || staged.StagedSortPasses != staged.SortPasses ||
				staged.ColdSortPasses != staged.SortPasses {
				t.Fatalf("shape %+v: staged %d sorts (staged %d, cold %d), Build says staged %d (%s)",
					s, staged.SortPasses, staged.StagedSortPasses, staged.ColdSortPasses, fused.StagedSortPasses, staged)
			}
			cold := s
			cold.InputOrder = OrderInput
			if c := BuildStaged(cold); c.SortPasses != staged.SortPasses {
				t.Fatalf("shape %+v: staged plan skipped a sort on its input order (%d vs cold %d)", s, staged.SortPasses, c.SortPasses)
			}
			if staged.Output != fused.Output {
				t.Fatalf("shape %+v: staged output %v, fused %v", s, staged.Output, fused.Output)
			}
			stages := 0
			for _, b := range []bool{s.Join, s.Filter, s.Distinct, s.GroupBy, s.TopK > 0} {
				if b {
					stages++
				}
			}
			if stages == 1 && !s.KeyOrderOut && s.InputOrder == OrderInput && staged.String() != fused.String() {
				t.Fatalf("single-stage shape %+v: staged %s, fused %s", s, staged, fused)
			}
		}
	}

	full := Shape{Filter: true, Distinct: true, GroupBy: true, Agg: 1, TopK: 3}
	if got, want := BuildStaged(full).String(),
		"filter-mark → compact(pos) → sort(key,pos) → dedup → compact(pos) → sort(key,pos) → aggregate → compact(pos) → sort(val↓) → topk [6 sorts, staged 6]"; got != want {
		t.Fatalf("staged full pipeline = %q, want %q", got, want)
	}
	keyOut := Shape{Filter: true, GroupBy: true, KeyOrderOut: true}
	if got, want := BuildStaged(keyOut).String(),
		"filter-mark → compact(pos) → sort(key,pos) → aggregate → sort(key,pos) [3 sorts, staged 3]"; got != want {
		t.Fatalf("staged key-ordered pipeline = %q, want %q", got, want)
	}
}
