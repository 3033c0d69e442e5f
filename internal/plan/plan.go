// Package plan is the sort-fusion query planner for the oblivious
// relational engine (internal/relops). It rewrites a declarative pipeline
// of logical stages (JoinAll → Filter → Distinct → GroupBy → TopK) into a
// sequence of physical passes that runs strictly fewer O(n log² n)
// sorting-network passes than executing the stages one operator at a time.
// That one-operator-at-a-time execution is itself a plan (BuildStaged),
// so the fused and the staged pipelines share one executor,
// relops.Execute, and differ only in which passes they list.
// The join stage is binary and therefore executed by the query layer
// (which holds both relations), but it is planned here: its sort-pass
// accounting and its rule-1 fusion — dropping the join's propagate+compact
// tail whenever a later stage re-sorts — are planner decisions rendered by
// Explain like every other fusion opportunity.
//
// Obliviousness: every planner decision is a pure function of the *query
// shape* — which stages are present, the aggregation kind, k, and the
// declared key-only-ness of the filter — never of the relation contents.
// The physical passes themselves are data-independent primitives (sorting
// networks, segmented scans, fixed elementwise passes), so a planned pipeline's trace remains a function of
// the relation size and the public query shape only. Rewriting *which*
// sorts run is safe precisely because comparator schedules are
// data-independent (the property the paper's §E.1 bitonic construction and
// Batcher's networks provide): dropping or merging a sorting pass changes
// the trace as a function of the shape, not of the data.
//
// The same order token crosses queries (the cross-query planner of the
// serving layer): Shape.InputOrder declares the order the input relation
// already carries — the Output token of the query that materialized it,
// stamped on the public Table — and Build skips the pipeline's first sort
// when the declared order is the one that sort would establish. The token
// is itself a pure function of the producing query's shape, so feeding it
// forward keeps every planner decision, and hence the trace, a function of
// public query shapes only: result caching and order chaining add no
// trace leakage.
//
// The three rewrite rules, expressed over a "sorted-by" order token carried
// on the intermediate relation:
//
//  1. Compaction deferral. A stage that merely marks its victims (Filter,
//     the duplicate-drop of Distinct, the non-head drop of GroupBy) does
//     not need its own compaction sort when a later stage re-sorts the
//     relation anyway: victims become fillers in place (one fixed
//     elementwise pass, zero sorts) and the next sort carries them to the
//     tail. Only the *last* stage pays a compaction sort, and only when the
//     pipeline's output order demands it.
//
//  2. Sort fusion. Adjacent stages that need the same key order share one
//     sort: Distinct immediately followed by GroupBy runs a single
//     (key, position) sort and a single combined dedup+aggregate pass.
//
//  3. Filter pushdown. A filter declared key-only commutes with Distinct
//     and GroupBy (it drops whole key groups, so neither the surviving
//     heads nor the group aggregates change); the planner pushes it below
//     them and merges its predicate into their existing elementwise pass,
//     eliminating the filter's own pass altogether.
package plan

import "fmt"

// Order is the public "sorted-by" token tracked on the intermediate
// relation: it describes the relative order of the *real* records (fillers
// are interchangeable padding — a sort keyed to send them to the tail
// restores contiguity without disturbing real-record order).
type Order uint8

const (
	// OrderInput — original input order (positions 0..n), fillers anywhere.
	OrderInput Order = iota
	// OrderPos — survivors at the front, ascending original position,
	// fillers at the tail (the operators' public output order).
	OrderPos
	// OrderKeyPos — ascending (key, original position); fillers possibly
	// interleaved where dropped records sat.
	OrderKeyPos
	// OrderValDesc — descending value; fillers at the tail.
	OrderValDesc
)

// String implements fmt.Stringer.
func (o Order) String() string {
	switch o {
	case OrderInput:
		return "input"
	case OrderPos:
		return "pos"
	case OrderKeyPos:
		return "key,pos"
	case OrderValDesc:
		return "val↓"
	}
	return fmt.Sprintf("order(%d)", uint8(o))
}

// Shape is the public shape of a query: exactly the information the
// adversary already holds. Build's output is a deterministic function of a
// Shape and nothing else.
type Shape struct {
	// KeyCols is the relation's key-column count (0 is treated as 1). The
	// width is public schema, not data: it selects how many words the key
	// sorts' schedules carry — (key columns..., position) — and nothing
	// else. Widening the key never changes which passes run or how many
	// sorts the plan costs, so width-1 queries keep the exact pass
	// sequence (and sort-pass count) of the single-word planner.
	KeyCols int
	// Join reports whether a many-to-many equi-join stage feeds the unary
	// pipeline (the queried table is the join's right side; the output
	// capacity is execution shape the planner never needs).
	Join bool
	// Filter reports whether a filter stage is present.
	Filter bool
	// FilterKeyOnly declares the filter predicate a function of the key
	// alone, enabling pushdown below Distinct/GroupBy.
	FilterKeyOnly bool
	// Distinct reports whether a distinct stage is present.
	Distinct bool
	// GroupBy reports whether a group-by stage is present; Agg then holds
	// the aggregation kind (an opaque code forwarded to the executor).
	GroupBy bool
	Agg     uint8
	// TopK > 0 keeps only the k largest-value rows.
	TopK int
	// InputOrder is the "sorted-by" token the input relation already
	// carries: the Output token of the query that materialized it, fed
	// forward across the public boundary (OrderInput — the zero value —
	// means no known order; OrderPos is equivalent, since reloading
	// renumbers positions to the stored order). It is public shape: the
	// token is a function of the producing query's shape, never of data.
	// Build skips the pipeline's first sort when InputOrder is exactly the
	// order that sort would establish and no earlier mark pass has
	// interleaved fillers among the real records.
	InputOrder Order
	// KeyOrderOut requests the result in ascending (key tuple, position)
	// order — OrderKeyPos — instead of the operators' original-position
	// output order. For shapes whose last dropping stage is Distinct or
	// GroupBy the relation is already key-sorted there, so the
	// position-restoring compaction sort disappears entirely; other shapes
	// pay one key sort in place of the compaction sort. TopK shapes ignore
	// it (their public order is descending value). This is the serving
	// layer's materialization mode: the saved sort compounds with
	// InputOrder on the next query over the stored result.
	KeyOrderOut bool
}

// OpKind enumerates the physical passes of the fused execution.
type OpKind uint8

const (
	// OpFilterMark drops records failing the predicate to fillers in one
	// fixed elementwise pass. No sort; preserves real-record order.
	OpFilterMark OpKind = iota
	// OpSortKey sorts by (key, original position), fillers last. One sort.
	OpSortKey
	// OpDedup marks key-group heads and drops duplicates to fillers
	// (requires OrderKeyPos with contiguous key groups). No sort.
	OpDedup
	// OpAggregate runs the segmented aggregate, installs each group's
	// aggregate on its head and drops non-heads to fillers (requires
	// OrderKeyPos with contiguous key groups). No sort.
	OpAggregate
	// OpDedupAggregate is the fused Distinct→GroupBy pass: group heads
	// survive carrying the singleton aggregate of the deduplicated
	// relation. No sort.
	OpDedupAggregate
	// OpSortValDesc sorts by descending value, fillers last. One sort.
	OpSortValDesc
	// OpTopK drops records of oblivious rank > k to fillers (requires
	// OrderValDesc). No sort.
	OpTopK
	// OpCompactPos restores the public output order: survivors to the
	// front by original position, fillers to the tail. One sort.
	OpCompactPos
	// OpJoinAll is the many-to-many expansion join feeding the unary
	// pipeline (relops.JoinAll; executed by the query layer, which holds
	// both relations — the fused executor rejects it). Three sorts
	// stand-alone (the expansion rides the interleave sort's order through
	// a bitonic merge rather than sorting again); with Deferred set, the
	// join's value-propagation and output-compaction sorts are dropped
	// (rule 1 applied to the join's propagate+compact tail) and it costs
	// one.
	OpJoinAll
)

// String implements fmt.Stringer.
func (k OpKind) String() string {
	switch k {
	case OpFilterMark:
		return "filter-mark"
	case OpSortKey:
		return "sort(key,pos)"
	case OpDedup:
		return "dedup"
	case OpAggregate:
		return "aggregate"
	case OpDedupAggregate:
		return "dedup+aggregate"
	case OpSortValDesc:
		return "sort(val↓)"
	case OpTopK:
		return "topk"
	case OpCompactPos:
		return "compact(pos)"
	case OpJoinAll:
		return "join-all"
	}
	return fmt.Sprintf("op(%d)", uint8(k))
}

// Op is one physical pass.
type Op struct {
	Kind OpKind
	// Agg is the aggregation code for OpAggregate / OpDedupAggregate.
	Agg uint8
	// K is the rank cutoff for OpTopK.
	K int
	// WithFilter merges the (key-only) filter predicate into this pass's
	// elementwise survivor test (rewrite rule 3).
	WithFilter bool
	// Deferred drops OpJoinAll's value-propagation and output-compaction
	// sorts: a later stage re-sorts the relation anyway, so the join may
	// leave its matches scattered among fillers (rewrite rule 1).
	Deferred bool
}

// Plan is the physical pass sequence for one query, plus the public
// bookkeeping the tests and tools assert on.
type Plan struct {
	Ops []Op
	// KeyCols is the key-column count the key sorts' schedules carry
	// (>= 1; copied from the shape).
	KeyCols int
	// SortPasses counts the full sorting-network passes the plan runs.
	SortPasses int
	// StagedSortPasses counts the sorts the same shape costs when executed
	// one operator at a time (BuildStaged — the pre-planner baseline).
	StagedSortPasses int
	// ColdSortPasses counts the sorts the same shape plans with no input
	// order token (InputOrder = OrderInput) — the cold-plan baseline the
	// cross-query savings are measured against.
	ColdSortPasses int
	// Input is the input order token the plan was built against (copied
	// from the shape; rendered by String when non-trivial).
	Input Order
	// Output is the order token of the result relation.
	Output Order
}

// String renders the pass sequence, e.g.
// "filter-mark → sort(key,pos) → aggregate → sort(val↓) → topk [2 sorts]";
// multi-column shapes render their key sorts with the column count, e.g.
// "sort(key×2,pos)". Width-1 plans render exactly as the single-word
// planner always has.
func (p Plan) String() string {
	s := ""
	for i, op := range p.Ops {
		if i > 0 {
			s += " → "
		}
		if op.Kind == OpSortKey && p.KeyCols > 1 {
			s += fmt.Sprintf("sort(key×%d,pos)", p.KeyCols)
		} else {
			s += op.Kind.String()
		}
		if op.WithFilter {
			s += "+filter"
		}
		if op.Deferred {
			s += "+defer"
		}
	}
	if s == "" {
		s = "identity"
	}
	if p.Input != OrderInput && p.Input != OrderPos {
		s = fmt.Sprintf("in(%s) → %s", p.Input, s)
	}
	if p.ColdSortPasses > p.SortPasses {
		return fmt.Sprintf("%s [%d sorts, cold %d, staged %d]",
			s, p.SortPasses, p.ColdSortPasses, p.StagedSortPasses)
	}
	return fmt.Sprintf("%s [%d sorts, staged %d]", s, p.SortPasses, p.StagedSortPasses)
}

// Join-stage sort costs: the stand-alone operator's three sorting passes
// (key sort — whose order the bitonic-merge expansion reuses in place of
// the old distribution sort — left-index sort, output compaction) and the
// one that remains once deferral drops the propagate+compact tail.
const (
	joinSorts         = 3
	joinSortsDeferred = 1
)

// SortCost is the number of full sorting-network passes op runs.
func (op Op) SortCost() int {
	switch {
	case op.Kind == OpJoinAll && op.Deferred:
		return joinSortsDeferred
	case op.Kind == OpJoinAll:
		return joinSorts
	case op.Kind == OpSortKey || op.Kind == OpSortValDesc || op.Kind == OpCompactPos:
		return 1
	}
	return 0
}

// Build compiles a query shape into its fused physical plan. It is a pure
// function of s: two queries of equal shape get identical plans regardless
// of their table contents, which is what keeps the planned trace a function
// of (relation size, query shape) only — InputOrder and KeyOrderOut are
// part of the shape, so order chaining across queries preserves that
// property.
func Build(s Shape) Plan {
	var ops []Op
	keyCols := s.KeyCols
	if keyCols < 1 {
		keyCols = 1
	}

	// cur tracks the relative order of the real records; contiguous tracks
	// whether they sit packed at the front with fillers only at the tail
	// (how Load delivers every relation). The group passes (dedup,
	// aggregate) need both: a filler interleaved by an earlier mark pass
	// would split a key group, so an input order token is only honored
	// while contiguity holds.
	cur := s.InputOrder
	if cur == OrderPos {
		// Reloading renumbers positions to the stored order, so a
		// position-ordered result reloads as plain input order.
		cur = OrderInput
	}
	contiguous := true

	if s.Join {
		// The join feeds the unary stages. Whenever any later stage is
		// present, that stage (or the pipeline's final compaction) sorts
		// the relation again, so the join's value-propagation and
		// output-compaction sorts are deferred away (rule 1 applied to the
		// join's tail): matches stay scattered among fillers and the next
		// sort restores contiguity. A join with nothing after it pays
		// all three of its sorts and establishes the output order itself. The
		// expansion scrambles the right side either way, so any input
		// token dies here.
		deferred := s.Filter || s.Distinct || s.GroupBy || s.TopK > 0
		ops = append(ops, Op{Kind: OpJoinAll, Deferred: deferred})
		if deferred {
			// Scattered matches: no order token holds (the copies of one
			// right record even share a position).
			cur = OrderInput
			contiguous = false
		} else {
			cur = OrderPos
		}
	}

	// Rule 3: a key-only filter below a Distinct/GroupBy stage merges into
	// that stage's elementwise pass.
	pushFilter := s.Filter && s.FilterKeyOnly && (s.Distinct || s.GroupBy)
	if s.Filter && !pushFilter {
		// Rule 1: mark only; a later sort (or the final compaction) carries
		// the dropped records to the tail. Marking keeps the real records'
		// relative order but interleaves fillers where victims sat.
		ops = append(ops, Op{Kind: OpFilterMark})
		contiguous = false
	}

	if s.Distinct || s.GroupBy {
		if cur != OrderKeyPos || !contiguous {
			ops = append(ops, Op{Kind: OpSortKey})
			cur = OrderKeyPos
			contiguous = true
		}
		switch {
		case s.Distinct && s.GroupBy:
			// Rule 2: one sort, one combined pass.
			ops = append(ops, Op{Kind: OpDedupAggregate, Agg: s.Agg, WithFilter: pushFilter})
		case s.Distinct:
			ops = append(ops, Op{Kind: OpDedup, WithFilter: pushFilter})
		default:
			ops = append(ops, Op{Kind: OpAggregate, Agg: s.Agg, WithFilter: pushFilter})
		}
		// Victims became fillers in place: real records remain key-sorted.
		contiguous = false
	}

	if s.TopK > 0 {
		if cur != OrderValDesc || !contiguous {
			ops = append(ops, Op{Kind: OpSortValDesc})
			cur = OrderValDesc
			contiguous = true
		}
		ops = append(ops, Op{Kind: OpTopK, K: s.TopK})
		contiguous = false
	}

	// Output-order restoration (rule 1's deferred compaction): TopK's
	// public order is descending value, already established; every other
	// stage promises survivors in original order at the front — or, under
	// KeyOrderOut, in key order, which a shape ending in Distinct/GroupBy
	// already holds with no sort at all (Unload skips fillers, so
	// interleaved fillers cost nothing at the public boundary).
	output := cur
	if s.TopK == 0 && (s.Filter || s.Distinct || s.GroupBy) {
		switch {
		case s.KeyOrderOut && cur == OrderKeyPos:
			output = OrderKeyPos
		case s.KeyOrderOut:
			ops = append(ops, Op{Kind: OpSortKey})
			output = OrderKeyPos
		case cur != OrderPos || !contiguous:
			ops = append(ops, Op{Kind: OpCompactPos})
			output = OrderPos
		default:
			output = OrderPos
		}
	}

	p := Plan{Ops: ops, KeyCols: keyCols, StagedSortPasses: BuildStaged(s).SortPasses,
		Input: s.InputOrder, Output: output}
	for _, op := range ops {
		p.SortPasses += op.SortCost()
	}
	p.ColdSortPasses = p.SortPasses
	if s.InputOrder != OrderInput && s.InputOrder != OrderPos {
		cold := s
		cold.InputOrder = OrderInput
		p.ColdSortPasses = Build(cold).SortPasses
	}
	return p
}

// BuildStaged compiles a query shape into its staged plan: every stage
// runs as its own operator, paying its own sorts — the pre-fusion baseline
// Query.NoOptimize selects for A/B benchmarking and differential testing.
// The stages are
//
//	join-all → filter-mark → compact(pos)
//	         → sort(key,pos) → dedup → compact(pos)
//	         → sort(key,pos) → aggregate → compact(pos)
//	         → sort(val↓) → topk
//
// with each absent stage dropped (JoinAll 3 sorts, Filter 1, Distinct 2,
// GroupBy 2, TopK 1). A staged plan stays cold — it never skips a sort on
// the strength of InputOrder — and under KeyOrderOut (without TopK) the last
// filter/distinct/group-by stage ends in sort(key,pos) instead of
// compact(pos), so it delivers the same order the fused plan does. Like
// Build it is a pure function of s.
func BuildStaged(s Shape) Plan {
	keyCols := s.KeyCols
	if keyCols < 1 {
		keyCols = 1
	}
	out := s.InputOrder
	if out == OrderPos {
		out = OrderInput
	}
	var ops []Op
	if s.Join {
		ops = append(ops, Op{Kind: OpJoinAll})
		out = OrderPos
	}
	// compact ends a filter/distinct/group-by stage; last marks the final
	// one, which restores the requested output order.
	compact := func(last bool) {
		if last && s.KeyOrderOut && s.TopK == 0 {
			ops = append(ops, Op{Kind: OpSortKey})
			out = OrderKeyPos
			return
		}
		ops = append(ops, Op{Kind: OpCompactPos})
		out = OrderPos
	}
	if s.Filter {
		ops = append(ops, Op{Kind: OpFilterMark})
		compact(!s.Distinct && !s.GroupBy)
	}
	if s.Distinct {
		ops = append(ops, Op{Kind: OpSortKey}, Op{Kind: OpDedup})
		compact(!s.GroupBy)
	}
	if s.GroupBy {
		ops = append(ops, Op{Kind: OpSortKey}, Op{Kind: OpAggregate, Agg: s.Agg})
		compact(true)
	}
	if s.TopK > 0 {
		ops = append(ops, Op{Kind: OpSortValDesc}, Op{Kind: OpTopK, K: s.TopK})
		out = OrderValDesc
	}
	p := Plan{Ops: ops, KeyCols: keyCols, Input: s.InputOrder, Output: out}
	for _, op := range ops {
		p.SortPasses += op.SortCost()
	}
	p.StagedSortPasses = p.SortPasses
	p.ColdSortPasses = p.SortPasses
	return p
}
