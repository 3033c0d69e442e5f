package oblivmc

import (
	"errors"
	"fmt"

	"oblivmc/internal/bitonic"
	"oblivmc/internal/core"
	"oblivmc/internal/forkjoin"
	"oblivmc/internal/mem"
	"oblivmc/internal/obliv"
	"oblivmc/internal/plan"
	"oblivmc/internal/relops"
)

// relSorter resolves cfg's relational sort backend to a fresh scheduled
// sorter. The shuffle backend is stateful (its sort counter and scratch
// cache), so exactly one instance must serve a run: construct it once at
// the run's entry point (or once per Session) and thread it through to the
// stages — never construct per stage. Selection — and, for SortAuto, the
// per-sort size crossover inside the shuffle sorter — is a function of
// public shape only.
func relSorter(cfg Config) obliv.ScheduledSorter {
	switch cfg.SortBackend {
	case SortBitonic:
		return bitonic.CacheAgnostic{}
	case SortShuffle:
		return &core.ShuffleSorter{FixedSeed: shuffleSeed(cfg), Crossover: 2}
	default:
		return &core.ShuffleSorter{FixedSeed: shuffleSeed(cfg), Crossover: cfg.SortCrossover}
	}
}

// shuffleSeed resolves the shuffle backend's seeding mode: nil — a fresh
// crypto/rand secret per sort, the mode the Theorem 3.2 guarantee assumes
// — unless cfg opts into Seed-derived reproducible traces.
func shuffleSeed(cfg Config) *uint64 {
	if !cfg.DeterministicShuffle {
		return nil
	}
	s := cfg.Seed
	return &s
}

// Typed boundary errors of the Table API. They wrap the corresponding
// internal/relops errors, so errors.Is matches across both layers, and
// their messages are derived from the active relops constants so they can
// never drift from the enforced bounds.
var (
	// ErrKeyTooLarge is returned for a row key column >= relops.KeyLimit
	// (the filler sentinel; every value below it is a legal key).
	ErrKeyTooLarge = fmt.Errorf("oblivmc: row key column exceeds max key %d: %w",
		uint64(relops.KeyLimit-1), relops.ErrKeyTooLarge)
	// ErrTooManyRows is returned for a table of more than relops.MaxRows
	// rows.
	ErrTooManyRows = fmt.Errorf("oblivmc: table exceeds %d rows: %w",
		uint64(relops.MaxRows), relops.ErrTooManyRows)
	// ErrBadWidth is returned for a key-column count outside
	// [1, relops.MaxKeyCols] or rows of unequal widths.
	ErrBadWidth = fmt.Errorf("oblivmc: key-column count must be in [1, %d] and uniform: %w",
		relops.MaxKeyCols, relops.ErrBadWidth)
	// ErrBadCapacity is returned for a join output capacity (maxOut)
	// outside [1, relops.MaxRows].
	ErrBadCapacity = fmt.Errorf("oblivmc: join output capacity must be in [1, %d] rows: %w",
		uint64(relops.MaxRows), relops.ErrBadCapacity)
	// ErrJoinOverflow is returned when a join's true match count exceeds
	// the declared public output capacity; the wrapped message carries the
	// count a retry needs.
	ErrJoinOverflow = fmt.Errorf("oblivmc: join match count exceeds the declared output capacity: %w",
		relops.ErrJoinOverflow)
	// ErrCapTooLarge is returned by a JoinCapAuto join whose advised
	// worst-case bound exceeds relops.MaxRows: no legal capacity can hold
	// the result, so the inputs must shrink rather than the capacity grow.
	ErrCapTooLarge = fmt.Errorf("oblivmc: advised join capacity exceeds %d rows: %w",
		uint64(relops.MaxRows), relops.ErrCapTooLarge)
)

// JoinCapAuto, passed as a join's maxOut (JoinSpec.MaxOut or JoinAllRows),
// asks the engine to size the output with the capacity advisor
// (relops.JoinCapAdvise): the worst-case match bound Σ over key groups of
// |left group|·|right group|, computed obliviously inside the same run (one
// extra sorting pass) and then used as the public capacity — so the join
// can never overflow and the guess-retry loop disappears. The advised
// bound becomes public shape exactly like a hand-picked maxOut: callers
// opt into revealing the worst-case match bound, never the true count.
const JoinCapAuto = -1

// Row is one single-key-column (key, value) record of a Table.
type Row struct {
	Key, Val uint64
}

// WideRow is one multi-column (keys..., value) record of a Table. Keys
// holds the key columns in significance order (column 0 sorts first); all
// rows of a table must declare the same number of columns.
type WideRow struct {
	Keys []uint64
	Val  uint64
}

// TableOrder is the public "sorted-by" token a Table carries across
// queries — the cross-query planning seam. Tables built by NewTable /
// NewWideTable carry OrderNone; tables returned by RunQuery (and
// Session.RunQuery) carry the token of their plan's output order. The
// token is a pure function of the producing query's public shape, never of
// the table contents, so feeding it into the next query's plan (which
// RunQuery does automatically) keeps every trace a function of public
// query shapes only.
type TableOrder int

const (
	// OrderNone — no known order (fresh loads, position-ordered results).
	OrderNone TableOrder = iota
	// OrderKeys — ascending (key tuple, first-occurrence) order: the
	// output of a KeyOrderOut Distinct/GroupBy query. A follow-up query
	// whose first sort is its key sort skips that sort entirely.
	OrderKeys
	// OrderValues — descending value order: the output of a TopK query. A
	// follow-up pure-TopK query skips its value sort.
	OrderValues
)

// String implements fmt.Stringer.
func (o TableOrder) String() string {
	switch o {
	case OrderKeys:
		return "keys"
	case OrderValues:
		return "values↓"
	}
	return "none"
}

// planOrderOf maps the public token to the planner's input-order token.
func planOrderOf(o TableOrder) plan.Order {
	switch o {
	case OrderKeys:
		return plan.OrderKeyPos
	case OrderValues:
		return plan.OrderValDesc
	}
	return plan.OrderInput
}

// tableOrderOf maps a plan's output order to the public token. OrderPos
// (original-position order) deliberately maps to OrderNone: reloading
// renumbers positions, so the token would carry no cross-query information.
func tableOrderOf(o plan.Order) TableOrder {
	switch o {
	case plan.OrderKeyPos:
		return OrderKeys
	case plan.OrderValDesc:
		return OrderValues
	}
	return OrderNone
}

// Table is a relation of rows accepted by the oblivious relational
// operators (Filter, FilterRows, Distinct, GroupBy, Join, JoinAllRows,
// TopK, RunQuery). Key tuples may repeat. Construct with NewTable (one key
// column) or NewWideTable (up to relops.MaxKeyCols columns); both validate
// the bounds: key columns < relops.KeyLimit and at most relops.MaxRows
// rows. The key-column count is public query shape, like the row count,
// as is the sorted-by token (see TableOrder).
type Table struct {
	rows  []Row     // width-1 storage
	wide  []WideRow // width >= 2 storage
	width int
	order TableOrder
}

// Order returns the table's public sorted-by token (OrderNone unless the
// table is a materialized query result carrying one).
func (t Table) Order() TableOrder { return t.order }

// NewTable validates rows and wraps them in a width-1 Table. Violations of
// the bounds return ErrKeyTooLarge / ErrTooManyRows (matchable with
// errors.Is).
func NewTable(rows []Row) (Table, error) {
	if len(rows) == 0 {
		return Table{}, ErrEmptyInput
	}
	if err := relops.CheckShape(int64(len(rows)), 1); err != nil {
		return Table{}, fmt.Errorf("%w (%d rows)", ErrTooManyRows, len(rows))
	}
	for i, r := range rows {
		if r.Key >= relops.KeyLimit {
			return Table{}, fmt.Errorf("%w (row %d key %d)", ErrKeyTooLarge, i, r.Key)
		}
	}
	return Table{rows: rows, width: 1}, nil
}

// NewWideTable validates rows and wraps them in a multi-column Table. All
// rows must carry the same number of key columns, between 1 and
// relops.MaxKeyCols; violations return ErrBadWidth / ErrKeyTooLarge /
// ErrTooManyRows (matchable with errors.Is). A one-column wide table is
// identical to the NewTable form.
func NewWideTable(rows []WideRow) (Table, error) {
	if len(rows) == 0 {
		return Table{}, ErrEmptyInput
	}
	w := len(rows[0].Keys)
	if err := relops.CheckShape(int64(len(rows)), w); err != nil {
		if w < 1 || w > relops.MaxKeyCols {
			return Table{}, fmt.Errorf("%w (%d columns)", ErrBadWidth, w)
		}
		return Table{}, fmt.Errorf("%w (%d rows)", ErrTooManyRows, len(rows))
	}
	for i, r := range rows {
		if len(r.Keys) != w {
			return Table{}, fmt.Errorf("%w (row %d has %d columns, row 0 has %d)", ErrBadWidth, i, len(r.Keys), w)
		}
		for k, key := range r.Keys {
			if key >= relops.KeyLimit {
				return Table{}, fmt.Errorf("%w (row %d column %d key %d)", ErrKeyTooLarge, i, k, key)
			}
		}
	}
	if w == 1 {
		narrow := make([]Row, len(rows))
		for i, r := range rows {
			narrow[i] = Row{Key: r.Keys[0], Val: r.Val}
		}
		return Table{rows: narrow, width: 1}, nil
	}
	return Table{wide: rows, width: w}, nil
}

// Rows returns the rows of a width-1 table (nil for multi-column tables —
// use WideRows).
func (t Table) Rows() []Row { return t.rows }

// WideRows returns the table's rows in multi-column form (synthesized for
// width-1 tables).
func (t Table) WideRows() []WideRow {
	if t.width > 1 {
		return t.wide
	}
	out := make([]WideRow, len(t.rows))
	for i, r := range t.rows {
		out[i] = WideRow{Keys: []uint64{r.Key}, Val: r.Val}
	}
	return out
}

// Width returns the table's key-column count.
func (t Table) Width() int {
	if t.width == 0 {
		return 1
	}
	return t.width
}

// Len returns the number of rows.
func (t Table) Len() int {
	if t.width > 1 {
		return len(t.wide)
	}
	return len(t.rows)
}

// Agg selects the aggregation of GroupBy / Query. The zero value AggNone
// is only meaningful inside a Query (it disables the group-by stage).
type Agg int

// Aggregations. AggAvg and AggVar aggregate a (sum, count) pair — plus the
// sum of squares for the variance — in one segmented pass: AggAvg yields
// floor(sum/count), AggVar the integer population variance
// floor(E[X²]) - floor(E[X])² clamped at zero.
const (
	AggNone Agg = iota
	AggSum
	AggCount
	AggMin
	AggMax
	AggAvg
	AggVar
)

func (a Agg) kind() (relops.AggKind, error) {
	switch a {
	case AggSum:
		return relops.AggSum, nil
	case AggCount:
		return relops.AggCount, nil
	case AggMin:
		return relops.AggMin, nil
	case AggMax:
		return relops.AggMax, nil
	case AggAvg:
		return relops.AggAvg, nil
	case AggVar:
		return relops.AggVar, nil
	default:
		return 0, fmt.Errorf("oblivmc: invalid aggregation %d", a)
	}
}

// tableOf converts surviving records back to a table of the relation's
// width (harness operation, outside the adversary's view).
func tableOf(r relops.Rel) Table {
	recs := relops.Unload(r)
	if r.W == 1 {
		rows := make([]Row, len(recs))
		for i, rec := range recs {
			rows[i] = Row{Key: rec.Key, Val: rec.Val}
		}
		return Table{rows: rows, width: 1}
	}
	rows := make([]WideRow, len(recs))
	for i, rec := range recs {
		keys := make([]uint64, r.W)
		for k := 0; k < r.W; k++ {
			keys[k] = rec.Col(k)
		}
		rows[i] = WideRow{Keys: keys, Val: rec.Val}
	}
	return Table{wide: rows, width: r.W}
}

// recordsOf converts a table's rows to relational records.
func recordsOf(t Table) []relops.Record {
	if t.width > 1 {
		recs := make([]relops.Record, len(t.wide))
		for i, r := range t.wide {
			recs[i] = relops.Record{Key: r.Keys[0], Key2: r.Keys[1], Val: r.Val}
		}
		return recs
	}
	recs := make([]relops.Record, len(t.rows))
	for i, r := range t.rows {
		recs[i] = relops.Record{Key: r.Key, Val: r.Val}
	}
	return recs
}

// errWideFilter rejects the narrow row-predicate surfaces on multi-column
// tables, pointing at the wide forms.
func errWideFilter(op string) error {
	return fmt.Errorf("oblivmc: %s over multi-column tables needs the wide-predicate form (FilterRows / Query.FilterWide)", op)
}

// wideRowOf converts a relational record to a WideRow at width w (the
// wide-predicate calling convention; the row is handed to the predicate by
// value and must not be retained).
func wideRowOf(rec relops.Record, w int) WideRow {
	keys := make([]uint64, w)
	for k := 0; k < w; k++ {
		keys[k] = rec.Col(k)
	}
	return WideRow{Keys: keys, Val: rec.Val}
}

// FilterRows obliviously selects the rows satisfying pred at any key
// width, preserving input order — the wide-predicate form of Filter and the
// one-stage query Query{FilterWide: pred}. pred must be a pure function of
// the row; the access pattern depends only on the row count and width,
// never on the contents or the survivor count.
func FilterRows(cfg Config, t Table, pred func(WideRow) bool) (Table, *Report, error) {
	if t.Len() == 0 {
		return Table{}, nil, ErrEmptyInput
	}
	if pred == nil {
		return Table{}, nil, fmt.Errorf("oblivmc: FilterRows requires a predicate")
	}
	return RunQuery(cfg, t, Query{FilterWide: pred})
}

// Filter obliviously selects the rows satisfying pred, preserving input
// order — the one-stage query Query{Filter: pred}. pred must be a pure
// function of the row (it computes on register values; it is never handed
// memory). The access pattern depends only on the number of rows — not on
// the contents, and not on how many rows survive (the survivor count is
// only visible in the returned Table). Width-1 tables only; FilterRows
// takes every width.
func Filter(cfg Config, t Table, pred func(Row) bool) (Table, *Report, error) {
	if t.Len() == 0 {
		return Table{}, nil, ErrEmptyInput
	}
	if t.Width() > 1 {
		return Table{}, nil, errWideFilter("Filter")
	}
	if pred == nil {
		return Table{}, nil, fmt.Errorf("oblivmc: Filter requires a predicate")
	}
	return RunQuery(cfg, t, Query{Filter: pred})
}

// Distinct obliviously deduplicates the table by its key tuple: the
// earliest row of each key survives, in first-occurrence order — the
// one-stage query Query{Distinct: true}.
func Distinct(cfg Config, t Table) (Table, *Report, error) {
	return RunQuery(cfg, t, Query{Distinct: true})
}

// GroupBy obliviously aggregates the table by its full key tuple — GROUP BY
// (a, b) for a two-column table, the single key column for a width-1 one:
// the result holds one row per distinct key tuple whose Val is the
// aggregate of the group under agg, in first-occurrence order. It is the
// one-stage query Query{GroupBy: agg}, except that AggNone is rejected.
// Values are unbounded uint64s and sums wrap modulo 2^64 (AggVar
// additionally sums squares — keep values below 2^32 if exact variances
// are required).
func GroupBy(cfg Config, t Table, agg Agg) (Table, *Report, error) {
	if _, err := agg.kind(); err != nil {
		return Table{}, nil, err
	}
	return RunQuery(cfg, t, Query{GroupBy: agg})
}

// TopK obliviously keeps the k rows with the largest values, in descending
// value order (ties broken deterministically but arbitrarily) — the
// one-stage query Query{TopK: k} for k > 0. k is public query shape, not
// data; the access pattern depends on (rows, k) only. k = 0 keeps no row
// (in a Query, TopK 0 means no top-k stage), so it returns an empty table
// without touching the rows; a negative k is an error.
func TopK(cfg Config, t Table, k int) (Table, *Report, error) {
	if t.Len() == 0 {
		return Table{}, nil, ErrEmptyInput
	}
	if k < 0 {
		return Table{}, nil, fmt.Errorf("oblivmc: negative k %d", k)
	}
	if k == 0 {
		rep, err := run(cfg, func(*forkjoin.Ctx, *mem.Space) {})
		if err != nil {
			return Table{}, nil, err
		}
		return Table{width: t.Width(), order: OrderValues}, rep, nil
	}
	return RunQuery(cfg, t, Query{TopK: k})
}

// JoinedRow is one output row of Join: a right row paired with the value
// of the left row sharing its key.
type JoinedRow struct {
	Key, LeftVal, RightVal uint64
}

// Join obliviously computes the sort-merge equi-join of left (a primary
// relation with distinct keys) and right (a foreign relation): one output
// row per right row whose key appears in left, in right's order. The
// access pattern depends only on the two relation sizes — the join
// selectivity is invisible to the adversary. Width-1 tables only (see
// ROADMAP for wide joins).
func Join(cfg Config, left, right Table) ([]JoinedRow, *Report, error) {
	if left.Len() == 0 || right.Len() == 0 {
		return nil, nil, ErrEmptyInput
	}
	if left.Width() > 1 || right.Width() > 1 {
		return nil, nil, errWideFilter("Join")
	}
	seen := map[uint64]bool{}
	for i, r := range left.rows {
		if seen[r.Key] {
			return nil, nil, fmt.Errorf("oblivmc: left table key %d (row %d) is duplicated", r.Key, i)
		}
		seen[r.Key] = true
	}
	var out []JoinedRow
	var loadErr error
	rep, err := run(cfg, func(c *forkjoin.Ctx, sp *mem.Space) {
		l, err := relops.Load(sp, recordsOf(left), 1)
		if err != nil {
			loadErr = err
			return
		}
		r, err := relops.Load(sp, recordsOf(right), 1)
		if err != nil {
			loadErr = err
			return
		}
		j, _ := relops.Join(c, sp, relops.NewArena(), l, r, relSorter(cfg))
		for _, rec := range relops.UnloadJoined(j) {
			out = append(out, JoinedRow{Key: rec.Key, LeftVal: rec.LeftVal, RightVal: rec.RightVal})
		}
	})
	if err != nil {
		return nil, nil, err
	}
	if loadErr != nil {
		return nil, nil, loadErr
	}
	return out, rep, nil
}

// WideJoinedRow is one output row of JoinAllRows (and of the wide Join
// surface generally): the matched key tuple plus both sides' values. Keys
// holds the key columns in significance order, like WideRow's.
type WideJoinedRow struct {
	Keys              []uint64
	LeftVal, RightVal uint64
}

// wideJoinedOf converts unloaded join records to rows at width w.
func wideJoinedOf(recs []relops.Joined, w int) []WideJoinedRow {
	out := make([]WideJoinedRow, len(recs))
	for i, rec := range recs {
		keys := make([]uint64, w)
		keys[0] = rec.Key
		if w > 1 {
			keys[1] = rec.Key2
		}
		out[i] = WideJoinedRow{Keys: keys, LeftVal: rec.LeftVal, RightVal: rec.RightVal}
	}
	return out
}

// checkJoinTables validates a join's public shape: non-empty sides, equal
// key widths, and a capacity within the row bounds (or the JoinCapAuto
// sentinel, resolved by the advisor inside the run).
func checkJoinTables(left, right Table, maxOut int) error {
	if left.Len() == 0 || right.Len() == 0 {
		return ErrEmptyInput
	}
	if left.Width() != right.Width() {
		return fmt.Errorf("%w (join of width-%d and width-%d tables)", ErrBadWidth, left.Width(), right.Width())
	}
	if maxOut == JoinCapAuto {
		return nil
	}
	if err := relops.CheckCapacity(int64(maxOut)); err != nil {
		return fmt.Errorf("%w (maxOut %d)", ErrBadCapacity, maxOut)
	}
	return nil
}

// resolveJoinCap turns a join's declared capacity into the concrete public
// maxOut: a JoinCapAuto sentinel runs the capacity advisor over the loaded
// relations (one extra sorting pass inside the same run); anything else
// passes through untouched. An advised bound of zero still needs one
// output slot to be a legal capacity.
func resolveJoinCap(c *forkjoin.Ctx, sp *mem.Space, ar *relops.Arena, declared int, l, r relops.Rel, srt obliv.ScheduledSorter) (int, error) {
	if declared != JoinCapAuto {
		return declared, nil
	}
	advised, err := relops.JoinCapAdvise(c, sp, ar, l, r, srt)
	if err != nil {
		return 0, fmt.Errorf("%w (advised %d)", ErrCapTooLarge, advised)
	}
	if advised < 1 {
		advised = 1
	}
	return int(advised), nil
}

// JoinAllRows obliviously computes the full many-to-many equi-join of left
// and right: one output row per (left row, right row) pair sharing its key
// tuple, ordered by (right row position, left row position). Unlike Join,
// left key tuples may repeat, and every key width is supported (this is
// the wide Join surface the ROADMAP called for).
//
// maxOut is the *public* output capacity: the access pattern depends only
// on (len(left), len(right), width, maxOut) — never on the contents or on
// the true match count, which stays invisible to the adversary. When the
// match count exceeds maxOut, the error wraps ErrJoinOverflow and carries
// the true count, so the caller can retry with a sufficient public bound
// (at worst len(left)*len(right)). Passing JoinCapAuto instead sizes the
// output with the capacity advisor — the worst-case bound, which cannot
// overflow — at the cost of revealing that bound as public shape.
func JoinAllRows(cfg Config, left, right Table, maxOut int) ([]WideJoinedRow, *Report, error) {
	if err := checkJoinTables(left, right, maxOut); err != nil {
		return nil, nil, err
	}
	w := left.Width()
	var out []WideJoinedRow
	var runErr error
	rep, err := run(cfg, func(c *forkjoin.Ctx, sp *mem.Space) {
		l, err := relops.Load(sp, recordsOf(left), w)
		if err != nil {
			runErr = err
			return
		}
		r, err := relops.Load(sp, recordsOf(right), w)
		if err != nil {
			runErr = err
			return
		}
		ar := relops.NewArena()
		srt := relSorter(cfg)
		capOut, err := resolveJoinCap(c, sp, ar, maxOut, l, r, srt)
		if err != nil {
			runErr = err
			return
		}
		j, m, err := relops.JoinAll(c, sp, ar, l, r, capOut, srt)
		if errors.Is(err, relops.ErrJoinOverflow) {
			runErr = fmt.Errorf("%w (%d matches, capacity %d)", ErrJoinOverflow, m, capOut)
			return
		}
		if err != nil {
			runErr = err
			return
		}
		out = wideJoinedOf(relops.UnloadJoined(j), w)
	})
	if err != nil {
		return nil, nil, err
	}
	if runErr != nil {
		return nil, nil, runErr
	}
	return out, rep, nil
}

// JoinSpec declares the optional join stage of a Query.
type JoinSpec struct {
	// Left is the relation joined against the queried table: every row of
	// the table is matched with every Left row sharing its full key tuple.
	// Key tuples may repeat on both sides (many-to-many).
	Left Table
	// MaxOut is the public output capacity of the join — part of the query
	// shape, like the table sizes. A query whose true match count exceeds
	// it fails with ErrJoinOverflow. JoinCapAuto delegates the choice to
	// the capacity advisor (the worst-case bound can never overflow).
	MaxOut int
}

// Query is a declarative oblivious analytics pipeline over one table:
//
//	Join (optional) → Filter (optional) → Distinct (optional) → GroupBy (optional) → TopK (optional)
//
// The query structure (which stages run, the aggregation, k, the declared
// key-only-ness of the filter) is public, as is the table's key-column
// count; the table contents, including how many rows survive each stage,
// are not: every stage processes the full padded array, so the trace
// depends only on the table's row count, its width, and the query shape.
// The Distinct and GroupBy stages group by the table's full key tuple.
//
// RunQuery compiles the stages through the internal/plan sort-fusion
// planner before executing: stages that only drop rows defer their
// compaction to the next sort, adjacent stages needing the same key order
// share one sorting pass, and a filter declared FilterKeyOnly is pushed
// below Distinct/GroupBy into their existing passes. A multi-stage query
// therefore runs strictly fewer O(n log² n) sorting-network passes than
// running its stages one operator at a time (the full four-stage
// pipeline: 2 sorts instead of 6) while producing the same rows — at
// every key width.
type Query struct {
	// Join, when non-nil, prepends a many-to-many equi-join stage: the
	// queried table (the join's right side) is expanded to one row per
	// (Left row, table row) pair sharing its full key tuple, carrying the
	// table row's value, and the later stages run over the matches. Left
	// values are not delivered through a Query (use JoinAllRows for both
	// sides' values). The planner defers the join's value-propagation and
	// output-compaction sorts whenever a later stage re-sorts anyway.
	Join *JoinSpec
	// Filter keeps the rows satisfying the predicate (nil = keep all).
	// Width-1 tables only; multi-column tables use FilterWide.
	Filter func(Row) bool
	// FilterWide is the wide-predicate filter form, accepted at every key
	// width (the row carries the full key tuple). At most one of Filter
	// and FilterWide may be set.
	FilterWide func(WideRow) bool
	// FilterKeyOnly declares that the filter (either form) depends only on
	// the key columns. This is public query shape: it allows the planner
	// to push the filter below Distinct/GroupBy (a key-only predicate
	// drops whole key groups, so dedup heads and group aggregates are
	// unchanged by the reorder). A predicate that reads the value despite
	// this declaration yields unspecified results — though still an
	// oblivious trace.
	FilterKeyOnly bool
	// Distinct deduplicates by the key tuple before aggregation.
	Distinct bool
	// GroupBy aggregates values per key tuple (AggNone = no aggregation).
	GroupBy Agg
	// TopK keeps only the k largest-value rows (0 = keep all).
	TopK int
	// KeyOrderOut delivers the result rows in ascending key-tuple order
	// instead of the operators' first-occurrence order, and stamps the
	// result Table with the OrderKeys token. For queries ending in
	// Distinct/GroupBy the relation is already key-sorted after the group
	// pass, so the position-restoring compaction sort disappears entirely
	// (a plain GroupBy runs 1 sort instead of 2); other non-TopK shapes
	// pay one key sort in place of the compaction sort. TopK queries
	// ignore it (their public order is descending value). This is the
	// serving layer's materialization mode: a follow-up query over the
	// stored result skips its own key sort via the token. The requested
	// order is public query shape, like every other field here.
	KeyOrderOut bool
	// NoOptimize executes the staged plan (plan.BuildStaged) in place of
	// the fused one: each stage pays its own sorts, as if run one operator
	// at a time, and no input order token skips a sort. The executor is the
	// same, and so are the rows and the result's order token (KeyOrderOut
	// included) — the pre-fusion baseline kept for A/B benchmarking and
	// differential testing.
	NoOptimize bool
}

// shape extracts the public planner shape of q over a width-w table whose
// sorted-by token is ord. Every field — including the fed-forward input
// order — is public, so the compiled plan (and with it the trace) stays a
// function of query shapes only.
func (q Query) shape(kind relops.AggKind, w int, ord TableOrder) plan.Shape {
	return plan.Shape{
		KeyCols:       w,
		Join:          q.Join != nil,
		Filter:        q.Filter != nil || q.FilterWide != nil,
		FilterKeyOnly: q.FilterKeyOnly,
		Distinct:      q.Distinct,
		GroupBy:       q.GroupBy != AggNone,
		Agg:           uint8(kind),
		TopK:          q.TopK,
		InputOrder:    planOrderOf(ord),
		KeyOrderOut:   q.KeyOrderOut,
	}
}

// Explain returns the pass sequence q will execute over a width-1 table
// (ExplainWidth renders other widths), e.g.
// "filter-mark → sort(key,pos) → dedup+aggregate → sort(val↓) → topk
// [2 sorts, staged 6]" — or, for a NoOptimize query, the staged operator
// sequence. It validates q exactly like RunQuery and depends only on the
// query shape.
func Explain(q Query) (string, error) {
	return ExplainWidth(q, 1)
}

// ExplainTable is Explain against a concrete table: the plan is built at
// the table's key width and — the cross-query seam — against its sorted-by
// token, so a query whose first sort the token covers renders without that
// sort (e.g. "in(key,pos) → aggregate [0 sorts, cold 1, staged 2]").
func ExplainTable(t Table, q Query) (string, error) {
	return explainOrdered(q, t.Width(), t.order)
}

// ExplainWidth is Explain for a table of w key columns.
func ExplainWidth(q Query, w int) (string, error) {
	return explainOrdered(q, w, OrderNone)
}

func explainOrdered(q Query, w int, ord TableOrder) (string, error) {
	kind, err := queryAgg(q)
	if err != nil {
		return "", err
	}
	return q.explain(q.compile(kind, w, ord)), nil
}

// compile builds q's plan over a width-w table whose sorted-by token is
// ord: the fused plan, or under NoOptimize the staged one.
func (q Query) compile(kind relops.AggKind, w int, ord TableOrder) plan.Plan {
	s := q.shape(kind, w, ord)
	if q.NoOptimize {
		return plan.BuildStaged(s)
	}
	return plan.Build(s)
}

// explain renders pl, the compiled plan of q: the fused pass sequence, or
// for a NoOptimize query the staged operator sequence.
func (q Query) explain(pl plan.Plan) string {
	if !q.NoOptimize {
		return pl.String()
	}
	s := ""
	for _, st := range []struct {
		on   bool
		name string
	}{
		{q.Join != nil, "join-all"},
		{q.Filter != nil || q.FilterWide != nil, "filter"},
		{q.Distinct, "distinct"},
		{q.GroupBy != AggNone, "group-by"},
		{q.TopK > 0, "top-k"},
	} {
		if !st.on {
			continue
		}
		if s != "" {
			s += " → "
		}
		s += st.name
	}
	if s == "" {
		s = "identity"
	}
	return fmt.Sprintf("staged: %s [%d sorts]", s, pl.SortPasses)
}

// pred resolves q's filter (either form) to a relational-record predicate
// at width w, or nil when the query has no filter.
func (q Query) pred(w int) func(relops.Record) bool {
	if q.FilterWide != nil {
		fw := q.FilterWide
		return func(r relops.Record) bool { return fw(wideRowOf(r, w)) }
	}
	if q.Filter != nil {
		f := q.Filter
		return func(r relops.Record) bool { return f(Row{Key: r.Key, Val: r.Val}) }
	}
	return nil
}

// queryAgg validates q's shape parameters (shared by RunQuery and Explain,
// so the explain surface never blesses a shape the executor refuses) and
// resolves the aggregation kind.
func queryAgg(q Query) (relops.AggKind, error) {
	if q.Filter != nil && q.FilterWide != nil {
		return 0, fmt.Errorf("oblivmc: Query.Filter and Query.FilterWide are mutually exclusive")
	}
	if q.TopK < 0 {
		return 0, fmt.Errorf("oblivmc: negative k %d", q.TopK)
	}
	if q.GroupBy == AggNone {
		return 0, nil
	}
	return q.GroupBy.kind()
}

// checkQuery validates q against t — the checks RunQuery and
// Session.RunQueryCtx share — and resolves the aggregation kind.
func checkQuery(t Table, q Query) (relops.AggKind, error) {
	if t.Len() == 0 {
		return 0, ErrEmptyInput
	}
	if q.Filter != nil && t.Width() > 1 {
		return 0, errWideFilter("Query.Filter")
	}
	if q.Join != nil {
		if err := checkJoinTables(q.Join.Left, t, q.Join.MaxOut); err != nil {
			return 0, err
		}
	}
	return queryAgg(q)
}

// RunQuery executes q over t under one executor run, so a metered Config
// yields a single Report covering the whole pipeline.
func RunQuery(cfg Config, t Table, q Query) (Table, *Report, error) {
	kind, err := checkQuery(t, q)
	if err != nil {
		return Table{}, nil, err
	}
	return runQueryPlanned(exec{cfg: cfg}, t, q, q.compile(kind, t.Width(), t.order), relSorter(cfg))
}

// queryJoin runs q's join stage over the loaded right relation r (the
// queried table): it loads the left relation and expands r to one record
// per match, carrying the right record's key tuple, value, and original
// position. deferred selects JoinAllDeferred (the planner dropped the
// join's propagate+compact tail because a later pass re-sorts anyway).
// The returned error is the public ErrJoinOverflow wrap used by
// JoinAllRows, carrying the true match count for the retry.
func queryJoin(c *forkjoin.Ctx, sp *mem.Space, ar *relops.Arena, j *JoinSpec, r relops.Rel, deferred bool, srt obliv.ScheduledSorter) (relops.Rel, error) {
	l, err := relops.Load(sp, recordsOf(j.Left), r.W)
	if err != nil {
		return relops.Rel{}, err
	}
	maxOut, err := resolveJoinCap(c, sp, ar, j.MaxOut, l, r, srt)
	if err != nil {
		return relops.Rel{}, err
	}
	var (
		joined relops.Rel
		m      int
	)
	if deferred {
		joined, m, err = relops.JoinAllDeferred(c, sp, ar, l, r, maxOut, srt)
	} else {
		joined, m, err = relops.JoinAll(c, sp, ar, l, r, maxOut, srt)
	}
	if errors.Is(err, relops.ErrJoinOverflow) {
		return relops.Rel{}, fmt.Errorf("%w (%d matches, capacity %d)", ErrJoinOverflow, m, maxOut)
	}
	if err != nil {
		return relops.Rel{}, err
	}
	return joined, nil
}

// runQueryPlanned moves t into the oblivious element representation and
// executes pl, q's compiled plan (fused or staged), under e's executor with
// a scratch arena (e's persistent arena when it has one, else per-run) and
// the run's one sorter (srt — the shuffle backend is stateful, so exactly
// one instance must serve all of a run's sorts). The join stage is binary,
// so the query layer — which holds both relations — peels it off the plan's
// head and hands Execute the remaining unary passes over the expanded
// relation. The result table is stamped with the plan's output order token.
func runQueryPlanned(e exec, t Table, q Query, pl plan.Plan, srt obliv.ScheduledSorter) (Table, *Report, error) {
	pred := q.pred(t.Width())
	var out Table
	var runErr error
	rep, err := e.run(func(c *forkjoin.Ctx, sp *mem.Space) {
		r, err := relops.Load(sp, recordsOf(t), t.Width())
		if err != nil {
			// Unreachable via NewTable/NewWideTable, but Load re-checks its
			// own bounds.
			runErr = err
			return
		}
		ar := e.arena
		if ar == nil {
			ar = relops.NewArena()
		}
		rest := pl
		if q.Join != nil {
			jop := rest.Ops[0] // plan.Build and plan.BuildStaged put OpJoinAll first
			rest.Ops = rest.Ops[1:]
			if r, runErr = queryJoin(c, sp, ar, q.Join, r, jop.Deferred, srt); runErr != nil {
				return
			}
		}
		relops.Execute(c, sp, ar, r, rest, pred, srt)
		out = tableOf(r)
	})
	if err != nil {
		return Table{}, nil, err
	}
	if runErr != nil {
		return Table{}, nil, runErr
	}
	out.order = tableOrderOf(pl.Output)
	return out, rep, nil
}
