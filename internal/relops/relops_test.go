package relops

import (
	"errors"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"

	"oblivmc/internal/bitonic"
	"oblivmc/internal/core"
	"oblivmc/internal/forkjoin"
	"oblivmc/internal/mem"
	"oblivmc/internal/obliv"
	"oblivmc/internal/plan"
	"oblivmc/internal/prng"
)

// testCtx returns the executor the suite's operator calls run under:
// serial by default, or a package-wide 4-worker stealing pool when
// OBLIVMC_TEST_MODE=parallel (CI's ModeParallel matrix leg, `make
// test-parallel`), so every correctness and property check in this package
// also exercises true concurrent execution. The trace-fingerprint tests
// are unaffected: fingerprints are defined by the metered executor, which
// is sequential by construction and never goes through this helper.
func testCtx() *forkjoin.Ctx {
	if os.Getenv("OBLIVMC_TEST_MODE") != "parallel" {
		return forkjoin.Serial()
	}
	suitePoolOnce.Do(func() { suitePool = forkjoin.NewPool(4) })
	return suitePool.OwnerCtx()
}

var (
	suitePool     *forkjoin.Pool
	suitePoolOnce sync.Once
)

// mustLoad is width-1 Load for known-in-range test data; the error path has
// its own tests (TestLoadRejectsOutOfRange). It panics rather than
// t.Fatal-ing so it is safe inside closures running on pool workers.
func mustLoad(t testing.TB, sp *mem.Space, recs []Record) Rel {
	t.Helper()
	return mustLoadW(t, sp, recs, 1)
}

// mustLoadW is Load at an explicit key width.
func mustLoadW(t testing.TB, sp *mem.Space, recs []Record, w int) Rel {
	t.Helper()
	r, err := Load(sp, recs, w)
	if err != nil {
		panic(err)
	}
	return r
}

// testSorter picks the sorter the correctness/property suite runs under.
// The default leg uses a cheap exact sorter for tiny inputs and the real
// cache-agnostic bitonic sorter otherwise, so the suite exercises both;
// with OBLIVMC_SORT_BACKEND=shuffle (CI's second matrix leg, `make
// test-shuffle`) every sort instead runs the shuffle-then-sort composition
// forced down to the smallest sizes. The relational operators' *outputs*
// are backend-independent — every relational order is made strict by the
// position tie-break — so the same reference checks apply to both legs.
// (The trace-fingerprint tests pin their backends explicitly and do not go
// through this helper: the shuffle backend's per-seed trace determinism is
// weaker, and its fingerprint guarantees are asserted by its own tests.)
func testSorter(n int) obliv.ScheduledSorter {
	if os.Getenv("OBLIVMC_SORT_BACKEND") == "shuffle" {
		seed := uint64(0x7e57)
		return &core.ShuffleSorter{FixedSeed: &seed, Crossover: 2}
	}
	if n <= 64 {
		return obliv.SelectionNetwork{}
	}
	return bitonic.CacheAgnostic{}
}

// The unary operators have no entry points of their own: run alone, each is
// the one-stage plan of its shape through Execute — the same passes the
// query layer runs for Filter, Distinct, GroupBy and TopK. These helpers
// keep the operator tests reading like operator calls.

func compactOp(c *forkjoin.Ctx, sp *mem.Space, ar *Arena, r Rel, pred func(Record) bool, srt obliv.ScheduledSorter) int {
	return Execute(c, sp, ar, r, plan.Build(plan.Shape{KeyCols: r.W, Filter: true}), pred, srt)
}

func distinctOp(c *forkjoin.Ctx, sp *mem.Space, ar *Arena, r Rel, srt obliv.ScheduledSorter) int {
	return Execute(c, sp, ar, r, plan.Build(plan.Shape{KeyCols: r.W, Distinct: true}), nil, srt)
}

func groupByOp(c *forkjoin.Ctx, sp *mem.Space, ar *Arena, r Rel, agg AggKind, srt obliv.ScheduledSorter) int {
	return Execute(c, sp, ar, r, plan.Build(plan.Shape{KeyCols: r.W, GroupBy: true, Agg: uint8(agg)}), nil, srt)
}

// topKOp lists the top-k passes directly: a plan.Shape with TopK 0 has no
// top-k stage, while the cut here must also cover k = 0 (keep nothing).
func topKOp(c *forkjoin.Ctx, sp *mem.Space, ar *Arena, r Rel, k int, srt obliv.ScheduledSorter) int {
	pl := plan.Plan{Ops: []plan.Op{{Kind: plan.OpSortValDesc}, {Kind: plan.OpTopK, K: k}}}
	return Execute(c, sp, ar, r, pl, nil, srt)
}

func randRecords(src *prng.Source, n int, keySpread, valSpread uint64) []Record {
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{Key: src.Uint64n(keySpread), Val: src.Uint64n(valSpread)}
	}
	return recs
}

// randWideRecords draws width-2 records whose columns exercise the full
// uint64 range (far beyond the old 2^40 packed-key bound) with heavy
// column-0 duplication so the second column decides many comparisons.
func randWideRecords(src *prng.Source, n int, spread1, spread2, valSpread uint64) []Record {
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{
			Key:  src.Uint64n(spread1) * 0x9e3779b97f4a7c15,
			Key2: src.Uint64n(spread2) * 0x517cc1b727220a95,
			Val:  src.Uint64n(valSpread),
		}
	}
	return recs
}

func checkRecords(t testing.TB, got, want []Record, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d records, want %d\ngot  %v\nwant %v", label, len(got), len(want), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: record %d = %v, want %v\ngot  %v\nwant %v", label, i, got[i], want[i], got, want)
		}
	}
}

var testSizes = []int{1, 2, 3, 7, 8, 17, 33, 100, 129}

func TestCompactRandom(t *testing.T) {
	src := prng.New(101)
	pred := func(r Record) bool { return r.Val%3 == 0 }
	for _, n := range testSizes {
		recs := randRecords(src, n, 25, 1000)
		var want []Record
		for _, r := range recs {
			if pred(r) {
				want = append(want, r)
			}
		}
		sp := mem.NewSpace()
		a := mustLoad(t, sp, recs)
		count := compactOp(testCtx(), sp, NewArena(), a, pred, testSorter(a.Len()))
		if count != len(want) {
			t.Fatalf("n=%d: Compact count = %d, want %d", n, count, len(want))
		}
		checkRecords(t, Unload(a), want, "Compact")
	}
}

func TestCompactNoneSurvive(t *testing.T) {
	sp := mem.NewSpace()
	a := mustLoad(t, sp, randRecords(prng.New(5), 16, 10, 10))
	count := compactOp(testCtx(), sp, NewArena(), a, func(Record) bool { return false }, obliv.SelectionNetwork{})
	if count != 0 || len(Unload(a)) != 0 {
		t.Fatalf("expected empty result, got count=%d records=%v", count, Unload(a))
	}
}

func TestDistinctRandom(t *testing.T) {
	src := prng.New(202)
	for _, n := range testSizes {
		recs := randRecords(src, n, 12, 1000) // heavy duplication
		seen := map[uint64]bool{}
		var want []Record
		for _, r := range recs {
			if !seen[r.Key] {
				seen[r.Key] = true
				want = append(want, r)
			}
		}
		sp := mem.NewSpace()
		a := mustLoad(t, sp, recs)
		count := distinctOp(testCtx(), sp, NewArena(), a, testSorter(a.Len()))
		if count != len(want) {
			t.Fatalf("n=%d: Distinct count = %d, want %d", n, count, len(want))
		}
		checkRecords(t, Unload(a), want, "Distinct")
	}
}

// TestDistinctWideKeys drives width-2 deduplication: rows sharing column 0
// but differing in column 1 are distinct tuples, and column values far
// above the old 2^40 limit survive intact.
func TestDistinctWideKeys(t *testing.T) {
	src := prng.New(212)
	for _, n := range testSizes {
		recs := randWideRecords(src, n, 5, 4, 1000)
		seen := map[[2]uint64]bool{}
		var want []Record
		for _, r := range recs {
			k := [2]uint64{r.Key, r.Key2}
			if !seen[k] {
				seen[k] = true
				want = append(want, r)
			}
		}
		sp := mem.NewSpace()
		a := mustLoadW(t, sp, recs, 2)
		count := distinctOp(testCtx(), sp, NewArena(), a, testSorter(a.Len()))
		if count != len(want) {
			t.Fatalf("n=%d: wide Distinct count = %d, want %d", n, count, len(want))
		}
		checkRecords(t, Unload(a), want, "Distinct wide")
	}
}

func refGroupBy(recs []Record, agg AggKind, wide bool) []Record {
	type stats struct{ sum, sq, cnt, minv, maxv uint64 }
	aggs := map[[2]uint64]*stats{}
	var order [][2]uint64
	keyOf := func(r Record) [2]uint64 {
		if wide {
			return [2]uint64{r.Key, r.Key2}
		}
		return [2]uint64{r.Key, 0}
	}
	for _, r := range recs {
		k := keyOf(r)
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
	out := make([]Record, len(order))
	for i, k := range order {
		s := aggs[k]
		var v uint64
		switch agg {
		case AggSum:
			v = s.sum
		case AggCount:
			v = s.cnt
		case AggMin:
			v = s.minv
		case AggMax:
			v = s.maxv
		case AggAvg:
			v = s.sum / s.cnt
		case AggVar:
			m := s.sum / s.cnt
			ex2 := s.sq / s.cnt
			if ex2 >= m*m {
				v = ex2 - m*m
			}
		}
		rec := Record{Key: k[0], Val: v}
		if wide {
			rec.Key2 = k[1]
		}
		out[i] = rec
	}
	return out
}

var allAggs = []AggKind{AggSum, AggCount, AggMin, AggMax, AggAvg, AggVar}

func TestGroupByRandom(t *testing.T) {
	src := prng.New(303)
	for _, agg := range allAggs {
		for _, n := range testSizes {
			recs := randRecords(src, n, 10, 500)
			want := refGroupBy(recs, agg, false)
			sp := mem.NewSpace()
			a := mustLoad(t, sp, recs)
			count := groupByOp(testCtx(), sp, NewArena(), a, agg, testSorter(a.Len()))
			if count != len(want) {
				t.Fatalf("agg=%d n=%d: GroupBy count = %d, want %d", agg, n, count, len(want))
			}
			checkRecords(t, Unload(a), want, "GroupBy")
		}
	}
}

// TestGroupByWideKeys is the composite GROUP BY (a, b): every aggregate
// over two full-range key columns, against the plain-Go reference.
func TestGroupByWideKeys(t *testing.T) {
	src := prng.New(313)
	for _, agg := range allAggs {
		for _, n := range testSizes {
			recs := randWideRecords(src, n, 4, 3, 500)
			want := refGroupBy(recs, agg, true)
			sp := mem.NewSpace()
			a := mustLoadW(t, sp, recs, 2)
			count := groupByOp(testCtx(), sp, NewArena(), a, agg, testSorter(a.Len()))
			if count != len(want) {
				t.Fatalf("agg=%d n=%d: wide GroupBy count = %d, want %d", agg, n, count, len(want))
			}
			checkRecords(t, Unload(a), want, "GroupBy wide")
		}
	}
}

// TestGroupByMaxLegalKeys pins the lifted key range: key columns at the
// maximum legal value (KeyLimit-1 = 2^64-2, adjacent to the filler
// sentinel) must sort, group, and aggregate correctly — the Kind-aware
// grouping keeps even maximal keys out of the filler tail.
func TestGroupByMaxLegalKeys(t *testing.T) {
	maxKey := uint64(KeyLimit - 1)
	recs := []Record{
		{Key: maxKey, Key2: maxKey, Val: 10},
		{Key: 0, Key2: 1, Val: 1},
		{Key: maxKey, Key2: maxKey, Val: 30},
		{Key: maxKey, Key2: 0, Val: 7},
	}
	sp := mem.NewSpace()
	a := mustLoadW(t, sp, recs, 2)
	count := groupByOp(testCtx(), sp, NewArena(), a, AggAvg, obliv.SelectionNetwork{})
	want := []Record{
		{Key: maxKey, Key2: maxKey, Val: 20},
		{Key: 0, Key2: 1, Val: 1},
		{Key: maxKey, Key2: 0, Val: 7},
	}
	if count != len(want) {
		t.Fatalf("count = %d, want %d", count, len(want))
	}
	checkRecords(t, Unload(a), want, "GroupBy max keys")
}

func TestJoinRandom(t *testing.T) {
	src := prng.New(404)
	for _, nl := range []int{1, 5, 16, 33} {
		for _, nr := range []int{1, 7, 16, 50} {
			// Left: distinct keys drawn sparsely so some right keys miss.
			perm := src.Perm(3 * nl)
			lrecs := make([]Record, nl)
			for i := range lrecs {
				lrecs[i] = Record{Key: uint64(perm[i]), Val: src.Uint64n(1000)}
			}
			rrecs := randRecords(src, nr, uint64(3*nl), 1000)

			lval := map[uint64]uint64{}
			for _, r := range lrecs {
				lval[r.Key] = r.Val
			}
			var want []Joined
			for _, r := range rrecs {
				if v, ok := lval[r.Key]; ok {
					want = append(want, Joined{Key: r.Key, LeftVal: v, RightVal: r.Val})
				}
			}

			sp := mem.NewSpace()
			left, right := mustLoad(t, sp, lrecs), mustLoad(t, sp, rrecs)
			out, count := Join(testCtx(), sp, NewArena(), left, right, testSorter(obliv.NextPow2(left.Len()+right.Len())))
			if count != len(want) {
				t.Fatalf("nl=%d nr=%d: Join count = %d, want %d", nl, nr, count, len(want))
			}
			got := UnloadJoined(out)
			if len(got) != len(want) {
				t.Fatalf("nl=%d nr=%d: got %d joined records, want %d", nl, nr, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("nl=%d nr=%d: joined record %d = %v, want %v", nl, nr, i, got[i], want[i])
				}
			}
		}
	}
}

// TestJoinWideKeys joins on a two-column key tuple with full-range column
// values: matches require both columns to agree.
func TestJoinWideKeys(t *testing.T) {
	src := prng.New(414)
	lrecs := []Record{
		{Key: 1 << 50, Key2: 0, Val: 100},
		{Key: 1 << 50, Key2: 1, Val: 200},
		{Key: ^uint64(1), Key2: 9, Val: 300},
	}
	var rrecs []Record
	for i := 0; i < 40; i++ {
		r := Record{Key: 1 << 50, Key2: src.Uint64n(3), Val: src.Uint64n(1000)}
		if i%5 == 0 {
			r.Key = ^uint64(1)
			r.Key2 = 9
		}
		rrecs = append(rrecs, r)
	}
	lval := map[[2]uint64]uint64{}
	for _, r := range lrecs {
		lval[[2]uint64{r.Key, r.Key2}] = r.Val
	}
	var want []Joined
	for _, r := range rrecs {
		if v, ok := lval[[2]uint64{r.Key, r.Key2}]; ok {
			want = append(want, Joined{Key: r.Key, Key2: r.Key2, LeftVal: v, RightVal: r.Val})
		}
	}
	sp := mem.NewSpace()
	left, right := mustLoadW(t, sp, lrecs, 2), mustLoadW(t, sp, rrecs, 2)
	out, count := Join(testCtx(), sp, NewArena(), left, right, obliv.SelectionNetwork{})
	if count != len(want) {
		t.Fatalf("wide Join count = %d, want %d", count, len(want))
	}
	got := UnloadJoined(out)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("wide joined record %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestJoinNoMatches(t *testing.T) {
	sp := mem.NewSpace()
	left := mustLoad(t, sp, []Record{{Key: 1, Val: 10}, {Key: 2, Val: 20}})
	right := mustLoad(t, sp, []Record{{Key: 7, Val: 1}, {Key: 8, Val: 2}, {Key: 9, Val: 3}})
	out, count := Join(testCtx(), sp, NewArena(), left, right, obliv.SelectionNetwork{})
	if count != 0 || len(UnloadJoined(out)) != 0 {
		t.Fatalf("expected no matches, got count=%d %v", count, UnloadJoined(out))
	}
}

func TestTopKRandom(t *testing.T) {
	src := prng.New(505)
	for _, n := range testSizes {
		for _, k := range []int{0, 1, n / 2, n, n + 5} {
			recs := make([]Record, n)
			seen := map[uint64]bool{}
			for i := range recs {
				v := src.Uint64n(1 << 30)
				for seen[v] {
					v = src.Uint64n(1 << 30)
				}
				seen[v] = true
				recs[i] = Record{Key: uint64(i), Val: v} // distinct values: exact reference
			}
			want := append([]Record(nil), recs...)
			sort.Slice(want, func(i, j int) bool { return want[i].Val > want[j].Val })
			if k < len(want) {
				want = want[:k]
			}

			sp := mem.NewSpace()
			a := mustLoad(t, sp, recs)
			count := topKOp(testCtx(), sp, NewArena(), a, k, testSorter(a.Len()))
			wantCount := k
			if wantCount > n {
				wantCount = n
			}
			if count != wantCount {
				t.Fatalf("n=%d k=%d: TopK count = %d, want %d", n, k, count, wantCount)
			}
			checkRecords(t, Unload(a), want, "TopK")
		}
	}
}

// TestTopKTiesAndZeros drives the Val==0 / filler key-collision corner: the
// survivors must still be a valid top-k multiset.
func TestTopKTiesAndZeros(t *testing.T) {
	src := prng.New(606)
	for trial := 0; trial < 20; trial++ {
		n := 5 + src.Intn(20)
		k := src.Intn(n + 2)
		recs := make([]Record, n)
		for i := range recs {
			recs[i] = Record{Key: uint64(i), Val: src.Uint64n(3)} // many ties, many zeros
		}
		vals := make([]uint64, n)
		for i, r := range recs {
			vals[i] = r.Val
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] > vals[j] })

		sp := mem.NewSpace()
		a := mustLoad(t, sp, recs)
		count := topKOp(testCtx(), sp, NewArena(), a, k, obliv.SelectionNetwork{})
		got := Unload(a)
		wantCount := k
		if wantCount > n {
			wantCount = n
		}
		if count != wantCount || len(got) != wantCount {
			t.Fatalf("n=%d k=%d: count=%d len=%d, want %d", n, k, count, len(got), wantCount)
		}
		for i, r := range got {
			if r.Val != vals[i] {
				t.Fatalf("n=%d k=%d: survivor %d has val %d, want %d (vals %v, got %v)", n, k, i, r.Val, vals[i], vals, got)
			}
			if recs[r.Key].Val != r.Val {
				t.Fatalf("n=%d k=%d: survivor %v is not an input record", n, k, r)
			}
		}
	}
}

// TestLoadRejectsOutOfRange pins the boundary contract: key columns at the
// filler sentinel, relations beyond MaxRows, and widths outside
// [1, MaxKeyCols] must be rejected with the typed errors. MaxRows is now
// 2^40 — far too large to materialize — so the row bound is exercised
// through the shape check Load itself applies.
func TestLoadRejectsOutOfRange(t *testing.T) {
	sp := mem.NewSpace()
	if _, err := Load(sp, []Record{{Key: KeyLimit, Val: 1}}, 1); !errors.Is(err, ErrKeyTooLarge) {
		t.Fatalf("key = KeyLimit: err = %v, want ErrKeyTooLarge", err)
	}
	if _, err := Load(sp, []Record{{Key: KeyLimit - 1, Val: 1}}, 1); err != nil {
		t.Fatalf("key = KeyLimit-1 (max legal key) rejected: %v", err)
	}
	// A width-1 load ignores column 1, so a sentinel there is legal...
	if _, err := Load(sp, []Record{{Key: 1, Key2: KeyLimit, Val: 1}}, 1); err != nil {
		t.Fatalf("width-1 load rejected ignored column: %v", err)
	}
	// ...but a width-2 load validates it.
	if _, err := Load(sp, []Record{{Key: 1, Key2: KeyLimit, Val: 1}}, 2); !errors.Is(err, ErrKeyTooLarge) {
		t.Fatalf("wide key = KeyLimit: err = %v, want ErrKeyTooLarge", err)
	}
	for _, w := range []int{0, MaxKeyCols + 1} {
		if _, err := Load(sp, []Record{{Key: 1}}, w); !errors.Is(err, ErrBadWidth) {
			t.Fatalf("width %d: err = %v, want ErrBadWidth", w, err)
		}
	}
	if err := CheckShape(MaxRows+1, 1); !errors.Is(err, ErrTooManyRows) {
		t.Fatalf("MaxRows+1 records: err = %v, want ErrTooManyRows", err)
	}
	if err := CheckShape(MaxRows, MaxKeyCols); err != nil {
		t.Fatalf("maximal legal shape rejected: %v", err)
	}
}

// TestErrorMessagesReflectConstants guards the parameterized limit strings:
// the messages must be derived from the active constants, not baked-in
// copies of historical bounds.
func TestErrorMessagesReflectConstants(t *testing.T) {
	for _, tc := range []struct {
		err  error
		want string
	}{
		{ErrKeyTooLarge, "18446744073709551614"}, // KeyLimit-1 = 2^64-2
		{ErrTooManyRows, "2^40"},                 // log2(MaxRows)
		{ErrBadWidth, "[1, 2]"},                  // MaxKeyCols
	} {
		if !strings.Contains(tc.err.Error(), tc.want) {
			t.Errorf("error %q does not mention active constant %q", tc.err, tc.want)
		}
	}
	for _, stale := range []string{"2^40-1", "2^20"} {
		for _, err := range []error{ErrKeyTooLarge, ErrTooManyRows, ErrBadWidth} {
			if strings.Contains(err.Error(), stale) {
				t.Errorf("error %q still bakes in the stale bound %q", err, stale)
			}
		}
	}
}

// TestArenaReuseMatchesFreshScratch runs the same operator pipeline with a
// shared arena and with fresh per-call scratch and asserts identical
// results — scratch reuse must be invisible to the operator semantics.
func TestArenaReuseMatchesFreshScratch(t *testing.T) {
	src := prng.New(909)
	recs := randRecords(src, 100, 12, 1000)
	run := func(ar *Arena) ([]Record, []Record) {
		sp := mem.NewSpace()
		srt := bitonic.CacheAgnostic{}
		a := mustLoad(t, sp, recs)
		distinctOp(testCtx(), sp, ar, a, srt)
		b := mustLoad(t, sp, recs)
		groupByOp(testCtx(), sp, ar, b, AggSum, srt)
		return Unload(a), Unload(b)
	}
	d1, g1 := run(NewArena())
	d2, g2 := run(nil)
	checkRecords(t, d1, d2, "Distinct arena vs fresh")
	checkRecords(t, g1, g2, "GroupBy arena vs fresh")
}

// TestArenaMixedWidths holds one arena across passes of different schedule
// widths (a wide GroupBy between two narrow ones): the shared key backing
// must be re-carved per width without corrupting either.
func TestArenaMixedWidths(t *testing.T) {
	src := prng.New(919)
	narrow := randRecords(src, 90, 9, 500)
	wide := randWideRecords(src, 90, 4, 3, 500)
	ar := NewArena()
	sp := mem.NewSpace()
	srt := bitonic.CacheAgnostic{}

	a := mustLoad(t, sp, narrow)
	groupByOp(testCtx(), sp, ar, a, AggSum, srt)
	b := mustLoadW(t, sp, wide, 2)
	groupByOp(testCtx(), sp, ar, b, AggAvg, srt)
	c := mustLoad(t, sp, narrow)
	groupByOp(testCtx(), sp, ar, c, AggSum, srt)

	checkRecords(t, Unload(a), refGroupBy(narrow, AggSum, false), "narrow before wide")
	checkRecords(t, Unload(b), refGroupBy(wide, AggAvg, true), "wide between narrows")
	checkRecords(t, Unload(c), refGroupBy(narrow, AggSum, false), "narrow after wide")
}

// TestArenaRebindsAcrossSpaces holds one arena across two independent
// address spaces: cached arrays from the first space must not be handed
// out in the second (their addresses would alias the second space's own
// allocations), so the arena must transparently reallocate.
func TestArenaRebindsAcrossSpaces(t *testing.T) {
	ar := NewArena()
	s1 := mem.NewSpace()
	a1 := ar.ElemScratch(s1, 64)
	s2 := mem.NewSpace()
	a2 := ar.ElemScratch(s2, 64)
	if &a1.Data()[0] == &a2.Data()[0] {
		t.Fatal("arena handed out a cached array across address spaces")
	}
	a3 := ar.ElemScratch(s2, 64)
	if &a2.Data()[0] != &a3.Data()[0] {
		t.Fatal("arena failed to reuse its cache within one space")
	}

	// End to end: one arena across two spaces/runs yields the same rows.
	src := prng.New(1001)
	recs := randRecords(src, 80, 9, 500)
	arr := NewArena()
	var got [2][]Record
	for round := 0; round < 2; round++ {
		sp := mem.NewSpace()
		a := mustLoad(t, sp, recs)
		groupByOp(testCtx(), sp, arr, a, AggSum, bitonic.CacheAgnostic{})
		got[round] = Unload(a)
	}
	checkRecords(t, got[1], got[0], "arena across spaces")
}

// TestMarkBoundariesParallelRace stresses the boundary scan with many
// forked leaves so the race detector can see any neighbor read racing a
// write (markBoundaries writes marks via a scratch array for this reason).
func TestMarkBoundariesParallelRace(t *testing.T) {
	src := prng.New(808)
	recs := randRecords(src, 1<<13, 64, 1000)
	forkjoin.RunParallel(8, func(c *forkjoin.Ctx) {
		sp := mem.NewSpace()
		srt := bitonic.CacheAgnostic{}
		a := mustLoad(t, sp, recs)
		if got, want := distinctOp(c, sp, NewArena(), a, srt), 64; got != want {
			t.Errorf("Distinct under parallel pool: %d keys, want %d", got, want)
		}
	})
}

// TestOperatorsParallel smoke-tests every operator under the real
// work-stealing pool (the race detector covers the forking passes),
// including a wide group-by.
func TestOperatorsParallel(t *testing.T) {
	src := prng.New(707)
	recs := randRecords(src, 200, 15, 1000)
	wrecs := randWideRecords(src, 200, 5, 4, 1000)
	forkjoin.RunParallel(4, func(c *forkjoin.Ctx) {
		sp := mem.NewSpace()
		srt := bitonic.CacheAgnostic{}

		a := mustLoad(t, sp, recs)
		compactOp(c, sp, NewArena(), a, func(r Record) bool { return r.Val%2 == 0 }, srt)

		b := mustLoad(t, sp, recs)
		distinctOp(c, sp, nil, b, srt)

		g := mustLoad(t, sp, recs)
		groupByOp(c, sp, NewArena(), g, AggSum, srt)

		gw := mustLoadW(t, sp, wrecs, 2)
		groupByOp(c, sp, NewArena(), gw, AggVar, srt)

		tk := mustLoad(t, sp, recs)
		topKOp(c, sp, NewArena(), tk, 10, srt)

		left := mustLoad(t, sp, []Record{{Key: 1, Val: 5}, {Key: 2, Val: 6}})
		right := mustLoad(t, sp, recs[:50])
		Join(c, sp, NewArena(), left, right, srt)
	})
}
