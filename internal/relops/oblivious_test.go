package relops

// Obliviousness regression tests (DESIGN.md §3 strategy, as in
// TestCompareExchangeObliviousTrace): run each relational operator on
// different record contents of the same shape (relation sizes and key
// widths) under the metered executor and assert the adversary's views —
// the trace fingerprints — are identical. A divergence means record
// contents leak through the access pattern. The machinery lives in the
// reusable internal/obliv/oblivtest harness; each operator's check is a
// few lines of body construction.

import (
	"testing"

	"oblivmc/internal/bitonic"
	"oblivmc/internal/forkjoin"
	"oblivmc/internal/mem"
	"oblivmc/internal/obliv"
	"oblivmc/internal/obliv/oblivtest"
	"oblivmc/internal/prng"
)

// traceInputs yields record sets of identical shape but wildly different
// contents (different keys, values, duplication structure).
func traceInputs(n int) [][]Record {
	a := make([]Record, n) // all one group, zero values
	b := make([]Record, n) // all distinct keys, big values
	c := make([]Record, n) // random with duplicates
	src := prng.New(99)
	for i := 0; i < n; i++ {
		a[i] = Record{Key: 7, Val: 0}
		b[i] = Record{Key: uint64(i), Val: uint64(1<<35) + uint64(i)}
		c[i] = Record{Key: src.Uint64n(4), Val: src.Uint64n(1 << 30)}
	}
	return [][]Record{a, b, c}
}

// wideTraceInputs yields width-2 record sets of identical shape but wildly
// different contents, including full-range key columns at the maximum
// legal value.
func wideTraceInputs(n int) [][]Record {
	a := make([]Record, n) // one composite group at the sentinel boundary
	b := make([]Record, n) // all distinct tuples across the word range
	c := make([]Record, n) // random duplicated tuples
	src := prng.New(98)
	for i := 0; i < n; i++ {
		a[i] = Record{Key: KeyLimit - 1, Key2: KeyLimit - 1, Val: 0}
		b[i] = Record{Key: uint64(i) << 50, Key2: ^uint64(i*3 + 1), Val: uint64(i)}
		c[i] = Record{Key: src.Uint64n(4) * 0x9e3779b97f4a7c15, Key2: src.Uint64n(3), Val: src.Uint64n(1 << 30)}
	}
	return [][]Record{a, b, c}
}

// opBodies lifts one operator invocation over every content variant at a
// fixed width, yielding the harness bodies for FingerprintEqual.
func opBodies(t *testing.T, inputs [][]Record, w int, op func(c *forkjoin.Ctx, sp *mem.Space, r Rel)) []oblivtest.Body {
	bodies := make([]oblivtest.Body, len(inputs))
	for i, recs := range inputs {
		recs := recs
		bodies[i] = func(c *forkjoin.Ctx, sp *mem.Space) {
			op(c, sp, mustLoadW(t, sp, recs, w))
		}
	}
	return bodies
}

func TestCompactObliviousTrace(t *testing.T) {
	srt := bitonic.CacheAgnostic{}
	oblivtest.FingerprintEqual(t, "Compact", opBodies(t, traceInputs(64), 1,
		func(c *forkjoin.Ctx, sp *mem.Space, r Rel) {
			compactOp(c, sp, NewArena(), r, func(rec Record) bool { return rec.Val%2 == 0 }, srt)
		})...)
}

func TestDistinctObliviousTrace(t *testing.T) {
	srt := bitonic.CacheAgnostic{}
	oblivtest.FingerprintEqual(t, "Distinct", opBodies(t, traceInputs(64), 1,
		func(c *forkjoin.Ctx, sp *mem.Space, r Rel) {
			distinctOp(c, sp, NewArena(), r, srt)
		})...)
}

func TestGroupByObliviousTrace(t *testing.T) {
	srt := bitonic.CacheAgnostic{}
	for _, agg := range allAggs {
		oblivtest.FingerprintEqual(t, "GroupBy", opBodies(t, traceInputs(64), 1,
			func(c *forkjoin.Ctx, sp *mem.Space, r Rel) {
				groupByOp(c, sp, NewArena(), r, agg, srt)
			})...)
	}
}

// TestWideKeyObliviousTrace is the wide-key trace regression: width-2
// operators (GroupBy under every aggregate, Distinct) must produce
// identical fingerprints across same-shape datasets whose key columns
// differ wildly — including columns pinned at the maximum legal value.
func TestWideKeyObliviousTrace(t *testing.T) {
	srt := bitonic.CacheAgnostic{}
	inputs := wideTraceInputs(64)
	for _, agg := range allAggs {
		oblivtest.FingerprintEqual(t, "GroupBy wide", opBodies(t, inputs, 2,
			func(c *forkjoin.Ctx, sp *mem.Space, r Rel) {
				groupByOp(c, sp, NewArena(), r, agg, srt)
			})...)
	}
	oblivtest.FingerprintEqual(t, "Distinct wide", opBodies(t, inputs, 2,
		func(c *forkjoin.Ctx, sp *mem.Space, r Rel) {
			distinctOp(c, sp, NewArena(), r, srt)
		})...)
}

// TestWideTraceDependsOnWidth is the sanity inverse for the schema width:
// the same records loaded at width 1 and width 2 must yield different
// views (the wide schedule carries one more word per element), confirming
// the fingerprint is sensitive to the public width.
func TestWideTraceDependsOnWidth(t *testing.T) {
	srt := bitonic.CacheAgnostic{}
	recs := traceInputs(64)[2]
	body := func(w int) oblivtest.Body {
		return func(c *forkjoin.Ctx, sp *mem.Space) {
			groupByOp(c, sp, NewArena(), mustLoadW(t, sp, recs, w), AggSum, srt)
		}
	}
	oblivtest.Different(t, "GroupBy width", body(1), body(2))
}

// joinBodies pairs each right-content variant with a same-shape left
// relation for the join trace checks.
func joinBodies(t *testing.T, lefts, rights [][]Record, w int, op func(c *forkjoin.Ctx, sp *mem.Space, left, right Rel)) []oblivtest.Body {
	bodies := make([]oblivtest.Body, len(rights))
	for i := range rights {
		l, r := lefts[i], rights[i]
		bodies[i] = func(c *forkjoin.Ctx, sp *mem.Space) {
			op(c, sp, mustLoadW(t, sp, l, w), mustLoadW(t, sp, r, w))
		}
	}
	return bodies
}

func TestJoinObliviousTrace(t *testing.T) {
	srt := bitonic.CacheAgnostic{}
	lefts := [][]Record{
		{{Key: 7, Val: 0}, {Key: 8, Val: 0}, {Key: 9, Val: 0}},
		{{Key: 0, Val: 1 << 30}, {Key: 1, Val: 2}, {Key: 2, Val: 3}},
		{{Key: 100, Val: 5}, {Key: 200, Val: 6}, {Key: 300, Val: 7}},
	}
	oblivtest.FingerprintEqual(t, "Join", joinBodies(t, lefts, traceInputs(48), 1,
		func(c *forkjoin.Ctx, sp *mem.Space, left, right Rel) {
			Join(c, sp, NewArena(), left, right, srt)
		})...)
}

// TestWideJoinObliviousTrace extends the join trace test to width-2 key
// tuples.
func TestWideJoinObliviousTrace(t *testing.T) {
	srt := bitonic.CacheAgnostic{}
	lefts := [][]Record{
		{{Key: KeyLimit - 1, Key2: KeyLimit - 1, Val: 0}, {Key: 8, Key2: 1, Val: 0}, {Key: 9, Key2: 2, Val: 0}},
		{{Key: 0, Key2: 0, Val: 1 << 30}, {Key: 1 << 50, Key2: 5, Val: 2}, {Key: 2, Key2: 2, Val: 3}},
		{{Key: 100, Key2: 9, Val: 5}, {Key: 200, Key2: 8, Val: 6}, {Key: 300, Key2: 7, Val: 7}},
	}
	oblivtest.FingerprintEqual(t, "Join wide", joinBodies(t, lefts, wideTraceInputs(48), 2,
		func(c *forkjoin.Ctx, sp *mem.Space, left, right Rel) {
			Join(c, sp, NewArena(), left, right, srt)
		})...)
}

// joinAllTraceLefts yields left relations of one shape whose duplication
// structures differ as wildly as the right-side traceInputs: the match
// counts of the three instances differ by orders of magnitude, which is
// exactly what must NOT show in the view.
func joinAllTraceLefts(n int, wide bool) [][]Record {
	a := make([]Record, n) // every left matches every all-equal right
	b := make([]Record, n) // distinct keys: at most one match per right
	c := make([]Record, n) // random duplicated keys
	src := prng.New(97)
	for i := 0; i < n; i++ {
		a[i] = Record{Key: 7, Val: uint64(i)}
		b[i] = Record{Key: uint64(i) << 40, Val: uint64(i)}
		c[i] = Record{Key: src.Uint64n(4), Val: src.Uint64n(1 << 30)}
		if wide {
			a[i].Key2 = KeyLimit - 1
			b[i].Key2 = ^uint64(3*i + 1)
			c[i].Key2 = src.Uint64n(3)
		}
	}
	return [][]Record{a, b, c}
}

// TestJoinAllObliviousTrace is the tentpole acceptance check at width 1:
// JoinAll's view must be a function of (len(left), len(right), width,
// maxOut) only — here the three same-shape instances produce match counts
// from 0 to len(left)*len(right) and identical fingerprints. Both the full
// operator and the planner's deferred variant are checked.
func TestJoinAllObliviousTrace(t *testing.T) {
	srt := bitonic.CacheAgnostic{}
	const maxOut = 12 * 24 // covers the all-equal cross product
	lefts, rights := joinAllTraceLefts(12, false), traceInputs(24)
	oblivtest.FingerprintEqual(t, "JoinAll", joinBodies(t, lefts, rights, 1,
		func(c *forkjoin.Ctx, sp *mem.Space, left, right Rel) {
			if _, _, err := JoinAll(c, sp, NewArena(), left, right, maxOut, srt); err != nil {
				t.Fatal(err)
			}
		})...)
	oblivtest.FingerprintEqual(t, "JoinAllDeferred", joinBodies(t, lefts, rights, 1,
		func(c *forkjoin.Ctx, sp *mem.Space, left, right Rel) {
			if _, _, err := JoinAllDeferred(c, sp, NewArena(), left, right, maxOut, srt); err != nil {
				t.Fatal(err)
			}
		})...)
}

// TestWideJoinAllObliviousTrace is the width-2 half of the acceptance
// criterion, with key columns up to the sentinel boundary.
func TestWideJoinAllObliviousTrace(t *testing.T) {
	srt := bitonic.CacheAgnostic{}
	const maxOut = 12 * 24 // covers the all-equal cross product
	oblivtest.FingerprintEqual(t, "JoinAll wide",
		joinBodies(t, joinAllTraceLefts(12, true), wideTraceInputs(24), 2,
			func(c *forkjoin.Ctx, sp *mem.Space, left, right Rel) {
				if _, _, err := JoinAll(c, sp, NewArena(), left, right, maxOut, srt); err != nil {
					t.Fatal(err)
				}
			})...)
}

// TestJoinAllTraceDependsOnCapacity is the sanity inverse for the public
// capacity: maxOut is part of the shape, so changing it must change the
// view even when contents and match counts are identical.
func TestJoinAllTraceDependsOnCapacity(t *testing.T) {
	srt := bitonic.CacheAgnostic{}
	lrecs, rrecs := joinAllTraceLefts(8, false)[2], traceInputs(16)[2]
	body := func(maxOut int) oblivtest.Body {
		return func(c *forkjoin.Ctx, sp *mem.Space) {
			if _, _, err := JoinAll(c, sp, NewArena(), mustLoad(t, sp, lrecs), mustLoad(t, sp, rrecs), maxOut, srt); err != nil {
				t.Fatal(err)
			}
		}
	}
	oblivtest.Different(t, "JoinAll capacity", body(64), body(128))
}

// TestJoinAllLockstep drives the shape-randomized lockstep runner: random
// (nl, nr, width, maxOut) shapes, three content variants per shape, equal
// views within every round. This is the harness pattern every future
// operator gets for free.
func TestJoinAllLockstep(t *testing.T) {
	srt := bitonic.CacheAgnostic{}
	oblivtest.Lockstep(t, "JoinAll", 4, 3, 2026,
		func(c *forkjoin.Ctx, sp *mem.Space, shape, content *prng.Source) {
			nl := 1 + shape.Intn(24)
			nr := 1 + shape.Intn(24)
			w := 1 + shape.Intn(MaxKeyCols)
			dist := shape.Intn(distKinds)
			maxOut := nl*nr + shape.Intn(16) // capacity covers any match count
			lrecs := genRecords(content, nl, w, dist)
			rrecs := genRecords(content, nr, w, dist)
			left, right := mustLoadW(t, sp, lrecs, w), mustLoadW(t, sp, rrecs, w)
			if _, _, err := JoinAll(c, sp, NewArena(), left, right, maxOut, srt); err != nil {
				t.Fatal(err)
			}
		})
}

func TestTopKObliviousTrace(t *testing.T) {
	srt := bitonic.CacheAgnostic{}
	oblivtest.FingerprintEqual(t, "TopK", opBodies(t, traceInputs(64), 1,
		func(c *forkjoin.Ctx, sp *mem.Space, r Rel) {
			topKOp(c, sp, NewArena(), r, 5, srt)
		})...)
}

// TestTraceDependsOnShape is the sanity inverse: a different relation size
// must (and does) change the view, confirming the fingerprint is sensitive.
func TestTraceDependsOnShape(t *testing.T) {
	srt := bitonic.CacheAgnostic{}
	body := func(n int) oblivtest.Body {
		recs := traceInputs(n)[2]
		return func(c *forkjoin.Ctx, sp *mem.Space) {
			groupByOp(c, sp, NewArena(), mustLoad(t, sp, recs), AggSum, srt)
		}
	}
	oblivtest.Different(t, "GroupBy size", body(32), body(64))
}

// TestScheduleWordBounds guards the schedule invariants that replaced the
// old packed-composite bound: every schedule stays within the comparator's
// stack budget, fillers emit the InfKey sentinel in every word, key sorts
// carry exactly one plane per column with the TiePos (position) tie-break,
// and a maximal legal real record still sorts strictly before a filler.
func TestScheduleWordBounds(t *testing.T) {
	e := obliv.Elem{Key: KeyLimit - 1, Key2: KeyLimit - 1, Aux: MaxRows - 1, Tag: 1, Kind: obliv.Real}
	var buf, fill [obliv.MaxScheduleWidth]uint64
	for _, sc := range []schedule{
		keyIdxSched(1), keyIdxSched(2), posSched(), descValSched(), markSched(),
		joinLiSched(1), joinLiSched(2),
	} {
		if sc.w > obliv.MaxScheduleWidth {
			t.Fatalf("schedule width %d exceeds MaxScheduleWidth", sc.w)
		}
		filler := fill[:sc.w]
		sc.emit(obliv.Elem{}, filler)
		for w := 0; w < sc.w; w++ {
			if filler[w] != obliv.InfKey {
				t.Fatalf("filler schedule word %d is %x, want the InfKey sentinel", w, filler[w])
			}
		}
	}
	for _, w := range []int{1, 2} {
		sc := keyIdxSched(w)
		if sc.w != w || sc.tie != obliv.TiePos {
			t.Fatalf("keyIdxSched(%d): width %d tie %d, want one plane per column with TiePos", w, sc.w, sc.tie)
		}
		real := buf[:sc.w]
		sc.emit(e, real)
		// KeyLimit caps columns below the sentinel, so even the maximal
		// record's first word beats a filler's.
		if real[0] >= obliv.InfKey {
			t.Fatalf("maximal real record's key word %x reaches the filler sentinel", real[0])
		}
		// The join's (key..., left index) schedule carries one extra word.
		if js := joinLiSched(w); js.w != w+1 || js.tie != obliv.TiePos {
			t.Fatalf("joinLiSched(%d): width %d tie %d, want key columns plus the index plane with TiePos", w, js.w, js.tie)
		}
	}
	// Compaction schedules carry positions as words under the same
	// sentinel, which is what keeps MaxRows below InfKey.
	real := buf[:1]
	posSched().emit(e, real)
	if real[0] != MaxRows-1 || uint64(MaxRows) >= obliv.InfKey {
		t.Fatalf("position word %x out of range for MaxRows %x", real[0], uint64(MaxRows))
	}
}
