package relops

// Property tests (the testing/quick style, on internal/prng coins): every
// relational operator is fuzzed against a plain-Go reference implementation
// over randomized sizes, key widths, and key distributions — including the
// duplicate-heavy and all-equal distributions where the many-to-many join's
// expansion factor is largest. The same checkers back the native fuzz
// targets in fuzz_test.go, so `go test` replays the corpus and CI's
// `-fuzz` smoke explores beyond it.

import (
	"errors"
	"testing"

	"oblivmc/internal/mem"
	"oblivmc/internal/obliv"
	"oblivmc/internal/prng"
)

// Key distributions of the generated relations.
const (
	distSpread   = iota // many distinct keys, sparse duplicates
	distDupHeavy        // few keys, heavy duplication
	distAllEqual        // a single key tuple: worst-case expansion
	distKinds
)

// genRecords draws n width-w records under the given key distribution.
// Column values are scaled by large odd multipliers so wide keys exercise
// the full uint64 range.
func genRecords(src *prng.Source, n, w, dist int) []Record {
	var spread1, spread2 uint64
	switch dist {
	case distSpread:
		spread1, spread2 = uint64(3*n+1), 5
	case distDupHeavy:
		spread1, spread2 = uint64(n/4)+1, 2
	default: // distAllEqual
		spread1, spread2 = 1, 1
	}
	base1 := src.Uint64n(1 << 20)
	base2 := src.Uint64n(1 << 20)
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{
			Key: (base1 + src.Uint64n(spread1)) * 0x9e3779b97f4a7c15 >> 1,
			Val: src.Uint64n(1 << 30),
		}
		if w > 1 {
			recs[i].Key2 = (base2 + src.Uint64n(spread2)) * 0x517cc1b727220a95 >> 1
		}
	}
	return recs
}

// sameKey reports whether two records share their width-w key tuple.
func sameKey(a, b Record, w int) bool {
	return a.Key == b.Key && (w < 2 || a.Key2 == b.Key2)
}

// refJoinAll is the nested-loop reference of the many-to-many equi-join in
// JoinAll's public output order: for each right record in input order, its
// matches in the left records' input order.
func refJoinAll(lrecs, rrecs []Record, w int) []Joined {
	var out []Joined
	for _, r := range rrecs {
		for _, l := range lrecs {
			if sameKey(l, r, w) {
				j := Joined{Key: r.Key, LeftVal: l.Val, RightVal: r.Val}
				if w > 1 {
					j.Key2 = r.Key2
				}
				out = append(out, j)
			}
		}
	}
	return out
}

func checkJoined(t testing.TB, got, want []Joined, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d joined records, want %d\ngot  %v\nwant %v", label, len(got), len(want), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: joined record %d = %v, want %v", label, i, got[i], want[i])
		}
	}
}

// checkJoinAll drives one randomized JoinAll instance against the
// nested-loop reference: an exact-capacity run, a slack run, and — when
// there are at least two matches — an undersized run that must report
// ErrJoinOverflow with the true match count.
func checkJoinAll(t testing.TB, seed uint64, nl, nr, w, dist int) {
	t.Helper()
	src := prng.New(seed)
	lrecs := genRecords(src, nl, w, dist)
	rrecs := genRecords(src, nr, w, dist)
	want := refJoinAll(lrecs, rrecs, w)
	m := len(want)

	run := func(maxOut int) (Rel, int, error) {
		sp := mem.NewSpace()
		left := mustLoadW(t, sp, lrecs, w)
		right := mustLoadW(t, sp, rrecs, w)
		srt := testSorter(obliv.NextPow2(obliv.NextPow2(left.Len()+right.Len()) + obliv.NextPow2(maxOut)))
		return JoinAll(testCtx(), sp, NewArena(), left, right, maxOut, srt)
	}

	for _, maxOut := range []int{max(1, m), m + 1 + int(src.Uint64n(8))} {
		out, count, err := run(maxOut)
		if err != nil {
			t.Fatalf("seed=%d nl=%d nr=%d w=%d dist=%d maxOut=%d: %v", seed, nl, nr, w, dist, maxOut, err)
		}
		if count != m {
			t.Fatalf("seed=%d nl=%d nr=%d w=%d dist=%d: count = %d, want %d", seed, nl, nr, w, dist, count, m)
		}
		checkJoined(t, UnloadJoined(out), want, "JoinAll")
	}
	if m >= 2 {
		_, count, err := run(m - 1)
		if !errors.Is(err, ErrJoinOverflow) {
			t.Fatalf("seed=%d nl=%d nr=%d w=%d dist=%d: maxOut=%d with %d matches: err = %v, want ErrJoinOverflow",
				seed, nl, nr, w, dist, m-1, m, err)
		}
		if count != m {
			t.Fatalf("overflow must still report the true match count: got %d, want %d", count, m)
		}
	}
}

// checkJoin drives the primary×foreign Join against its reference (left
// keys deduplicated first, as Join requires).
func checkJoin(t testing.TB, seed uint64, nl, nr, w, dist int) {
	t.Helper()
	src := prng.New(seed)
	raw := genRecords(src, nl, w, dist)
	var lrecs []Record
	for _, r := range raw { // keep the first record of each key tuple
		dup := false
		for _, k := range lrecs {
			if sameKey(k, r, w) {
				dup = true
				break
			}
		}
		if !dup {
			lrecs = append(lrecs, r)
		}
	}
	rrecs := genRecords(src, nr, w, dist)
	want := refJoinAll(lrecs, rrecs, w) // distinct left keys: same multiset, same order

	sp := mem.NewSpace()
	left := mustLoadW(t, sp, lrecs, w)
	right := mustLoadW(t, sp, rrecs, w)
	out, count := Join(testCtx(), sp, NewArena(), left, right,
		testSorter(obliv.NextPow2(left.Len()+right.Len())))
	if count != len(want) {
		t.Fatalf("seed=%d nl=%d nr=%d w=%d dist=%d: Join count = %d, want %d", seed, nl, nr, w, dist, count, len(want))
	}
	checkJoined(t, UnloadJoined(out), want, "Join")
}

// checkGroupBy drives GroupBy under agg against refGroupBy.
func checkGroupBy(t testing.TB, seed uint64, n, w, dist int, agg AggKind) {
	t.Helper()
	src := prng.New(seed)
	recs := genRecords(src, n, w, dist)
	want := refGroupBy(recs, agg, w > 1)
	sp := mem.NewSpace()
	a := mustLoadW(t, sp, recs, w)
	count := groupByOp(testCtx(), sp, NewArena(), a, agg, testSorter(a.Len()))
	if count != len(want) {
		t.Fatalf("seed=%d n=%d w=%d dist=%d agg=%d: GroupBy count = %d, want %d", seed, n, w, dist, agg, count, len(want))
	}
	checkRecords(t, Unload(a), want, "GroupBy property")
}

// checkDistinct drives Distinct against a first-occurrence reference.
func checkDistinct(t testing.TB, seed uint64, n, w, dist int) {
	t.Helper()
	src := prng.New(seed)
	recs := genRecords(src, n, w, dist)
	var want []Record
	for _, r := range recs {
		dup := false
		for _, k := range want {
			if sameKey(k, r, w) {
				dup = true
				break
			}
		}
		if !dup {
			want = append(want, r)
		}
	}
	sp := mem.NewSpace()
	a := mustLoadW(t, sp, recs, w)
	count := distinctOp(testCtx(), sp, NewArena(), a, testSorter(a.Len()))
	if count != len(want) {
		t.Fatalf("seed=%d n=%d w=%d dist=%d: Distinct count = %d, want %d", seed, n, w, dist, count, len(want))
	}
	checkRecords(t, Unload(a), want, "Distinct property")
}

// propSizes keeps the randomized relations small enough for the exact
// selection-network sorter while still crossing power-of-two paddings.
var propSizes = []int{1, 2, 5, 9, 17, 24}

func TestJoinAllProperty(t *testing.T) {
	seed := uint64(0xA11)
	for _, dist := range []int{distSpread, distDupHeavy, distAllEqual} {
		for _, w := range []int{1, 2} {
			for _, nl := range propSizes {
				for _, nr := range propSizes {
					seed++
					checkJoinAll(t, seed, nl, nr, w, dist)
				}
			}
		}
	}
}

func TestJoinProperty(t *testing.T) {
	seed := uint64(0xB22)
	for _, dist := range []int{distSpread, distDupHeavy, distAllEqual} {
		for _, w := range []int{1, 2} {
			for _, nl := range propSizes {
				for _, nr := range propSizes {
					seed++
					checkJoin(t, seed, nl, nr, w, dist)
				}
			}
		}
	}
}

func TestGroupByProperty(t *testing.T) {
	seed := uint64(0xC33)
	for _, dist := range []int{distSpread, distDupHeavy, distAllEqual} {
		for _, w := range []int{1, 2} {
			for _, agg := range allAggs {
				for _, n := range propSizes {
					seed++
					checkGroupBy(t, seed, n, w, dist, agg)
				}
			}
		}
	}
}

func TestDistinctProperty(t *testing.T) {
	seed := uint64(0xD44)
	for _, dist := range []int{distSpread, distDupHeavy, distAllEqual} {
		for _, w := range []int{1, 2} {
			for _, n := range propSizes {
				seed++
				checkDistinct(t, seed, n, w, dist)
			}
		}
	}
}
