package relops

// Shuffle-backend tests: (a) output equivalence — under the strict
// relational orders (position tie-break everywhere) every operator's
// surviving records are identical under the shuffle-then-sort and keyed
// bitonic backends, across randomized sizes, widths, and duplicate-heavy
// key distributions; (b) the trace guarantees the shuffle backend makes at
// a fixed seed — value-independence of the fingerprint (key *order*
// independence is distributional, supplied by the secret permutation; the
// variants below therefore vary values and payloads while preserving the
// rank structure, and the arbitrary-content fingerprint checks stay pinned
// to the bitonic backend in oblivious_test.go).

import (
	"testing"

	"oblivmc/internal/bitonic"
	"oblivmc/internal/core"
	"oblivmc/internal/forkjoin"
	"oblivmc/internal/mem"
	"oblivmc/internal/obliv"
	"oblivmc/internal/obliv/oblivtest"
	"oblivmc/internal/prng"
)

// shuffleSorter forces the shuffle composition at every size; fresh per
// run (the sorter counts its sorts).
func shuffleSorter(seed uint64) obliv.ScheduledSorter {
	return &core.ShuffleSorter{FixedSeed: &seed, Crossover: 2}
}

// checkGroupByBackends runs one GroupBy instance under both backends and
// requires identical surviving records (also the body of
// FuzzGroupByBackends).
func checkGroupByBackends(t testing.TB, seed, sortSeed uint64, n, w, dist int, agg AggKind) {
	t.Helper()
	src := prng.New(seed)
	recs := genRecords(src, n, w, dist)
	run := func(srt obliv.ScheduledSorter) []Record {
		sp := mem.NewSpace()
		a := mustLoadW(t, sp, recs, w)
		groupByOp(testCtx(), sp, NewArena(), a, agg, srt)
		return Unload(a)
	}
	checkRecords(t, run(shuffleSorter(sortSeed)), run(bitonic.CacheAgnostic{}), "GroupBy backends")
}

// TestBackendEquivalenceProperty sweeps GroupBy, Distinct, Compact, and
// JoinAll over randomized sizes, both widths, and all key distributions
// (including duplicate-heavy and all-equal), asserting record-identical
// output between the backends.
func TestBackendEquivalenceProperty(t *testing.T) {
	sizes := []int{1, 2, 5, 9, 17, 24, 64, 100}
	seed := uint64(0xE0)
	for _, dist := range []int{distSpread, distDupHeavy, distAllEqual} {
		for _, w := range []int{1, 2} {
			for _, n := range sizes {
				seed++
				checkGroupByBackends(t, seed, seed*3, n, w, dist, allAggs[int(seed)%len(allAggs)])

				src := prng.New(seed ^ 0xD15)
				recs := genRecords(src, n, w, dist)
				runOp := func(srt obliv.ScheduledSorter, op func(c *forkjoin.Ctx, sp *mem.Space, r Rel, srt obliv.ScheduledSorter)) []Record {
					sp := mem.NewSpace()
					r := mustLoadW(t, sp, recs, w)
					op(testCtx(), sp, r, srt)
					return Unload(r)
				}
				distinct := func(c *forkjoin.Ctx, sp *mem.Space, r Rel, srt obliv.ScheduledSorter) {
					distinctOp(c, sp, NewArena(), r, srt)
				}
				compact := func(c *forkjoin.Ctx, sp *mem.Space, r Rel, srt obliv.ScheduledSorter) {
					compactOp(c, sp, NewArena(), r, func(rec Record) bool { return rec.Val%3 != 0 }, srt)
				}
				checkRecords(t, runOp(shuffleSorter(seed), distinct), runOp(bitonic.CacheAgnostic{}, distinct), "Distinct backends")
				checkRecords(t, runOp(shuffleSorter(seed), compact), runOp(bitonic.CacheAgnostic{}, compact), "Compact backends")

				if n >= 2 {
					lrecs := genRecords(src, (n+1)/2, w, dist)
					maxOut := len(lrecs)*n + 1
					runJoin := func(srt obliv.ScheduledSorter) []Joined {
						sp := mem.NewSpace()
						l := mustLoadW(t, sp, lrecs, w)
						r := mustLoadW(t, sp, recs, w)
						out, _, err := JoinAll(testCtx(), sp, NewArena(), l, r, maxOut, srt)
						if err != nil {
							t.Fatal(err)
						}
						return UnloadJoined(out)
					}
					checkJoined(t, runJoin(shuffleSorter(seed)), runJoin(bitonic.CacheAgnostic{}), "JoinAll backends")
				}
			}
		}
	}
}

// rankedRecords builds duplicate-heavy records whose key *ranks* are fixed
// by the shape (i%groups) while the numeric key values and payloads come
// from scale/bias/valSeed — the content axis the shuffle backend's
// fixed-seed fingerprint must be blind to.
func rankedRecords(n, w int, scale, bias, valSeed uint64) []Record {
	recs := make([]Record, n)
	for i := range recs {
		rank := uint64(i % 7)
		recs[i] = Record{Key: rank*scale + bias, Val: prng.Mix64(valSeed + uint64(i))}
		if w > 1 {
			recs[i].Key2 = uint64(i%3)*scale + bias
		}
	}
	return recs
}

// TestShuffleBackendFixedSeedTraceValueIndependent is the relational half
// of the acceptance criterion: at a fixed sorter seed, a full GroupBy
// pipeline under the forced shuffle backend produces identical trace
// fingerprints across inputs whose key values and payloads differ wildly
// but whose rank structure agrees — at every tested key width.
func TestShuffleBackendFixedSeedTraceValueIndependent(t *testing.T) {
	const n = 48
	for _, w := range []int{1, 2} {
		for _, agg := range []AggKind{AggSum, AggAvg} {
			body := func(scale, bias, valSeed uint64) oblivtest.Body {
				return func(c *forkjoin.Ctx, sp *mem.Space) {
					r := mustLoadW(t, sp, rankedRecords(n, w, scale, bias, valSeed), w)
					groupByOp(c, sp, NewArena(), r, agg, shuffleSorter(0xF00D))
				}
			}
			oblivtest.FingerprintEqual(t, "GroupBy shuffle backend",
				body(1, 0, 1),
				body(1<<40, 9, 0xBEEF),
				body(0x9e3779b97f4a7c15>>2, 1<<33, 77),
			)
		}
	}
}

// TestShuffleBackendLockstep drives the shape-randomized lockstep runner
// under the forced shuffle backend: within a round every variant shares
// the shape-drawn sizes, widths, AND key ranks (keys come from the shape
// source — under shuffle-then-sort the key order is exactly the quantity
// whose hiding is distributional rather than per-seed), while payload
// values vary per variant. Views within a round must agree.
func TestShuffleBackendLockstep(t *testing.T) {
	oblivtest.Lockstep(t, "GroupBy shuffle", 4, 3, 2027,
		func(c *forkjoin.Ctx, sp *mem.Space, shape, content *prng.Source) {
			n := 1 + shape.Intn(48)
			w := 1 + shape.Intn(MaxKeyCols)
			recs := make([]Record, n)
			for i := range recs {
				recs[i] = Record{
					Key:  shape.Uint64n(6) * 0x9e3779b97f4a7c15 >> 1,
					Key2: shape.Uint64n(3),
					Val:  content.Uint64n(1 << 30), // the secret content axis
				}
			}
			r := mustLoadW(t, sp, recs, w)
			groupByOp(c, sp, NewArena(), r, AggSum, shuffleSorter(0xCAFE))
		})
}

// TestShuffleBackendTraceShapeSensitive is the sanity inverse: the forced
// shuffle backend's view must still change with the public shape.
func TestShuffleBackendTraceShapeSensitive(t *testing.T) {
	body := func(n int) oblivtest.Body {
		return func(c *forkjoin.Ctx, sp *mem.Space) {
			r := mustLoadW(t, sp, rankedRecords(n, 1, 1, 0, 1), 1)
			groupByOp(c, sp, NewArena(), r, AggSum, shuffleSorter(1))
		}
	}
	oblivtest.Different(t, "GroupBy shuffle size", body(24), body(48))
}
