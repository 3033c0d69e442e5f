package relops

import (
	"fmt"

	"oblivmc/internal/forkjoin"
	"oblivmc/internal/mem"
	"oblivmc/internal/obliv"
)

// Joined is one output record of Join and JoinAll: a right record together
// with the value of the left record sharing its key tuple.
type Joined struct {
	Key, Key2, LeftVal, RightVal uint64
}

// Side tags of the interleaved join work arrays (Join, JoinAll): tagLeft
// sorts before tagRight under the TiePos tie-break, putting each key
// group's left records ahead of its right records.
const (
	tagLeft  = 0
	tagRight = 1
)

// Join is the oblivious sort-merge equi-join of a primary relation left
// (whose key tuples must be distinct; if they are not, the first tuple in
// sorted order wins, as in obliv.SendReceive) with a foreign relation
// right of the same key width. The result relation has length
// NextPow2(len(left)+len(right)) and holds, at the front in right's
// original order, one record per right record whose key tuple appears in
// left — Key/Key2/Val are the right record's, Lbl carries the joined left
// value. The match count is returned (raw read, outside the adversary's
// view).
//
// Construction (§F / [CS17] style): tag and interleave the two relations,
// sort by (key columns..., side, position) so each key group is its left
// record followed by its right records, obliviously propagate the left
// value through the group, then compact the matched right records. Two
// data-independent sorts, one propagation, elementwise passes — the trace
// depends only on (len(left), len(right), width). The (side, position)
// suffix of the logical order is the obliv.TiePos tie-break — the
// elements' (Tag, Aux) read in registers — so the schedule carries only
// the key columns. ar supplies reusable scratch (nil = allocate fresh).
func Join(c *forkjoin.Ctx, sp *mem.Space, ar *Arena, left, right Rel, srt obliv.ScheduledSorter) (Rel, int) {
	if left.W != right.W {
		panic(fmt.Sprintf("relops: join of width-%d and width-%d relations", left.W, right.W))
	}
	w := left.W
	nl, nr := left.Len(), right.Len()
	wLen := obliv.NextPow2(nl + nr)
	wrk := Rel{A: mem.Alloc[obliv.Elem](sp, wLen), W: w} // trailing slots are fillers

	forkjoin.ParallelRange(c, 0, nl, passGrain, func(c *forkjoin.Ctx, lo, hi int) {
		for i := lo; i < hi; i++ {
			e := left.A.Get(c, i)
			e.Tag = tagLeft
			wrk.A.Set(c, i, e)
		}
	})
	forkjoin.ParallelRange(c, 0, nr, passGrain, func(c *forkjoin.Ctx, lo, hi int) {
		for j := lo; j < hi; j++ {
			e := right.A.Get(c, j)
			e.Tag = tagRight
			wrk.A.Set(c, nl+j, e)
		}
	})

	// Sort by (key columns..., left-before-right, position): the key
	// columns are the cached schedule, and TiePos orders equal tuples by
	// (Tag, Aux) — tagLeft < tagRight puts each group's left record first,
	// then right records in original order.
	sortSched(c, sp, ar, wrk.A, keyIdxSched(w), srt)

	// Propagate each key group's left value to the group's right records;
	// matched right records get Mark=1, everything else Mark=0.
	obliv.PropagateFirstBy(c, sp, wrk.A, sameGroup(w),
		func(e obliv.Elem, i int) (uint64, bool) {
			return e.Val, e.Kind == obliv.Real && e.Tag == tagLeft
		},
		func(e obliv.Elem, i int, v uint64, ok bool) obliv.Elem {
			e.Mark = 0
			if e.Kind == obliv.Real && e.Tag == tagRight && ok {
				e.Lbl = v
				e.Mark = 1
			}
			return e
		})

	matched := compactMarked(c, sp, ar, wrk.A, srt)
	return wrk, matched
}

// UnloadJoined extracts the real joined records of a Join result in array
// order (harness operation, outside the adversary's view).
func UnloadJoined(r Rel) []Joined {
	out := make([]Joined, 0, r.Len())
	for _, e := range r.A.Data() {
		if e.Kind == obliv.Real {
			out = append(out, Joined{Key: e.Key, Key2: e.Key2, LeftVal: e.Lbl, RightVal: e.Val})
		}
	}
	return out
}
