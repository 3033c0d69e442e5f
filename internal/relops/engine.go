package relops

import (
	"oblivmc/internal/forkjoin"
	"oblivmc/internal/mem"
	"oblivmc/internal/obliv"
	"oblivmc/internal/plan"
)

// Execute runs the physical pass sequence pl (produced by plan.Build from a
// public query shape) over the relation r, returning the survivor count
// (raw read, outside the adversary's view). pred is the filter predicate
// referenced by OpFilterMark / WithFilter ops (nil when the shape has no
// filter); it must be a pure function of the record.
//
// Execute is the one relational executor: a fused plan (plan.Build), a
// staged one (plan.BuildStaged) and a single operator — the one-stage plan
// of its shape — all run here. Every pass is a data-independent primitive,
// so the trace of a pipeline is a function of (len(r), r.W, pl) only — and
// pl itself is a function of the public query shape, which includes the
// key width. ar supplies reusable scratch (nil = allocate fresh).
func Execute(c *forkjoin.Ctx, sp *mem.Space, ar *Arena, r Rel, pl plan.Plan, pred func(Record) bool, srt obliv.ScheduledSorter) int {
	for _, op := range pl.Ops {
		// Cancellation checkpoint between passes: the pass boundary is
		// public plan shape, so an abort here reveals only the pass index.
		c.Check("relops.pass")
		switch op.Kind {
		case plan.OpFilterMark:
			filterMark(c, r.A, pred)
		case plan.OpSortKey:
			sortSched(c, sp, ar, r.A, keyIdxSched(r.W), srt)
		case plan.OpDedup:
			dedupDrop(c, sp, ar, r, false, 0, filterOf(op, pred))
		case plan.OpAggregate:
			aggregateDrop(c, sp, ar, r, AggKind(op.Agg), filterOf(op, pred))
		case plan.OpDedupAggregate:
			dedupDrop(c, sp, ar, r, true, AggKind(op.Agg), filterOf(op, pred))
		case plan.OpSortValDesc:
			sortSched(c, sp, ar, r.A, descValSched(), srt)
		case plan.OpTopK:
			rankCut(c, sp, ar, r.A, op.K)
		case plan.OpCompactPos:
			// Every earlier pass zeroes the records it drops, so the sort
			// alone restores the public output order: survivors at the
			// front by original position, zero fillers at the tail.
			sortSched(c, sp, ar, r.A, posSched(), srt)
		case plan.OpJoinAll:
			// The join stage is binary: the query layer, which holds both
			// relations, runs JoinAll/JoinAllDeferred and hands Execute the
			// remaining unary passes.
			panic("relops: OpJoinAll must be executed by the query layer, not the fused executor")
		}
	}
	return countReal(r.A)
}

// recordOf extracts the relational record carried by a real element.
func recordOf(e obliv.Elem) Record {
	return Record{Key: e.Key, Key2: e.Key2, Val: e.Val}
}

// filterOf returns the predicate an op's elementwise pass must apply, or
// nil when the op carries no pushed-down filter.
func filterOf(op plan.Op, pred func(Record) bool) func(Record) bool {
	if op.WithFilter {
		return pred
	}
	return nil
}

// filterMark drops records failing pred to fillers in one fixed
// elementwise pass (rule 1: no compaction sort — a later sort carries the
// fillers to the tail). Every slot is read and rewritten regardless of the
// predicate's outcome.
func filterMark(c *forkjoin.Ctx, a *mem.Array[obliv.Elem], pred func(Record) bool) {
	forkjoin.ParallelRange(c, 0, a.Len(), passGrain, func(c *forkjoin.Ctx, lo, hi int) {
		for i := lo; i < hi; i++ {
			e := a.Get(c, i)
			c.Op(1)
			if e.Kind == obliv.Real && !pred(recordOf(e)) {
				e = obliv.Elem{}
			}
			a.Set(c, i, e)
		}
	})
}

// dedupDrop marks the key-group heads of a key-sorted relation and drops
// everything else to fillers in place. With withAgg it is the fused
// Distinct→GroupBy pass: each surviving head carries the aggregate of the
// deduplicated relation, in which every group is the single head record
// (AggCount → 1, AggSum/Min/Max/Avg → the head's own value, AggVar → 0).
// pred, when non-nil, is the pushed-down key-only filter merged into the
// same pass.
//
// The relation stays key-sorted among real records; dropped slots become
// interleaved fillers. That is safe for every later pass: the sorts key
// fillers to the InfKey sentinel in every word, and after deduplication
// every real key group is a singleton, so a filler can never split a
// group.
func dedupDrop(c *forkjoin.Ctx, sp *mem.Space, ar *Arena, r Rel, withAgg bool, agg AggKind, pred func(Record) bool) {
	markBoundaries(c, sp, ar, r)
	a := r.A
	forkjoin.ParallelRange(c, 0, a.Len(), passGrain, func(c *forkjoin.Ctx, lo, hi int) {
		for i := lo; i < hi; i++ {
			e := a.Get(c, i)
			c.Op(1)
			keep := e.Kind == obliv.Real && e.Mark == 1
			if keep && pred != nil {
				keep = pred(recordOf(e))
			}
			if keep {
				if withAgg {
					e.Val = singletonAgg(agg, e.Val)
				}
				e.Mark = 0
			} else {
				e = obliv.Elem{}
			}
			a.Set(c, i, e)
		}
	})
}

// aggregateDrop gives every key group of a key-sorted relation its
// aggregate under agg, installs it on the group head, and drops non-heads
// to fillers in place. pred, when non-nil, is the
// pushed-down key-only filter merged into the same pass.
func aggregateDrop(c *forkjoin.Ctx, sp *mem.Space, ar *Arena, r Rel, agg AggKind, pred func(Record) bool) {
	aggregateGroups(c, sp, r, agg)
	markBoundaries(c, sp, ar, r)
	a := r.A
	forkjoin.ParallelRange(c, 0, a.Len(), passGrain, func(c *forkjoin.Ctx, lo, hi int) {
		for i := lo; i < hi; i++ {
			e := a.Get(c, i)
			c.Op(1)
			keep := e.Kind == obliv.Real && e.Mark == 1
			if keep && pred != nil {
				keep = pred(recordOf(e))
			}
			if keep {
				e.Val = e.Lbl
				e.Lbl = 0
				e.Mark = 0
			} else {
				e = obliv.Elem{}
			}
			a.Set(c, i, e)
		}
	})
}

// rankCut keeps the first k real records of a (by oblivious inclusive
// prefix rank) and drops everything else to fillers. On a value-sorted
// relation (plan.OpSortValDesc) that is the top-k cut: a record with
// Val == 0 shares the descending sort key obliv.InfKey with the fillers, so
// survivors are selected by oblivious rank rather than by position — within
// the tied tail a filler may precede a real record, which every pass here
// tolerates (fillers carry the InfKey sentinel in every schedule word).
func rankCut(c *forkjoin.Ctx, sp *mem.Space, ar *Arena, a *mem.Array[obliv.Elem], k int) {
	n := a.Len()
	rank := ar.Ranks(sp, n)
	forkjoin.ParallelRange(c, 0, n, passGrain, func(c *forkjoin.Ctx, lo, hi int) {
		for i := lo; i < hi; i++ {
			e := a.Get(c, i)
			c.Op(1)
			var r uint64
			if e.Kind == obliv.Real {
				r = 1
			}
			rank.Set(c, i, r)
		}
	})
	obliv.PrefixSumU64(c, sp, rank, true)

	forkjoin.ParallelRange(c, 0, n, passGrain, func(c *forkjoin.Ctx, lo, hi int) {
		for i := lo; i < hi; i++ {
			e := a.Get(c, i)
			r := rank.Get(c, i)
			c.Op(1)
			if e.Kind != obliv.Real || r > uint64(k) {
				e = obliv.Elem{}
			}
			a.Set(c, i, e)
		}
	})
}
