// Keyed (key-schedule) variant of the insecure sample sort: the post-ORP
// stage of the shuffle-then-sort composition (Theorem 3.2) generalized for
// the relational engine. The sort orders elements by the lexicographic
// order of their cached key-schedule words, breaking full-vector ties by
// the elements' in-register (Kind, Tag, Aux) triple (the obliv.TiePos rule,
// which makes the sort stable in the relational sense) and breaking *those*
// ties by a caller-supplied random tie word per element. With the tie plane
// drawn fresh from the seed tape, every comparison is strict, so the
// sequence being sorted always has distinct effective keys — the
// precondition of the [CGLS18, ACN+20] security argument that lets an
// insecure comparison sort follow an oblivious random permutation.
//
// Every element move carries the element, all schedule words, and the tie
// word together (the planes stay in lockstep with the array, exactly as in
// the keyed bitonic networks), so on return the schedule still caches the
// keys of the array it describes.
//
// Unlike everything else in this module, the access pattern of this sort
// is NOT a fixed function of the input length: it depends on the relative
// order of the (permuted) keys. That is the Theorem 3.2 trade-off — the
// preceding oblivious random permutation makes the order type of the
// input, and hence the trace distribution, independent of the data.
package spms

import (
	"oblivmc/internal/forkjoin"
	"oblivmc/internal/mem"
	"oblivmc/internal/obliv"
	"oblivmc/internal/prng"
)

// kseq bundles the three lockstep components of a keyed sequence: the
// element array, its key-schedule planes (hoisted out of the schedule once,
// so the accessors index a slice), and the tie plane, all indexed
// identically, plus the schedule width.
type kseq struct {
	a      *mem.Array[obliv.Elem]
	planes []*mem.Array[uint64]
	tie    *mem.Array[uint64]
	w      int
}

func newKseq(a *mem.Array[obliv.Elem], ks *obliv.KeySchedule, tie *mem.Array[uint64]) kseq {
	s := kseq{a: a, planes: make([]*mem.Array[uint64], ks.Width()), tie: tie, w: ks.Width()}
	for p := range s.planes {
		s.planes[p] = ks.Plane(p)
	}
	return s
}

func allocKseq(sp *mem.Space, n, w int) kseq {
	return newKseq(mem.Alloc[obliv.Elem](sp, n), obliv.AllocKeySchedule(sp, n, w), mem.Alloc[uint64](sp, n))
}

// krow is one element with its cached key words and tie word — the unit the
// keyed sort moves and compares.
type krow struct {
	e obliv.Elem
	k [obliv.MaxScheduleWidth]uint64
	t uint64
}

// load reads row i into *r. Rows move through caller-owned krow variables
// rather than by value: a krow is 120 bytes, and copying or zeroing one per
// access dominated the sort's harness cost.
func (s kseq) load(c *forkjoin.Ctx, i int, r *krow) {
	r.e = s.a.Get(c, i)
	for p, pl := range s.planes {
		r.k[p] = pl.Get(c, i)
	}
	r.t = s.tie.Get(c, i)
}

// store writes *r to row i.
func (s kseq) store(c *forkjoin.Ctx, i int, r *krow) {
	s.a.Set(c, i, r.e)
	for p, pl := range s.planes {
		pl.Set(c, i, r.k[p])
	}
	s.tie.Set(c, i, r.t)
}

// after reports whether x sorts strictly after y: lexicographic cached key
// words, then the TiePos (Kind, Tag, Aux) triple — obliv.PosAfter, the
// rule shared with the keyed networks so both backends realize the same
// order — then the tie word. With distinct tie words the order is total
// and strict.
func after(x, y *krow, w int) bool {
	for p := 0; p < w; p++ {
		if x.k[p] != y.k[p] {
			return x.k[p] > y.k[p]
		}
	}
	if obliv.PosAfter(x.e, y.e) {
		return true
	}
	if obliv.PosAfter(y.e, x.e) {
		return false
	}
	return x.t > y.t
}

// SampleSortScheduled sorts a[lo:lo+n) ascending by (cached schedule words,
// TiePos triple, tie word), keeping every plane of ks and the tie plane in
// lockstep with the elements. tie must cover the same index range as a.
// scr and kscr are the caller's sorting scratch (length >= n past lo=0,
// width matching ks); tscr is tie-plane scratch of length >= n; any of them
// may be nil, in which case fresh scratch is allocated from sp. seed drives
// pivot sampling.
func SampleSortScheduled(
	c *forkjoin.Ctx, sp *mem.Space,
	a *mem.Array[obliv.Elem], ks *obliv.KeySchedule, tie *mem.Array[uint64],
	scr *mem.Array[obliv.Elem], kscr *obliv.KeySchedule, tscr *mem.Array[uint64],
	lo, n int, seed uint64,
) {
	if n <= 1 {
		return
	}
	w := ks.Width()
	s := newKseq(a.View(lo, n), ks.View(lo, n), tie.View(lo, n))
	if scr == nil {
		scr = mem.Alloc[obliv.Elem](sp, n)
	}
	if kscr == nil {
		kscr = obliv.AllocKeySchedule(sp, n, w)
	}
	if tscr == nil {
		tscr = mem.Alloc[uint64](sp, n)
	}
	scratch := newKseq(scr.View(0, n), kscr.View(0, n), tscr.View(0, n))
	sampleSortRecK(c, sp, s, scratch, make([]uint32, n), 0, n, prng.Mix64(seed), 0)
}

// insertionSortK sorts s[lo:hi) serially (instrumented).
func insertionSortK(c *forkjoin.Ctx, s kseq, lo, hi int) {
	var r, f krow
	for i := lo + 1; i < hi; i++ {
		s.load(c, i, &r)
		j := i - 1
		for j >= lo {
			s.load(c, j, &f)
			c.Op(1)
			if !after(&f, &r, s.w) {
				break
			}
			s.store(c, j+1, &f)
			j--
		}
		s.store(c, j+1, &r)
	}
}

// sampleSortRecK sorts s[lo:lo+n); scratch parallels s (same length, same
// relative offsets), and so does bkt, the harness-memory bucket record of
// the partitions (one buffer per SampleSortScheduled call: a range's
// partition, its children's and its sample's recursion all run in
// bkt[lo:lo+n), never at the same time). The recursion shape mirrors
// SampleSort's: ~√n buckets per level carved out by a binary tree of stable
// parallel partitions, with the mergesort fallback keeping the span polylog
// on small ranges.
func sampleSortRecK(c *forkjoin.Ctx, sp *mem.Space, s, scratch kseq, bkt []uint32, lo, n int, seed uint64, depth int) {
	if n <= leafFor(c) {
		insertionSortK(c, s, lo, lo+n)
		return
	}
	if n <= 64 || depth > 12 {
		mergeSortRecK(c, s, scratch, lo, n)
		return
	}
	q := 2
	for q*q < n {
		q++
	}

	// Sample with a small oversampling factor and sort the sample
	// recursively (capping at n/2 keeps the sample recursion shrinking).
	sn := 3*q - 1
	if sn > n/2 {
		sn = n / 2
	}
	src := prng.New(seed)
	idx := make([]int, sn) // drawn serially: Source is not goroutine-safe
	for i := range idx {
		idx[i] = src.Intn(n)
	}
	samp := allocKseq(sp, sn, s.w)
	forkjoin.ParallelRange(c, 0, sn, 0, func(c *forkjoin.Ctx, from, to int) {
		var r krow
		for i := from; i < to; i++ {
			s.load(c, lo+idx[i], &r)
			samp.store(c, i, &r)
		}
	})
	sampScratch := allocKseq(sp, sn, s.w)
	sampleSortRecK(c, sp, samp, sampScratch, bkt[lo:lo+sn], 0, sn, prng.Mix64(seed+1), depth+1)

	pivots := make([]krow, q-1)
	for t := range pivots {
		samp.load(c, (t+1)*sn/q, &pivots[t])
	}

	// Partition into q buckets with one stable q-way scatter.
	bounds := make([]int, q+1)
	partitionK(c, s, scratch, bkt[lo:lo+n], lo, n, pivots, bounds)

	// Recurse on buckets.
	forkjoin.ParallelFor(c, 0, q, 1, func(c *forkjoin.Ctx, b int) {
		sz := bounds[b+1] - bounds[b]
		if sz > 1 {
			sampleSortRecK(c, sp, s, scratch, bkt, lo+bounds[b], sz, prng.Mix64(seed+uint64(b)+2), depth+1)
		}
	})
}

// bucketOf returns the bucket of r under pivots: the first b with
// r <= pivots[b] (bucket t holds keys in (pivot[t-1], pivot[t]]), found by
// binary search over the in-register pivot copies — no memory traffic.
func bucketOf(r *krow, pivots []krow, w int) int {
	lo, hi := 0, len(pivots)
	for lo < hi {
		mid := (lo + hi) / 2
		if after(r, &pivots[mid], w) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// partitionChunk bounds the per-chunk serial work of the q-way scatter.
const partitionChunk = 4096

// prefixParThreshold is the q·chunks table size past which the scatter's
// (bucket, chunk) offset prefix is worth forking; prefixBucketGrain is how
// many bucket columns a leaf walks (each column is `chunks` ints, strided
// q apart, so a leaf touches grain·chunks counters).
const (
	prefixParThreshold = 1 << 14
	prefixBucketGrain  = 16
)

// partitionK stably partitions s[lo:lo+n) into len(pivots)+1 buckets,
// filling bounds (offsets relative to lo, len(pivots)+2 entries) and
// leaving the buckets contiguous in s. Two element passes: chunk-local
// histograms (classification is a register binary search per element,
// recorded in bkt[i]), then a stable scatter through scratch at offsets
// derived from the histogram prefix, plus the copy back. The counters and
// the bucket record live in harness memory like the pivot table — this is
// the insecure stage, so only the element traffic is instrumented.
func partitionK(c *forkjoin.Ctx, s, scratch kseq, bkt []uint32, lo, n int, pivots []krow, bounds []int) {
	q := len(pivots) + 1
	chunks := (n + partitionChunk - 1) / partitionChunk
	counts := make([]int, chunks*q)
	forkjoin.ParallelFor(c, 0, chunks, 1, func(c *forkjoin.Ctx, ch int) {
		from, to := ch*partitionChunk, (ch+1)*partitionChunk
		if to > n {
			to = n
		}
		local := counts[ch*q : (ch+1)*q]
		var r krow
		for i := from; i < to; i++ {
			s.load(c, lo+i, &r)
			c.Op(1)
			b := bucketOf(&r, pivots, s.w)
			bkt[i] = uint32(b)
			local[b]++
		}
	})
	// Exclusive prefix in (bucket, chunk) order: chunk ch of bucket b
	// scatters behind every chunk of earlier buckets and earlier chunks of
	// its own — the stable order. O(q·chunks) harness work; with q ~ √n and
	// chunks ~ n/partitionChunk that is ~n/64 at the top level, enough to be
	// a visible serial tail, so in pool mode it splits per bucket: totals
	// first, then a q-length serial prefix for the bucket bases, then each
	// bucket rewrites its own column of counts independently.
	if c.ParallelMode() && q*chunks >= prefixParThreshold {
		totals := make([]int, q)
		forkjoin.ParallelRange(c, 0, q, prefixBucketGrain, func(_ *forkjoin.Ctx, bFrom, bTo int) {
			for b := bFrom; b < bTo; b++ {
				t := 0
				for ch := 0; ch < chunks; ch++ {
					t += counts[ch*q+b]
				}
				totals[b] = t
			}
		})
		off := 0
		for b := 0; b < q; b++ {
			bounds[b] = off
			off += totals[b]
		}
		forkjoin.ParallelRange(c, 0, q, prefixBucketGrain, func(_ *forkjoin.Ctx, bFrom, bTo int) {
			for b := bFrom; b < bTo; b++ {
				off := bounds[b]
				for ch := 0; ch < chunks; ch++ {
					cnt := counts[ch*q+b]
					counts[ch*q+b] = off
					off += cnt
				}
			}
		})
	} else {
		off := 0
		for b := 0; b < q; b++ {
			bounds[b] = off
			for ch := 0; ch < chunks; ch++ {
				cnt := counts[ch*q+b]
				counts[ch*q+b] = off
				off += cnt
			}
		}
	}
	bounds[q] = n
	forkjoin.ParallelFor(c, 0, chunks, 1, func(c *forkjoin.Ctx, ch int) {
		from, to := ch*partitionChunk, (ch+1)*partitionChunk
		if to > n {
			to = n
		}
		next := counts[ch*q : (ch+1)*q]
		var r krow
		for i := from; i < to; i++ {
			s.load(c, lo+i, &r)
			c.Op(1)
			b := bkt[i]
			scratch.store(c, lo+next[b], &r)
			next[b]++
		}
	})
	copyK(c, s, scratch, lo, n)
}

// copyK copies scratch[lo:lo+n) back into s[lo:lo+n), plane by plane.
func copyK(c *forkjoin.Ctx, s, scratch kseq, lo, n int) {
	mem.CopyPar(c, s.a, lo, scratch.a, lo, n)
	for p, pl := range s.planes {
		mem.CopyPar(c, pl, lo, scratch.planes[p], lo, n)
	}
	mem.CopyPar(c, s.tie, lo, scratch.tie, lo, n)
}

// mergeSortRecK is the cache-agnostic parallel mergesort fallback.
func mergeSortRecK(c *forkjoin.Ctx, s, scratch kseq, lo, n int) {
	if n <= leafFor(c) {
		insertionSortK(c, s, lo, lo+n)
		return
	}
	half := n / 2
	c.Fork(
		func(c *forkjoin.Ctx) { mergeSortRecK(c, s, scratch, lo, half) },
		func(c *forkjoin.Ctx) { mergeSortRecK(c, s, scratch, lo+half, n-half) },
	)
	parMergeK(c, s, scratch, lo, lo+half, lo+half, lo+n, lo)
	copyK(c, s, scratch, lo, n)
}

// parMergeK merges s[alo:ahi) and s[blo:bhi) into scratch starting at out.
func parMergeK(c *forkjoin.Ctx, s, scratch kseq, alo, ahi, blo, bhi, out int) {
	an, bn := ahi-alo, bhi-blo
	if an+bn <= 2*leafFor(c) {
		var x, y krow
		i, j, o := alo, blo, out
		for i < ahi && j < bhi {
			s.load(c, i, &x)
			s.load(c, j, &y)
			c.Op(1)
			if !after(&x, &y, s.w) {
				scratch.store(c, o, &x)
				i++
			} else {
				scratch.store(c, o, &y)
				j++
			}
			o++
		}
		for i < ahi {
			s.load(c, i, &x)
			scratch.store(c, o, &x)
			i, o = i+1, o+1
		}
		for j < bhi {
			s.load(c, j, &y)
			scratch.store(c, o, &y)
			j, o = j+1, o+1
		}
		return
	}
	// Split on the median of the larger run; binary search in the other.
	if an < bn {
		alo, ahi, blo, bhi = blo, bhi, alo, ahi
	}
	amid := alo + (ahi-alo)/2
	var pivot krow
	s.load(c, amid, &pivot)
	bmid := lowerBoundK(c, s, blo, bhi, &pivot)
	leftOut := out
	rightOut := out + (amid - alo) + (bmid - blo)
	c.Fork(
		func(c *forkjoin.Ctx) { parMergeK(c, s, scratch, alo, amid, blo, bmid, leftOut) },
		func(c *forkjoin.Ctx) { parMergeK(c, s, scratch, amid, ahi, bmid, bhi, rightOut) },
	)
}

// lowerBoundK returns the first index in s[lo:hi) ordering >= pv.
func lowerBoundK(c *forkjoin.Ctx, s kseq, lo, hi int, pv *krow) int {
	var r krow
	for lo < hi {
		mid := (lo + hi) / 2
		s.load(c, mid, &r)
		c.Op(1)
		if after(pv, &r, s.w) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
