package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"oblivmc/internal/forkjoin"
	"oblivmc/internal/mem"
	"oblivmc/internal/obliv"
)

// span is one timed call into a layer's public entry point. Spans of one
// operation share Op; Parent is the span that made the call (-1 for an
// operation's root span).
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Op     int32  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// N and W are the element count and key width of a sort span.
	N int `json:"n,omitempty"`
	W int `json:"w,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps every span of a traced run in memory; the spans are
// written out once the run ends.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent, op int32) int32 {
	start := t.now()
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: start, End: -1})
	t.mu.Unlock()
	return id
}

// end closes span id.
func (t *tracer) end(id int32) {
	end := t.now()
	t.mu.Lock()
	t.spans[id].End = end
	t.mu.Unlock()
}

// rename changes span id's name.
func (t *tracer) rename(id int32, name string) {
	t.mu.Lock()
	t.spans[id].Name = name
	t.mu.Unlock()
}

// setShape records a sort span's element count and key width.
func (t *tracer) setShape(id int32, n, w int) {
	t.mu.Lock()
	t.spans[id].N, t.spans[id].W = n, w
	t.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the spans as JSON lines in path.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// scope is the span stack of one single-caller replay: the caller and the
// sorts it issues run one at a time, so the innermost open span is the
// parent of the next call.
type scope struct {
	tr  *tracer
	op  int32
	cur int32
	// overlaps counts sorter-seam calls that began while another seam call
	// was open, which would break the stack discipline.
	overlaps atomic.Int64
}

func newScope(tr *tracer) *scope { return &scope{tr: tr, op: -1, cur: -1} }

// enter opens a child of the innermost span and makes it the innermost.
func (s *scope) enter(name string) (id, prev int32) {
	id = s.tr.begin(name, s.cur, s.op)
	prev, s.cur = s.cur, id
	return id, prev
}

// exit closes id and restores prev as the innermost span.
func (s *scope) exit(id, prev int32) {
	s.tr.end(id)
	s.cur = prev
}

// timed runs fn inside a span named name.
func (s *scope) timed(name string, fn func()) {
	id, prev := s.enter(name)
	fn()
	s.exit(id, prev)
}

// startOp opens the root span of operation op.
func (s *scope) startOp(name string, op int32) (id, prev int32) {
	s.op = op
	return s.enter(name)
}

// timedSorter wraps a scheduled sorter and records one span per call.
// Wrapped around the relational and graph layers' sorter it is the sorter
// seam ("sort"); wrapped around the shuffle sorter's fallback it times the
// keyed bitonic networks ("bitonic").
type timedSorter struct {
	inner obliv.ScheduledSorter
	name  string
	sc    *scope
	// seam marks the outermost wrapper, whose calls must never overlap.
	seam  bool
	depth atomic.Int32
}

func (t *timedSorter) Name() string { return t.inner.Name() }

func (t *timedSorter) open(n, w int) (id, prev int32) {
	if t.seam && t.depth.Add(1) > 1 {
		t.sc.overlaps.Add(1)
	}
	id, prev = t.sc.enter(t.name)
	t.sc.tr.setShape(id, n, w)
	return id, prev
}

func (t *timedSorter) close(id, prev int32) {
	t.sc.exit(id, prev)
	if t.seam {
		t.depth.Add(-1)
	}
}

func (t *timedSorter) Sort(c *forkjoin.Ctx, sp *mem.Space, a *mem.Array[obliv.Elem], lo, n int, key func(obliv.Elem) uint64) {
	id, prev := t.open(n, 1)
	t.inner.Sort(c, sp, a, lo, n, key)
	t.close(id, prev)
}

func (t *timedSorter) SortScheduled(c *forkjoin.Ctx, sp *mem.Space, a *mem.Array[obliv.Elem], ks *obliv.KeySchedule, scr *mem.Array[obliv.Elem], kscr *obliv.KeySchedule, lo, n int) {
	id, prev := t.open(n, ks.Width())
	t.inner.SortScheduled(c, sp, a, ks, scr, kscr, lo, n)
	t.close(id, prev)
}

// layerTotals sums, per span name, the duration, the self time (duration
// minus the time covered by child spans) and the call count.
type layerTotals struct {
	dur, self map[string]time.Duration
	calls     map[string]int
}

func totals(spans []span) (layerTotals, error) {
	lt := layerTotals{dur: map[string]time.Duration{}, self: map[string]time.Duration{}, calls: map[string]int{}}
	child := make([]time.Duration, len(spans))
	for _, s := range spans {
		if s.End < s.Start {
			return lt, fmt.Errorf("span %d (%s) never closed", s.ID, s.Name)
		}
		if s.Parent >= 0 {
			child[s.Parent] += s.dur()
		}
	}
	for _, s := range spans {
		lt.dur[s.Name] += s.dur()
		lt.self[s.Name] += s.dur() - child[s.ID]
		lt.calls[s.Name]++
	}
	return lt, nil
}

// checkNesting verifies that every span lies within its parent and belongs
// to its parent's operation, and that the children of a span sum to no
// more than the span itself.
func checkNesting(spans []span) error {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d (%s) never closed", s.ID, s.Name)
		}
		if s.Parent < 0 {
			continue
		}
		p := spans[s.Parent]
		if s.Start < p.Start || s.End > p.End || s.Op != p.Op {
			return fmt.Errorf("span %d (%s) escapes its parent %d (%s)", s.ID, s.Name, p.ID, p.Name)
		}
		child[s.Parent] += s.End - s.Start
	}
	for _, s := range spans {
		if child[s.ID] > s.End-s.Start {
			return fmt.Errorf("children of span %d (%s) cover %dns of its %dns", s.ID, s.Name, child[s.ID], s.End-s.Start)
		}
	}
	return nil
}
