package oblivmc

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync/atomic"

	"oblivmc/internal/forkjoin"
	"oblivmc/internal/mem"
	"oblivmc/internal/obliv"
	"oblivmc/internal/relops"
)

// exec is the execution environment a relational surface runs under. The
// zero-value-with-cfg form (exec{cfg: cfg}) reproduces the one-shot
// behavior: a fresh address space, a fresh pool in ModeParallel, and a
// per-run arena. A Session fills the persistent fields so back-to-back
// queries reuse the pool, the space, and the arena instead of rebuilding
// them per invocation.
type exec struct {
	cfg Config
	// pool, when non-nil, is a long-lived work-stealing pool used for
	// ModeParallel runs instead of constructing (and tearing down) one per
	// call.
	pool *forkjoin.Pool
	// sp, when non-nil, is a long-lived address space. Keeping the space
	// stable across runs is what makes arena and sorter scratch caches
	// effective: both drop their arrays when the requesting space changes.
	sp *mem.Space
	// arena, when non-nil, is a long-lived relational scratch arena handed
	// to every run in place of a per-run one.
	arena *relops.Arena
	// cancel, when non-nil, overrides cfg.Cancel as the run's cancellation
	// token (the Session sets a fresh per-query token here).
	cancel *forkjoin.Cancel
}

// token resolves the run's cancellation token: the session's per-query
// token when set, else the config-level one.
func (e exec) token() *forkjoin.Cancel {
	if e.cancel != nil {
		return e.cancel
	}
	return e.cfg.Cancel.token()
}

// run executes fn under e's executor. It is the lifecycle boundary: a
// tripped cancellation token surfaces as ErrCanceled (carrying only the
// public checkpoint site), and any other panic out of the computation —
// which has fully quiesced by the time it unwinds here, so the pool stays
// structurally reusable — converts to a *PanicError wrapping ErrInternal.
func (e exec) run(fn func(c *forkjoin.Ctx, sp *mem.Space)) (rep *Report, err error) {
	defer func() {
		if r := recover(); r != nil {
			rep = nil
			switch p := r.(type) {
			case *forkjoin.CanceledError:
				err = fmt.Errorf("%w (at %s)", ErrCanceled, p.Site)
			case *forkjoin.TaskPanic:
				err = &PanicError{Val: p.Val, Stack: p.Stack}
			default:
				err = &PanicError{Val: r, Stack: debug.Stack()}
			}
		}
	}()
	cn := e.token()
	sp := e.sp
	if sp == nil {
		sp = mem.NewSpace()
	}
	switch e.cfg.Mode {
	case ModeMetered:
		m := forkjoin.RunMetered(forkjoin.MeterOpts{
			CacheM: e.cfg.CacheM, CacheB: e.cfg.CacheB, EnableTrace: e.cfg.Trace,
			Cancel: cn,
		}, func(c *forkjoin.Ctx) { fn(c, sp) })
		return reportOf(m), nil
	case ModeSerial:
		fn(forkjoin.SerialCancel(cn), sp)
		return nil, nil
	default:
		if e.pool != nil {
			e.pool.RunCancel(cn, func(c *forkjoin.Ctx) { fn(c, sp) })
			return nil, nil
		}
		w := e.cfg.Workers
		if w <= 0 {
			w = runtime.GOMAXPROCS(0)
		}
		forkjoin.RunParallelCancel(w, cn, func(c *forkjoin.Ctx) { fn(c, sp) })
		return nil, nil
	}
}

// QueryStats is the public bookkeeping of one Session.RunQuery: the
// executed sort-pass count (measured at the sorter seam, not planned), the
// cold-plan baseline the cross-query savings are measured against, and the
// rendered plan. Everything here is a function of public query shape.
type QueryStats struct {
	// SortPasses counts the full sorting-network passes the query
	// executed (0 for an identity plan or a fully order-covered one).
	SortPasses int
	// ColdSortPasses is what the same query plans with no input order
	// token — the baseline a token-covered query beats.
	ColdSortPasses int
	// Plan is the query's ExplainTable rendering: the order-aware pass
	// sequence (e.g. "in(key,pos) → aggregate [0 sorts, cold 1, staged
	// 2]"), or "staged: ... [N sorts]" for a NoOptimize query.
	Plan string
	// Order is the result table's sorted-by token.
	Order TableOrder
	// Report carries the metered metrics when the session runs
	// ModeMetered (nil otherwise).
	Report *Report
}

// passCounter wraps the session's scheduled sorter and counts executed
// full sorting passes — the counter QueryStats.SortPasses reports and the
// serve-level tests assert on.
type passCounter struct {
	inner obliv.ScheduledSorter
	n     *int
}

func (s passCounter) Name() string { return s.inner.Name() }

func (s passCounter) Sort(c *forkjoin.Ctx, sp *mem.Space, a *mem.Array[obliv.Elem], lo, n int, key func(obliv.Elem) uint64) {
	*s.n++
	s.inner.Sort(c, sp, a, lo, n, key)
}

func (s passCounter) SortScheduled(c *forkjoin.Ctx, sp *mem.Space, a *mem.Array[obliv.Elem], ks *obliv.KeySchedule, scr *mem.Array[obliv.Elem], kscr *obliv.KeySchedule, lo, n int) {
	*s.n++
	s.inner.SortScheduled(c, sp, a, ks, scr, kscr, lo, n)
}

// Session is a reusable execution context for the relational query
// surface — the seam a long-running server (internal/serve, cmd/oblivserve)
// multiplexes requests over. Where the one-shot RunQuery rebuilds its
// fork-join pool, address space, scratch arena, and sorter per invocation,
// a Session constructs them once and reuses them across queries: the
// arena's key schedules and element scratch, the shuffle backend's tie
// planes and Beneš level buffers, and the pool's worker goroutines all
// persist, so a steady stream of same-shape queries runs allocation-flat.
//
// A Session is NOT safe for concurrent use: queries must be issued
// sequentially (the shuffle sorter and arena are stateful). A server gives
// each admission lane its own Session. Close releases the pool's workers;
// a closed session must not run further queries.
//
// Obliviousness is unchanged from the one-shot surfaces: resource reuse
// follows the public sequence of (relation size, query shape) pairs only,
// and the cross-query order tokens a Session feeds back into the planner
// are themselves functions of prior public shapes.
type Session struct {
	cfg    Config
	pool   *forkjoin.Pool
	sp     *mem.Space
	arena  *relops.Arena
	sorter obliv.ScheduledSorter
	closed bool

	// cur is the in-flight query's cancellation token (nil when idle) —
	// the seam Interrupt trips from other goroutines.
	cur atomic.Pointer[forkjoin.Cancel]
	// poisoned is set when a query panicked out of the execution: the
	// arena and sorter state are suspect, so the session refuses further
	// queries until rebuilt. (A cooperative cancellation does NOT poison:
	// every pass rewrites its scratch from the freshly loaded relation, so
	// an aborted pass leaves no state the next run reads.)
	poisoned atomic.Bool
}

// NewSession creates a session executing under cfg. In ModeParallel (the
// default) it owns a long-lived work-stealing pool of cfg.Workers workers
// (GOMAXPROCS when zero); call Close to release it.
func NewSession(cfg Config) *Session {
	// One persistent sorter per session: the shuffle backend's caches —
	// tie planes, Beneš level buffers — are what make cross-request pooling
	// worthwhile (the bitonic backend is stateless).
	s := &Session{cfg: cfg, sp: mem.NewSpace(), arena: relops.NewArena(), sorter: relSorter(cfg)}
	if cfg.Mode == ModeParallel {
		s.pool = forkjoin.NewPool(cfg.Workers)
	}
	return s
}

// Workers returns the session pool's size (cfg.Workers resolved; 1 outside
// ModeParallel).
func (s *Session) Workers() int {
	if s.pool != nil {
		return s.pool.Workers()
	}
	return 1
}

// Close releases the session's pool workers. The session must be idle.
func (s *Session) Close() {
	if s.closed {
		return
	}
	s.closed = true
	if s.pool != nil {
		s.pool.Close()
	}
}

// exec assembles the session's execution environment.
func (s *Session) exec() exec {
	return exec{cfg: s.cfg, pool: s.pool, sp: s.sp, arena: s.arena}
}

// Interrupt cancels the in-flight query, if any: RunQuery/RunQueryCtx
// returns ErrCanceled at its next public-shape checkpoint. Safe to call
// from any goroutine, any number of times; a no-op when the session is
// idle. The session stays reusable after an interrupt.
func (s *Session) Interrupt() {
	if cn := s.cur.Load(); cn != nil {
		cn.Cancel()
	}
}

// Poisoned reports whether a prior query panicked out of this session's
// execution, leaving its arena/sorter state suspect. A poisoned session
// refuses further queries with ErrInternal; close it and build a fresh one.
func (s *Session) Poisoned() bool { return s.poisoned.Load() }

// RunQuery executes q over t exactly like the package-level RunQuery, but
// under the session's pooled resources, and returns the executed sort-pass
// stats alongside the result. The input table's sorted-by token feeds the
// planner (the cross-query skip); the result carries its own token for the
// next query.
func (s *Session) RunQuery(t Table, q Query) (Table, QueryStats, error) {
	return s.RunQueryCtx(context.Background(), t, q)
}

// RunQueryCtx is RunQuery under a context: cancellation and deadlines
// propagate into the execution at its public-shape checkpoints (between
// sort passes, network layers, scan sweeps), returning ErrCanceled or
// ErrDeadline. The abort reveals only public quantities — the checkpoint
// site and the executed sort-pass count — never data.
func (s *Session) RunQueryCtx(ctx context.Context, t Table, q Query) (Table, QueryStats, error) {
	if s.closed {
		return Table{}, QueryStats{}, fmt.Errorf("oblivmc: RunQuery on closed Session")
	}
	if s.poisoned.Load() {
		return Table{}, QueryStats{}, fmt.Errorf("%w (session poisoned by a prior panic; rebuild it)", ErrInternal)
	}
	if ctx != nil && ctx.Err() != nil {
		return Table{}, QueryStats{}, ctxErrOf(ctx, fmt.Errorf("%w (before execution)", ErrCanceled))
	}
	kind, err := checkQuery(t, q)
	if err != nil {
		return Table{}, QueryStats{}, err
	}
	pl := q.compile(kind, t.Width(), t.order)
	passes := 0
	srt := passCounter{inner: s.sorter, n: &passes}
	cn := new(forkjoin.Cancel)
	s.cur.Store(cn)
	defer s.cur.Store(nil)
	stop := watchCtx(ctx, cn)
	defer stop()
	e := s.exec()
	e.cancel = cn
	out, rep, err := runQueryPlanned(e, t, q, pl, srt)
	if err != nil {
		if errors.Is(err, ErrInternal) {
			s.poisoned.Store(true)
		}
		if errors.Is(err, ErrCanceled) {
			// The executed pass count is public shape, like the site.
			err = fmt.Errorf("%w (after %d executed sort passes)", ctxErrOf(ctx, err), passes)
		}
		return Table{}, QueryStats{}, err
	}
	return out, QueryStats{
		SortPasses:     passes,
		ColdSortPasses: pl.ColdSortPasses,
		Plan:           q.explain(pl),
		Order:          out.order,
		Report:         rep,
	}, nil
}

// Explain renders the order-aware plan q would execute over t in this
// session (identical to ExplainTable; the session adds nothing beyond the
// table's token, but callers holding a session read more naturally).
func (s *Session) Explain(t Table, q Query) (string, error) {
	return ExplainTable(t, q)
}
