package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"oblivmc"
	"oblivmc/client"
	"oblivmc/internal/plan"
	"oblivmc/internal/serve"
)

// serveWL is two clients in a closed loop against an in-process
// serve.NewServer with one lane of two workers (the defaults on two CPUs,
// pinned so the shape does not follow the machine), over loopback HTTP
// through the client package with retries disabled. Query specs are drawn Zipf-skewed
// from a population larger than the result cache; a fixed share of
// requests are Load(replace=true) writes that bump a table's version.
type serveWL struct {
	srv *serve.Server
	hs  *http.Server
	tp  *http.Transport
	url string
	hdl *tracedHandler
	// served is closed when the HTTP server's Serve loop has returned.
	served chan struct{}
	seed   uint64
	// warm is the number of requests per client the set-up warm-up sends.
	warm int

	tabs  []*serveTable
	specs []serveSpec
	// refs[spec][variant] is the reference result of a spec over one
	// content variant of its table.
	refs [][]expect
}

const (
	serveClients  = 2
	serveVariants = 3
	// serveWritePct is the share of requests, in percent, that reload a
	// table with its next content variant.
	serveWritePct = 5
)

type serveTable struct {
	name     string
	w        int
	variants [][]row
	// seq numbers the table's writes; variant seq%serveVariants is the
	// content. committed is the last acknowledged write, pending the one
	// in flight (0 when none). Each table has one writing client.
	mu                 sync.Mutex
	committed, pending int
}

type serveSpec struct {
	table int
	q     qdesc
}

// serveTemplates are the query shapes of the served mix, each taking a key
// threshold and a value threshold. Four return many rows (no top-k), so
// JSON encoding carries weight.
var serveTemplates = []func(key, val uint64) qdesc{
	func(_, val uint64) qdesc { return qdesc{filt: &filter{col: -1, op: "ge", val: val}} },
	func(key, _ uint64) qdesc { return qdesc{filt: &filter{col: 0, op: "lt", val: key}, agg: "sum"} },
	func(key, _ uint64) qdesc { return qdesc{filt: &filter{col: 0, op: "ge", val: key}, distinct: true} },
	func(_, val uint64) qdesc {
		return qdesc{filt: &filter{col: -1, op: "ge", val: val}, agg: "count", topk: 10}
	},
	func(key, _ uint64) qdesc {
		return qdesc{filt: &filter{col: 0, op: "lt", val: key}, agg: "min", keyOrder: true}
	},
	func(key, _ uint64) qdesc { return qdesc{filt: &filter{col: 0, op: "lt", val: key}, agg: "avg"} },
	func(key, _ uint64) qdesc {
		return qdesc{filt: &filter{col: 0, op: "ge", val: key}, distinct: true, agg: "max", topk: 5}
	},
	func(_, val uint64) qdesc { return qdesc{filt: &filter{col: -1, op: "lt", val: val}} },
}

func newServe(seed uint64, tiny bool) (workload, error) {
	sizes := []int{512, 768, 1024, 1536, 2048, 2048}
	params, warm := 8, 400
	if tiny {
		sizes = []int{64, 96, 128, 160, 192, 256}
		params, warm = 2, 20
	}
	rng := rand.New(rand.NewPCG(seed, 2))
	s := &serveWL{seed: seed, warm: warm}
	for i, n := range sizes {
		t := &serveTable{name: fmt.Sprintf("t%d", i), w: 1 + i%2}
		for v := 0; v < serveVariants; v++ {
			t.variants = append(t.variants, genRows(rng, n, t.w))
		}
		s.tabs = append(s.tabs, t)
	}
	// The population is laid out by popularity rank: rank r is template
	// (r / tables) % len(serveTemplates) over table r % tables, with its
	// own threshold. The hot ranks therefore spread over every table and
	// template whatever the seed, which draws the table contents.
	for j := 0; j < params*len(serveTemplates)*len(s.tabs); j++ {
		ti := j % len(s.tabs)
		t := s.tabs[ti]
		groups := uint64(max(len(t.variants[0])/8, 1))
		if t.w == 2 {
			groups = uint64(max(len(t.variants[0])/32, 1))
		}
		// The k-th spec of a (table, template) pair keeps about
		// (2k+1)/(2·params) of the key or value range.
		k := uint64(j / (len(s.tabs) * len(serveTemplates)))
		frac := func(x uint64) uint64 { return x * (2*k + 1) / uint64(2*params) }
		q := serveTemplates[(j/len(s.tabs))%len(serveTemplates)](frac(groups), frac(1<<30))
		s.specs = append(s.specs, serveSpec{table: ti, q: q})
		refs := make([]expect, serveVariants)
		for v := range refs {
			refs[v] = reference(t.variants[v], q)
		}
		s.refs = append(s.refs, refs)
	}
	if err := s.start(); err != nil {
		return nil, err
	}
	// Warm-up: load every table, then run a stream of the same mix (from
	// other seeds) so the lane, the result cache and the connections are
	// warm and the cache holds a steady-state mix when measuring starts.
	cl := s.newClient(nil)
	for _, t := range s.tabs {
		if _, err := cl.Load(t.name, clientRows(t.variants[0], t.w), false); err != nil {
			s.close()
			return nil, fmt.Errorf("serve warm-up load: %w", err)
		}
	}
	if res := s.runClients(0, s.warm, 99, nil); res.failed() > 0 {
		s.close()
		return nil, fmt.Errorf("serve warm-up: %d of %d requests failed", res.failed(), len(res.recs))
	}
	return s, nil
}

func (s *serveWL) start() error {
	s.srv = serve.NewServer(serve.Options{Lanes: 1, Exec: oblivmc.Config{Workers: 2}})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.srv.Shutdown()
		return err
	}
	s.hdl = &tracedHandler{inner: s.srv.Handler()}
	s.hs = &http.Server{Handler: s.hdl}
	s.url = "http://" + ln.Addr().String()
	s.tp = &http.Transport{MaxIdleConnsPerHost: serveClients}
	s.served = make(chan struct{})
	go func() {
		defer close(s.served)
		_ = s.hs.Serve(ln)
	}()
	return nil
}

func (s *serveWL) kinds() []string { return []string{"query", "load"} }

func (s *serveWL) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.hs.Shutdown(ctx)
	<-s.served
	s.srv.Shutdown()
	s.tp.CloseIdleConnections()
}

// clientRows converts rows to the client's wire rows of w key columns.
func clientRows(rows []row, w int) []client.Row {
	out := make([]client.Row, len(rows))
	for i, r := range rows {
		keys := []uint64{r.k1, r.k2}
		out[i] = client.Row{Keys: keys[:w], Val: r.v}
	}
	return out
}

// spanRT tags each request with the span that sent it, so the server-side
// handler span can name its parent. One per client goroutine.
type spanRT struct {
	base     http.RoundTripper
	span, op int32
	traced   bool
}

func (t *spanRT) RoundTrip(r *http.Request) (*http.Response, error) {
	if t.traced {
		r.Header.Set("X-Perfbench-Span", fmt.Sprintf("%d/%d", t.span, t.op))
	}
	return t.base.RoundTrip(r)
}

func (s *serveWL) newClient(rt *spanRT) *client.Client {
	var tp http.RoundTripper = s.tp
	if rt != nil {
		rt.base = s.tp
		tp = rt
	}
	hc := &http.Client{Transport: tp, Timeout: time.Minute}
	return client.NewWithHTTP(s.url, hc).WithRetry(client.RetryPolicy{MaxRetries: 0})
}

// tracedHandler wraps Server.Handler(): while a tracer is installed it
// records one span per tagged request and counts response bytes.
type tracedHandler struct {
	inner http.Handler
	tr    atomic.Pointer[tracer]
	bytes atomic.Int64
}

// bufferedWriter holds a response until the handler span has closed, so
// no byte reaches the client, which closes the enclosing rtt span on the
// last byte, before the handler span ends.
type bufferedWriter struct {
	http.ResponseWriter
	status int
	body   bytes.Buffer
}

func (w *bufferedWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}

func (w *bufferedWriter) Write(b []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return w.body.Write(b)
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	tr := h.tr.Load()
	tag := r.Header.Get("X-Perfbench-Span")
	if tr == nil || tag == "" {
		h.inner.ServeHTTP(w, r)
		return
	}
	var parent, op int32
	if ps, os, ok := strings.Cut(tag, "/"); ok {
		p, _ := strconv.Atoi(ps)
		o, _ := strconv.Atoi(os)
		parent, op = int32(p), int32(o)
	}
	id := tr.begin("serve.handler", parent, op)
	bw := &bufferedWriter{ResponseWriter: w}
	h.inner.ServeHTTP(bw, r)
	tr.end(id)
	bw.WriteHeader(http.StatusOK)
	w.WriteHeader(bw.status)
	n, _ := w.Write(bw.body.Bytes())
	h.bytes.Add(int64(n))
}

// gen draws one client's request stream: Zipf-skewed specs by
// popularity rank, and writes to the tables this client owns.
type gen struct {
	rng    *rand.Rand
	zipf   *rand.Zipf
	client int
}

// serveZipfS and serveZipfV shape the spec draw, P(rank k) ∝ (v+k)^-s:
// with the 384-spec population and the 128-entry cache about three in
// four queries hit, most of them on the first, many-row template.
const serveZipfS, serveZipfV = 1.5, 1

func (s *serveWL) newGen(client int, stream uint64) *gen {
	rng := rand.New(rand.NewPCG(s.seed^stream<<32, uint64(client)))
	return &gen{rng: rng, zipf: rand.NewZipf(rng, serveZipfS, serveZipfV, uint64(len(s.specs)-1)), client: client}
}

// next returns a spec index, or -1-t for a write to table t.
func (g *gen) next(tables int) int {
	if g.rng.IntN(100) < serveWritePct {
		owned := (tables + serveClients - 1 - g.client) / serveClients
		return -1 - (g.client + serveClients*g.rng.IntN(owned))
	}
	return int(g.zipf.Uint64())
}

// window returns the range of write sequence numbers a query may have
// read if it was sent while the table's committed sequence was lo.
func (t *serveTable) window(lo int) (int, int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return lo, max(t.committed, t.pending)
}

func (t *serveTable) committedSeq() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.committed
}

// beginWrite reserves the next write sequence number.
func (t *serveTable) beginWrite() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.pending = t.committed + 1
	return t.pending
}

func (t *serveTable) endWrite(seq int, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if ok {
		t.committed = seq
	}
	t.pending = 0
}

// matches returns the content variant of [lo, hi] the result equals, or
// -1 with the error of the last mismatch.
func (s *serveWL) matches(spec int, lo, hi int, out []row) (int, error) {
	var err error
	for seq := lo; seq <= hi; seq++ {
		v := seq % serveVariants
		if err = s.refs[spec][v].check(out); err == nil {
			return v, nil
		}
	}
	return -1, err
}

func rowsOfClient(rs []client.Row) []row {
	out := make([]row, len(rs))
	for i, r := range rs {
		out[i] = row{k1: r.Keys[0], v: r.Val}
		if len(r.Keys) > 1 {
			out[i].k2 = r.Keys[1]
		}
	}
	return out
}

func refused(err error) bool {
	msg := err.Error()
	return strings.Contains(msg, "(HTTP 429)") || strings.Contains(msg, "(HTTP 503)")
}

// httpReq sends one request of the stream and checks its result, and
// reports whether the server refused it or answered from its cache.
func (s *serveWL) httpReq(cl *client.Client, next int) (rec opRec, isRefused, cached bool) {
	if next < 0 {
		t := s.tabs[-1-next]
		seq := t.beginWrite()
		rec.kind = "load"
		t0 := time.Now()
		_, err := cl.Load(t.name, clientRows(t.variants[seq%serveVariants], t.w), true)
		rec.lat = time.Since(t0)
		t.endWrite(seq, err == nil)
		rec.err = err != nil
		return rec, err != nil && refused(err), false
	}
	sp := s.specs[next]
	t := s.tabs[sp.table]
	lo := t.committedSeq()
	rec.kind = "query"
	t0 := time.Now()
	res, err := cl.Query(sp.q.spec(t.name))
	rec.lat = time.Since(t0)
	if err != nil {
		rec.err = true
		return rec, refused(err), false
	}
	lo, hi := t.window(lo)
	if _, err := s.matches(next, lo, hi, rowsOfClient(res.Rows)); err != nil {
		rec.bad = true
	}
	return rec, false, res.Stats.Cached
}

// runClients runs the HTTP clients in a closed loop for d, or for n
// requests per client when n > 0, on the request streams numbered stream.
// With tr set each request records a client-side span and tags the
// request for the handler span.
func (s *serveWL) runClients(d time.Duration, n int, stream uint64, tr *tracer) loopResult {
	var (
		mu       sync.Mutex
		res      loopResult
		wg       sync.WaitGroup
		opCount  atomic.Int32
		refusedN atomic.Int32
	)
	start := time.Now()
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rt := &spanRT{traced: tr != nil}
			cl := s.newClient(rt)
			g := s.newGen(c, stream)
			var recs []opRec
			for i := 0; ; i++ {
				if (n > 0 && i >= n) || (n <= 0 && time.Since(start) >= d) {
					break
				}
				next := g.next(len(s.tabs))
				var id int32
				if tr != nil {
					rt.op = opCount.Add(1) - 1
					name := "serve.rtt"
					if next < 0 {
						name = "serve.rtt_load"
					}
					id = tr.begin(name, -1, rt.op)
					rt.span = id
				}
				rec, ref, hit := s.httpReq(cl, next)
				if ref {
					refusedN.Add(1)
				}
				if tr != nil {
					tr.end(id)
					if hit {
						tr.rename(id, "serve.rtt_hit")
					}
				}
				recs = append(recs, rec)
			}
			mu.Lock()
			res.recs = append(res.recs, recs...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	res.wall = time.Since(start)
	res.refused = int(refusedN.Load())
	return res
}

func (s *serveWL) loop(d time.Duration) loopResult {
	p := beginPhase()
	res := s.runClients(d, 0, 0, nil)
	p.end(&res)
	return res
}

// served is one request of the direct replay.
type served struct {
	spec, variant int
	sortPasses    int
	cached, load  bool
	span          int32
}

// traced splits d into three phases: the HTTP stream with the handler
// wrapped (rtt, handler, response size), the same stream replayed straight
// into Server.ExecuteCtx and LoadTable (execute, cache, lane wait, load),
// and the cache misses of that replay run through plan.Build and relops
// on the replica (the layers below the server).
func (s *serveWL) traced(d time.Duration, tr *tracer) (tracedResult, error) {
	out := tracedResult{layers: map[string]float64{}}
	third := d / 3

	// Phase A: HTTP.
	s.hdl.bytes.Store(0)
	s.hdl.tr.Store(tr)
	a := s.runClients(third, 0, 0, tr)
	s.hdl.tr.Store(nil)
	if a.failed() > 0 {
		return out, fmt.Errorf("traced HTTP phase: %d of %d requests failed", a.failed(), len(a.recs))
	}
	out.ops, out.wall = len(a.recs), a.wall
	spansA := tr.snapshot()

	// Phase B: direct replay of the same streams.
	var (
		mu   sync.Mutex
		reqs []served
		wg   sync.WaitGroup
		errB error
		// Operation ids of the phases: A from 0, B from 1<<19, C from 1<<20.
		opB atomic.Int32
	)
	opB.Store(1 << 19)
	start := time.Now()
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			g := s.newGen(c, 0)
			for time.Since(start) < third {
				rq, err := s.direct(tr, opB.Add(1), g.next(len(s.tabs)))
				mu.Lock()
				if err != nil && errB == nil {
					errB = err
				}
				reqs = append(reqs, rq)
				mu.Unlock()
				if err != nil {
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if errB != nil {
		return out, errB
	}

	// Phase C: replica replay of the misses.
	rp := newReplica(tr, s.srv.WorkersPerLane())
	defer rp.close()
	misses, replayed := 0, 0
	start = time.Now()
	op := int32(1 << 20)
	for _, rq := range reqs {
		if rq.load || rq.cached {
			continue
		}
		misses++
		if time.Since(start) >= third {
			continue
		}
		sp := s.specs[rq.spec]
		t := s.tabs[sp.table]
		got, pl, err := rp.query(op, t.variants[rq.variant], t.w, sp.q, plan.OrderInput)
		if err == nil {
			err = s.refs[rq.spec][rq.variant].check(got)
		}
		if err != nil {
			return out, fmt.Errorf("replica replay of spec %d: %w", rq.spec, err)
		}
		out.plannedSorts += pl.SortPasses
		out.builds++
		replayed++
		op++
	}
	if n := rp.sc.overlaps.Load(); n > 0 {
		return out, fmt.Errorf("%d overlapping sorter-seam calls", n)
	}
	out.networkCalls = rp.networkCalls
	out.spms = rp.sampleSortProbe(tr.snapshot(), 13)
	if replayed > 0 {
		// Per request of the direct replay: the replayed misses stand for
		// all misses, and hits cost these layers nothing.
		out.replicaOps = float64(replayed) * float64(len(reqs)) / float64(misses)
	}
	s.serveLayers(out.layers, spansA, tr.snapshot(), reqs)
	return out, nil
}

// direct sends one request of the stream straight to the server core.
func (s *serveWL) direct(tr *tracer, op int32, next int) (served, error) {
	if next < 0 {
		t := s.tabs[-1-next]
		seq := t.beginWrite()
		id := tr.begin("serve.load", -1, op)
		_, err := s.srv.LoadTable(t.name, wideRows(t.variants[seq%serveVariants], t.w), true)
		tr.end(id)
		t.endWrite(seq, err == nil)
		return served{load: true, span: id}, err
	}
	sp := s.specs[next]
	t := s.tabs[sp.table]
	lo := t.committedSeq()
	id := tr.begin("serve.execute", -1, op)
	res, err := s.srv.ExecuteCtx(context.Background(), sp.q.serveSpec(t.name))
	tr.end(id)
	if err != nil {
		return served{}, fmt.Errorf("direct spec %d: %w", next, err)
	}
	lo, hi := t.window(lo)
	v, err := s.matches(next, lo, hi, rowsOf(res.Table))
	if err != nil {
		return served{}, fmt.Errorf("direct spec %d: %w", next, err)
	}
	return served{spec: next, variant: v, cached: res.Stats.Cached, sortPasses: res.Stats.SortPasses, span: id}, nil
}

// serveLayers fills the serve.* metrics from the HTTP phase's spans and
// the direct replay's requests.
func (s *serveWL) serveLayers(m map[string]float64, spansA, all []span, reqs []served) {
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	var rtt, handler, hitHandler time.Duration
	queries, hitQueries := 0, 0
	for _, sp := range spansA {
		switch sp.Name {
		case "serve.rtt", "serve.rtt_hit":
			rtt += sp.dur()
			queries++
		case "serve.handler":
			switch spansA[sp.Parent].Name {
			case "serve.rtt":
				handler += sp.dur()
			case "serve.rtt_hit":
				handler += sp.dur()
				hitHandler += sp.dur()
				hitQueries++
			}
		}
	}
	var execute, hitExecute, load time.Duration
	var execN, loadN, hits, passes int
	type iv struct{ start, end int64 }
	var missSpans []iv
	for _, rq := range reqs {
		sp := all[rq.span]
		switch {
		case rq.load:
			load += sp.dur()
			loadN++
		default:
			execute += sp.dur()
			execN++
			passes += rq.sortPasses
			if rq.cached {
				hits++
				hitExecute += sp.dur()
			} else {
				missSpans = append(missSpans, iv{sp.Start, sp.End})
			}
		}
	}
	if queries > 0 {
		m["serve.rtt_ms"] = ms(rtt) / float64(queries)
		m["serve.handler_ms"] = ms(handler) / float64(queries)
		m["serve.transport_ms"] = max(0, m["serve.rtt_ms"]-m["serve.handler_ms"])
		m["serve.resp_kb"] = float64(s.hdl.bytes.Load()) / 1e3 / float64(len(spansA)-queries)
	}
	if execN > 0 {
		m["serve.execute_ms"] = ms(execute) / float64(execN)
		m["serve.cache_hit_ratio"] = float64(hits) / float64(execN)
		m["oblivmc.sort_passes"] = float64(passes) / float64(execN)
		// One lane serves the misses one at a time: a miss that starts
		// while an earlier one still holds the lane waits for it.
		sort.Slice(missSpans, func(i, j int) bool { return missSpans[i].start < missSpans[j].start })
		var free, wait int64
		for _, x := range missSpans {
			if free > x.start {
				wait += free - x.start
			}
			free = max(free, x.end)
		}
		m["serve.lane_wait_ms"] = ms(time.Duration(wait)) / float64(execN)
	}
	if hits > 0 && hitQueries > 0 {
		// A hit holds no lane, so on hits the handler's time beyond the
		// server core is request decoding and response encoding.
		m["serve.codec_ms"] = max(0, ms(hitHandler)/float64(hitQueries)-ms(hitExecute)/float64(hits))
	}
	if loadN > 0 {
		m["serve.load_ms"] = ms(load) / float64(loadN)
	}
}
