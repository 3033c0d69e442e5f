package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// opRec is one completed operation of a closed loop.
type opRec struct {
	kind string
	lat  time.Duration
	// err is set when the call failed or was refused; bad when it returned
	// a wrong result.
	err, bad bool
}

// loopResult is what one closed-loop phase measured.
type loopResult struct {
	recs []opRec
	// busy is the time the callers spent inside operations (a single
	// caller's throughput is measured against it, so output checks between
	// operations do not count); wall is the phase's wall time.
	busy, wall time.Duration
	// cpu is the process CPU time (user+system) spent during the phase.
	cpu time.Duration
	// allocBytes and gcCPU/totalCPU are runtime counters over the phase.
	allocBytes      float64
	gcCPU, totalCPU float64
	peakHeap        float64
	// refused counts requests the server turned away (HTTP 429 or 503).
	refused int
}

func (r loopResult) failed() int {
	n := 0
	for _, o := range r.recs {
		if o.err || o.bad {
			n++
		}
	}
	return n
}

func (r loopResult) wrong() int {
	n := 0
	for _, o := range r.recs {
		if o.bad {
			n++
		}
	}
	return n
}

func (r loopResult) count(kind string) int {
	n := 0
	for _, o := range r.recs {
		if kind == "" || o.kind == kind {
			n++
		}
	}
	return n
}

// lats returns the sorted latencies (ms) of the operations of one kind
// ("" = all).
func (r loopResult) lats(kind string) []float64 {
	var out []float64
	for _, o := range r.recs {
		if kind == "" || o.kind == kind {
			out = append(out, float64(o.lat)/float64(time.Millisecond))
		}
	}
	sort.Float64s(out)
	return out
}

// quantile is the nearest-rank q-quantile of sorted xs (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// tailPct is the highest percentile of a fixed ladder that leaves at least
// ten samples beyond it among n samples (50 when none does).
func tailPct(n int) int {
	best := 50
	for _, p := range []int{50, 75, 90, 95, 99} {
		if float64(n)*float64(100-p)/100 >= 10 {
			best = p
		}
	}
	return best
}

// throughput is operations per second: against busy time for a single
// caller, against wall time for concurrent callers.
func (r loopResult) throughput(callers int) float64 {
	d := r.wall
	if callers == 1 {
		d = r.busy
	}
	if d <= 0 {
		return 0
	}
	return float64(len(r.recs)) / d.Seconds()
}

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runtimeCounters reads the cumulative allocation and GC CPU counters.
func runtimeCounters() (alloc, gcCPU, totalCPU float64) {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	return val(s[0].Value), val(s[1].Value), val(s[2].Value)
}

// heapSampler polls the bytes occupied by heap objects and keeps the peak.
type heapSampler struct {
	stop chan struct{}
	done sync.WaitGroup
	peak float64
}

func heapInUse() float64 {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return float64(s[0].Value.Uint64())
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), peak: heapInUse()}
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				if v := heapInUse(); v > h.peak {
					h.peak = v
				}
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the peak in bytes.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	h.done.Wait()
	if v := heapInUse(); v > h.peak {
		h.peak = v
	}
	return h.peak
}

// phase brackets a closed-loop phase with the process counters every
// phase reports: a GC first so earlier garbage does not count, then CPU
// time, allocation and GC counters and the heap peak.
type phase struct {
	start     time.Time
	cpu       time.Duration
	alloc     float64
	gc, total float64
	heap      *heapSampler
}

func beginPhase() *phase {
	runtime.GC()
	p := &phase{start: time.Now(), cpu: cpuTime(), heap: startHeapSampler()}
	p.alloc, p.gc, p.total = runtimeCounters()
	return p
}

func (p *phase) end(r *loopResult) {
	r.wall = time.Since(p.start)
	r.cpu = cpuTime() - p.cpu
	r.peakHeap = p.heap.finish()
	alloc, gc, total := runtimeCounters()
	r.allocBytes, r.gcCPU, r.totalCPU = alloc-p.alloc, gc-p.gc, total-p.total
}
