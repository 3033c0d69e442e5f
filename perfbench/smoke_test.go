package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// benchmarkDef is the part of ../BENCHMARK.json the smoke test checks.
type benchmarkDef struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadDef(t *testing.T) benchmarkDef {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d benchmarkDef
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// runTiny runs the benchmark at tiny sizes and returns its meta and result.
func runTiny(t *testing.T, workload, trace string) (meta, result) {
	t.Helper()
	var out, errb bytes.Buffer
	args := []string{"-workload", workload, "-seed", "5", "-seconds", "1", "-trace", trace, "-tiny", "-out", t.TempDir()}
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("%s trace %s: exit %d: %s", workload, trace, code, errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) < 2 {
		t.Fatalf("%s: want a meta line and a result line, got %q", workload, out.String())
	}
	var m map[string]meta
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-2]), &m); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
		t.Fatalf("%s trace %s: correct=%v attempted=%d failed=%d", workload, trace, res.Correct, res.Attempted, res.Failed)
	}
	return m["perfbench"], res
}

// checkMetrics requires exactly the defined metrics, each with its unit.
func checkMetrics(t *testing.T, workload string, got map[string]metric, want []struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics printed, BENCHMARK.json defines %d", workload, len(got), len(want))
	}
	for _, w := range want {
		m, ok := got[w.Name]
		if !ok {
			t.Errorf("%s: metric %s not printed", workload, w.Name)
			continue
		}
		if m.Unit != w.Unit {
			t.Errorf("%s: metric %s has unit %q, want %q", workload, w.Name, m.Unit, w.Unit)
		}
	}
}

func readSpans(t *testing.T, path string) []span {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var spans []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		spans = append(spans, s)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return spans
}

func TestSmoke(t *testing.T) {
	def := loadDef(t)
	for _, w := range def.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			_, res := runTiny(t, w.Name, "0")
			checkMetrics(t, w.Name, res.Metrics, def.EndToEnd)
			for name, m := range res.Metrics {
				if m.Value <= 0 {
					t.Errorf("end-to-end metric %s is %v, want > 0", name, m.Value)
				}
			}

			m, res := runTiny(t, w.Name, "1")
			checkMetrics(t, w.Name, res.Metrics, def.PerLayer)
			for name, v := range res.Metrics {
				if v.Value < 0 {
					t.Errorf("per-layer metric %s is %v, want >= 0", name, v.Value)
				}
			}
			spans := readSpans(t, m.Spans)
			if len(spans) == 0 {
				t.Fatal("no spans written")
			}
			// Spans nest within their parents, and the children of every
			// span (an operation's layer spans included) sum to no more
			// than the span itself.
			if err := checkNesting(spans); err != nil {
				t.Fatal(err)
			}
			lt, err := totals(spans)
			if err != nil {
				t.Fatal(err)
			}
			for name, self := range lt.self {
				if self < 0 {
					t.Errorf("self time of %s is %v", name, self)
				}
			}
			layer := func(name string) float64 { return res.Metrics[name].Value }
			switch w.Name {
			case "relational":
				if layer("core.shuffle_ms") <= 0 || layer("relops.execute_ms") <= 0 || layer("relops.joinall_ms") <= 0 {
					t.Errorf("relational: shuffle %v, execute %v, joinall %v; want all > 0",
						layer("core.shuffle_ms"), layer("relops.execute_ms"), layer("relops.joinall_ms"))
				}
			case "serve":
				if layer("core.shuffle_ms") != 0 || layer("bitonic.ms") <= 0 || layer("serve.rtt_ms") <= 0 || layer("serve.execute_ms") <= 0 {
					t.Errorf("serve: shuffle %v (want 0), bitonic %v, rtt %v, execute %v (want > 0)",
						layer("core.shuffle_ms"), layer("bitonic.ms"), layer("serve.rtt_ms"), layer("serve.execute_ms"))
				}
			case "graph":
				if layer("graph.kernel_ms") <= 0 || layer("graph.rounds") <= 0 || layer("serve.rtt_ms") != 0 {
					t.Errorf("graph: kernel %v, rounds %v (want > 0), serve rtt %v (want 0)",
						layer("graph.kernel_ms"), layer("graph.rounds"), layer("serve.rtt_ms"))
				}
			}
		})
	}
}

// TestRefusesMoreThreadsThanCPUs pins the CPU guard: a run whose workers
// or clients outnumber the usable CPUs exits non-zero without a result.
func TestRefusesMoreThreadsThanCPUs(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	var out, errb bytes.Buffer
	code := run([]string{"-workload", "serve", "-seconds", "1", "-tiny"}, &out, &errb)
	if code == 0 || out.Len() != 0 || !strings.Contains(errb.String(), "refusing") {
		t.Fatalf("exit %d, stdout %q, stderr %q; want a refusal", code, out.String(), errb.String())
	}
}

func TestTailPct(t *testing.T) {
	for _, c := range []struct{ n, want int }{{5, 50}, {39, 50}, {40, 75}, {100, 90}, {199, 90}, {200, 95}, {1000, 99}} {
		if got := tailPct(c.n); got != c.want {
			t.Errorf("tailPct(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

// TestHandlerSpanClosesBeforeResponse checks that the wrapped serve
// handler's span ends before the client can read the response, even when
// the handler is held up after writing a body too large to buffer.
func TestHandlerSpanClosesBeforeResponse(t *testing.T) {
	body := bytes.Repeat([]byte("x"), 1<<16)
	h := &tracedHandler{inner: http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Write(body)
		time.Sleep(50 * time.Millisecond)
	})}
	tr := newTracer()
	h.tr.Store(tr)
	srv := httptest.NewServer(h)
	defer srv.Close()

	rt := &spanRT{base: srv.Client().Transport, traced: true}
	rt.span = tr.begin("serve.rtt", -1, 0)
	req, err := http.NewRequest(http.MethodGet, srv.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := rt.RoundTrip(req)
	if err != nil {
		t.Fatal(err)
	}
	// Like the client's JSON decoder, stop at the last body byte rather
	// than at the end of the stream.
	got := make([]byte, len(body))
	_, err = io.ReadFull(resp.Body, got)
	tr.end(rt.span)
	resp.Body.Close()
	if err != nil || !bytes.Equal(got, body) {
		t.Fatalf("read %d bytes (err %v), want %d", len(got), err, len(body))
	}
	if err := checkNesting(tr.snapshot()); err != nil {
		t.Fatal(err)
	}
	if n := h.bytes.Load(); n != int64(len(body)) {
		t.Fatalf("counted %d response bytes, want %d", n, len(body))
	}
}
