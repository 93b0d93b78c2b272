package telemetry

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := New()
	c := r.Counter("frames_total")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	// Same name returns the same handle.
	if r.Counter("frames_total") != c {
		t.Fatal("counter not deduplicated by name")
	}
	// Labels create distinct series.
	a := r.Counter("queue_total", "tx", "a")
	b := r.Counter("queue_total", "tx", "b")
	if a == b {
		t.Fatal("labeled counters not distinct")
	}
	a.Inc()
	snap := r.Snapshot()
	if snap.Counters["queue_total{tx=a}"] != 1 || snap.Counters["queue_total{tx=b}"] != 0 {
		t.Fatalf("label keys wrong: %v", snap.Counters)
	}

	g := r.Gauge("snr_db")
	g.Set(17.5)
	if got := g.Value(); got != 17.5 {
		t.Fatalf("gauge = %v, want 17.5", got)
	}
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	r := New()
	h := r.Histogram("lat", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 0.7, 5, 50, 500} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d", h.Count())
	}
	if math.Abs(h.Sum()-556.2) > 1e-9 {
		t.Fatalf("sum = %v", h.Sum())
	}
	hs := r.Snapshot().Histograms["lat"]
	want := map[string]int64{"1": 2, "10": 1, "100": 1, "+Inf": 1}
	for _, b := range hs.Buckets {
		if want[b.Le] != b.Count {
			t.Fatalf("bucket %s = %d, want %d", b.Le, b.Count, want[b.Le])
		}
	}
	if q := h.Quantile(0.5); q < 0.5 || q > 10 {
		t.Fatalf("p50 = %v out of plausible range", q)
	}
	if q := h.Quantile(0); math.IsNaN(q) {
		t.Fatal("q0 NaN on non-empty histogram")
	}
}

func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	c.Inc()
	c.Add(10)
	if c.Value() != 0 {
		t.Fatal("nil counter accumulated")
	}
	r.Gauge("g").Set(3)
	r.Histogram("h", LatencyBuckets).Observe(1)
	sp := r.StartSpan("root")
	child := sp.StartChild("leaf")
	child.End()
	if d := sp.End(); d != 0 {
		t.Fatalf("nil span duration %v", d)
	}
	snap := r.Snapshot()
	if len(snap.Counters) != 0 || len(snap.Spans) != 0 {
		t.Fatal("nil snapshot not empty")
	}
}

// TestConcurrentWritersAndSnapshots hammers one counter, one labeled
// gauge, and one histogram from parallel writers while a reader keeps
// snapshotting; run under -race this is the concurrency-safety proof.
func TestConcurrentWritersAndSnapshots(t *testing.T) {
	r := New()
	const writers = 8
	const perWriter = 2000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	readerDone := make(chan struct{})

	// Snapshot reader, stopped after the writers drain.
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
				_ = r.Snapshot()
			}
		}
	}()

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := r.Counter("ops_total")
			h := r.Histogram("ops_lat", LatencyBuckets)
			g := r.Gauge("last", "writer", string(rune('a'+w)))
			sp := r.StartSpan("worker")
			for i := 0; i < perWriter; i++ {
				c.Inc()
				h.Observe(float64(i) * 1e-6)
				g.Set(float64(i))
			}
			sp.End()
		}(w)
	}
	wg.Wait()
	close(stop)
	<-readerDone

	snap := r.Snapshot()
	if got := snap.Counters["ops_total"]; got != writers*perWriter {
		t.Fatalf("ops_total = %d, want %d", got, writers*perWriter)
	}
	if got := snap.Histograms["ops_lat"].Count; got != writers*perWriter {
		t.Fatalf("hist count = %d, want %d", got, writers*perWriter)
	}
	if got := snap.Spans["worker"].Count; got != writers {
		t.Fatalf("span count = %d, want %d", got, writers)
	}
}

func TestExportTextAndJSONAndHTTP(t *testing.T) {
	r := New()
	r.Counter("core_pages_encoded_total").Add(3)
	r.Gauge("fm_cnr_db").Set(32.1)
	r.Histogram("server_render_seconds", LatencyBuckets).Observe(0.01)
	sp := r.StartSpan("core.encode_page")
	sp.StartChild("modulate").End()
	sp.End()

	var b strings.Builder
	r.Snapshot().WriteText(&b)
	out := b.String()
	for _, want := range []string{
		"core_pages_encoded_total", "fm_cnr_db",
		"server_render_seconds", "core.encode_page/modulate",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("text export missing %q:\n%s", want, out)
		}
	}

	blob, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatalf("json: %v", err)
	}
	var back Snapshot
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatalf("json round-trip: %v", err)
	}
	if back.Counters["core_pages_encoded_total"] != 3 {
		t.Fatal("json snapshot lost counter")
	}

	srv := httptest.NewServer(Handler(r))
	defer srv.Close()
	for path, want := range map[string]string{
		"/metrics":      "core_pages_encoded_total",
		"/metrics.json": `"fm_cnr_db"`,
		"/debug/pprof/": "profile",
	} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		if !strings.Contains(string(body), want) {
			t.Fatalf("GET %s: missing %q", path, want)
		}
	}
}

// fakeClock is a manually advanced clock for deterministic span tests.
type fakeClock struct{ t time.Time }

func (f *fakeClock) now() time.Time          { return f.t }
func (f *fakeClock) advance(d time.Duration) { f.t = f.t.Add(d) }

func TestSpanNestingWithFakeClock(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	r := New()
	r.now = clk.now

	root := r.StartSpan("decode")
	clk.advance(10 * time.Millisecond) // root self work

	demod := root.StartChild("demod")
	clk.advance(70 * time.Millisecond)
	demod.End()

	fecSpan := root.StartChild("fec")
	clk.advance(15 * time.Millisecond)
	viterbi := fecSpan.StartChild("viterbi")
	clk.advance(5 * time.Millisecond)
	viterbi.End()
	fecSpan.End()

	clk.advance(2 * time.Millisecond) // more root self work
	root.End()

	snap := r.Snapshot()
	const eps = 1e-9
	check := func(name string, total, self float64) {
		t.Helper()
		sp, ok := snap.Spans[name]
		if !ok {
			t.Fatalf("span %s missing; have %v", name, snap.Spans)
		}
		if math.Abs(sp.TotalSeconds-total) > eps || math.Abs(sp.SelfSeconds-self) > eps {
			t.Fatalf("span %s: total=%v self=%v, want total=%v self=%v",
				name, sp.TotalSeconds, sp.SelfSeconds, total, self)
		}
	}
	// demod 70ms; fec total 20ms with 5ms in viterbi; root total
	// 10+70+20+2 = 102ms, self 12ms.
	check("decode", 0.102, 0.012)
	check("decode/demod", 0.070, 0.070)
	check("decode/fec", 0.020, 0.015)
	check("decode/fec/viterbi", 0.005, 0.005)
}

// BenchmarkTelemetryDisabled proves the acceptance bound: with telemetry
// off (nil handles, as carried by an un-Instrument()ed component) the
// per-frame record — a counter bump plus a latency observation — costs
// under 5 ns/op and zero allocations.
func BenchmarkTelemetryDisabled(b *testing.B) {
	var c *Counter
	var h *Histogram
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
		h.Observe(1)
	}
}

// BenchmarkTelemetryDisabledSpan is the nil cost of a full traced stage
// (root span + child span, started and ended).
func BenchmarkTelemetryDisabledSpan(b *testing.B) {
	var r *Registry
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := r.StartSpan("x")
		sp.StartChild("y").End()
		sp.End()
	}
}

// BenchmarkTelemetryEnabled is the reference cost with live metrics, for
// the curious; it is not bounded by the acceptance criteria.
func BenchmarkTelemetryEnabled(b *testing.B) {
	r := New()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h", LatencyBuckets)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
		g.Set(1)
		h.Observe(1)
	}
}
