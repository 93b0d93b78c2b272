package telemetry

import (
	"strings"
	"testing"
	"time"
)

// TestWriteTextGolden pins the full fixed-width text rendering byte for
// byte under a fake clock, so exporter regressions (ordering, column
// layout, formatting) surface as a readable diff.
func TestWriteTextGolden(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1700000000, 0).UTC()}
	r := New()
	r.now = clk.now
	r.Counter("b_total").Add(2)
	r.Counter("a_total", "tx", "khi-1").Add(7)
	r.Gauge("depth").Set(3.5)
	h := r.Histogram("lat_seconds", []float64{1, 2})
	h.Observe(0.5)
	h.Observe(1.5)
	sp := r.StartSpan("encode")
	clk.advance(250 * time.Millisecond)
	sp.End()

	var b strings.Builder
	r.Snapshot().WriteText(&b)

	// Span quantiles are bucketized (LatencyBuckets), so the 250 ms
	// span reports its bucket's interpolated p50/p99, not 250.000.
	golden := `# SONIC telemetry snapshot @ 2023-11-14T22:13:20Z

## counters
counter            value
------------------------
a_total{tx=khi-1}  7
b_total            2

## gauges
gauge  value
------------
depth  3.5

## histograms
histogram    count  sum  mean  p50  p99
----------------------------------------
lat_seconds  2      2    1     1    1.98

## spans (per-stage wall time)
span    count  total_s  self_s  p50_ms   p99_ms
------------------------------------------------
encode  1      0.250    0.250   307.200  407.552
`
	if got := b.String(); got != golden {
		t.Errorf("WriteText drifted from golden.\n--- got ---\n%s\n--- want ---\n%s", got, golden)
	}
}
