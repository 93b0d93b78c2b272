package telemetry

import (
	"bufio"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"
)

func promSnapshot(t *testing.T) Snapshot {
	t.Helper()
	clk := time.Unix(100, 0)
	reg := New()
	reg.now = func() time.Time { return clk }
	reg.Counter("requests_total", "tx", "khi-1").Add(3)
	reg.Counter("requests_total", "tx", "lhe-1").Add(5)
	reg.Counter("weird.name-x").Inc()
	reg.Gauge("depth", "q", `needs "quoting"\and\n`).Set(2.5)
	h := reg.Histogram("lat_seconds", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(10) // overflow bucket
	sp := reg.StartSpan("encode")
	clk = clk.Add(30 * time.Millisecond)
	sp.End()
	return reg.Snapshot()
}

// TestWritePromExposition validates the exposition line by line: every
// sample parses as <name>{labels} <value>, label values are escaped,
// histogram buckets are cumulative and end with +Inf, and the output is
// deterministic across renders.
func TestWritePromExposition(t *testing.T) {
	snap := promSnapshot(t)
	var b1, b2 strings.Builder
	snap.WriteProm(&b1)
	snap.WriteProm(&b2)
	if b1.String() != b2.String() {
		t.Fatal("exposition is not deterministic")
	}
	out := b1.String()

	types := map[string]string{}
	samples := map[string]float64{}
	var lastBucketFam string
	var lastCum float64
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			types[parts[2]] = parts[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		// Sample: name{...} value — value is the last space-separated
		// field, the metric id everything before it.
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed sample line: %q", line)
		}
		id, valStr := line[:sp], line[sp+1:]
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil && valStr != "+Inf" && valStr != "-Inf" && valStr != "NaN" {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		name := id
		if open := strings.IndexByte(id, '{'); open >= 0 {
			if !strings.HasSuffix(id, "}") {
				t.Fatalf("unbalanced labels in %q", line)
			}
			name = id[:open]
		}
		for _, r := range name {
			ok := r == '_' || r == ':' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (r >= '0' && r <= '9')
			if !ok {
				t.Fatalf("invalid metric name character %q in %q", r, name)
			}
		}
		samples[id] = val

		// Cumulative bucket check.
		if strings.Contains(id, "_bucket{") {
			fam := name
			if fam != lastBucketFam {
				lastBucketFam, lastCum = fam, 0
			}
			if val < lastCum {
				t.Errorf("bucket counts not cumulative at %q: %v < %v", id, val, lastCum)
			}
			lastCum = val
		}
	}

	if types["requests_total"] != "counter" || types["depth"] != "gauge" ||
		types["lat_seconds"] != "histogram" || types["sonic_span_seconds"] != "summary" {
		t.Errorf("TYPE lines wrong: %v", types)
	}
	if types["weird_name_x"] != "counter" {
		t.Errorf("name not sanitized: %v", types)
	}
	if samples[`requests_total{tx="khi-1"}`] != 3 || samples[`requests_total{tx="lhe-1"}`] != 5 {
		t.Errorf("labeled counters wrong: %v", samples)
	}
	if samples[`depth{q="needs \"quoting\"\\and\\n"}`] != 2.5 {
		for id := range samples {
			if strings.HasPrefix(id, "depth") {
				t.Errorf("gauge label not escaped as expected: %q", id)
			}
		}
	}
	// Histogram: cumulative buckets 1, 2, 3 ending at +Inf == count.
	if samples[`lat_seconds_bucket{le="0.1"}`] != 1 ||
		samples[`lat_seconds_bucket{le="1"}`] != 2 ||
		samples[`lat_seconds_bucket{le="+Inf"}`] != 3 ||
		samples["lat_seconds_count"] != 3 {
		t.Errorf("histogram series wrong: %v", samples)
	}
	if samples[`sonic_span_seconds_count{span="encode"}`] != 1 {
		t.Errorf("span summary missing: %v", samples)
	}
}

// TestWritePromInfBucketAlwaysPresent: a histogram whose overflow bucket
// is empty still exposes an +Inf bucket equal to the total count.
func TestWritePromInfBucketAlwaysPresent(t *testing.T) {
	reg := New()
	reg.Histogram("x_seconds", []float64{1}).Observe(0.5)
	var b strings.Builder
	reg.Snapshot().WriteProm(&b)
	want := `x_seconds_bucket{le="+Inf"} 1`
	if !strings.Contains(b.String(), want) {
		t.Fatalf("missing %q in:\n%s", want, b.String())
	}
}

func TestParseMetricKey(t *testing.T) {
	cases := []struct {
		key    string
		name   string
		labels [][2]string
	}{
		{"plain", "plain", nil},
		{"a{k=v}", "a", [][2]string{{"k", "v"}}},
		{"a{k=v,x=y}", "a", [][2]string{{"k", "v"}, {"x", "y"}}},
		{"trailing{", "trailing{", nil}, // unbalanced: treated as a bare name
	}
	for _, tc := range cases {
		name, labels := ParseMetricKey(tc.key)
		if name != tc.name || fmt.Sprint(labels) != fmt.Sprint(tc.labels) {
			t.Errorf("ParseMetricKey(%q) = %q %v, want %q %v", tc.key, name, labels, tc.name, tc.labels)
		}
	}
}
