package stats

import (
	"math"
	"strings"
	"testing"
)

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := map[float64]float64{0: 1, 25: 2, 50: 3, 75: 4, 100: 5}
	for p, want := range cases {
		if got := Percentile(xs, p); got != want {
			t.Errorf("P%g = %g, want %g", p, got, want)
		}
	}
	// Interpolation.
	if got := Percentile([]float64{0, 10}, 50); got != 5 {
		t.Errorf("interpolated median = %g", got)
	}
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Error("empty percentile should be NaN")
	}
	// Input must not be mutated.
	in := []float64{3, 1, 2}
	Percentile(in, 50)
	if in[0] != 3 {
		t.Error("Percentile mutated input")
	}
}

func TestMeanMedianStd(t *testing.T) {
	if Median([]float64{1, 3, 2}) != 2 {
		t.Error("median wrong")
	}
}

func TestBoxplot(t *testing.T) {
	b := BoxplotOf([]float64{1, 2, 3, 4, 5})
	if b.Min != 1 || b.Median != 3 || b.Max != 5 {
		t.Errorf("box = %+v", b)
	}
	if !strings.Contains(b.String(), "med=3.00") {
		t.Errorf("String = %q", b.String())
	}
}

func TestCDF(t *testing.T) {
	v, c := CDF([]float64{3, 1, 2})
	if v[0] != 1 || v[2] != 3 {
		t.Errorf("values = %v", v)
	}
	if c[0] != 1.0/3 || c[2] != 1 {
		t.Errorf("cum = %v", c)
	}
	if got := CDFAt([]float64{1, 2, 3, 4}, 2.5); got != 0.5 {
		t.Errorf("CDFAt = %g", got)
	}
	if vs, cs := CDF(nil); vs != nil || cs != nil {
		t.Error("empty CDF should be nil")
	}
}

func TestTableRender(t *testing.T) {
	var tb Table
	tb.AddRow("distance", "loss%")
	tb.AddRowf("cable", 0.0)
	tb.AddRowf("1m", 15.5)
	var sb strings.Builder
	tb.Render(&sb)
	out := sb.String()
	if !strings.Contains(out, "distance") || !strings.Contains(out, "15.50") {
		t.Errorf("render:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Errorf("expected 4 lines, got %d", len(lines))
	}
	// Empty table renders nothing.
	var empty Table
	var sb2 strings.Builder
	empty.Render(&sb2)
	if sb2.Len() != 0 {
		t.Error("empty table should render nothing")
	}
}
