package telemetry

import (
	"math"
	"testing"
)

// TestQuantileTable pins the Quantile semantics documented on the
// method: empty/NaN handling, clamping, the q=0/q=1 endpoints at the
// observed extremes, the overflow-bucket floor, and linear
// interpolation within a bucket, clamped into the observed range.
func TestQuantileTable(t *testing.T) {
	observe := func(h *Histogram, vs ...float64) *Histogram {
		for _, v := range vs {
			h.Observe(v)
		}
		return h
	}
	cases := []struct {
		name string
		h    *Histogram
		q    float64
		want float64 // NaN means "want NaN"
	}{
		{"nil histogram", nil, 0.5, math.NaN()},
		{"empty", newHistogram([]float64{1, 2}), 0.5, math.NaN()},
		{"NaN q", observe(newHistogram([]float64{1, 2}), 0.5), math.NaN(), math.NaN()},

		// One observation: every quantile is that observation (the
		// bucket would interpolate across (0,1]).
		{"single obs q=0", observe(newHistogram([]float64{1, 2}), 0.5), 0, 0.5},
		{"single obs q=0.5", observe(newHistogram([]float64{1, 2}), 0.5), 0.5, 0.5},
		{"single obs q=1", observe(newHistogram([]float64{1, 2}), 0.5), 1, 0.5},

		// q outside [0,1] clamps to the endpoints.
		{"q<0 clamps", observe(newHistogram([]float64{1, 2}), 0.5), -3, 0.5},
		{"q>1 clamps", observe(newHistogram([]float64{1, 2}), 0.5), 7, 0.5},

		// Two buckets with 1 sample each: the median is the first
		// bucket's upper bound, q=1 the largest observation, not the
		// last occupied bucket's bound (2).
		{"two buckets q=0.5", observe(newHistogram([]float64{1, 2}), 0.5, 1.5), 0.5, 1},
		{"two buckets q=1", observe(newHistogram([]float64{1, 2}), 0.5, 1.5), 1, 1.5},
		// q=0 is the smallest observation, not the first occupied
		// bucket's lower bound (1).
		{"q=0 is the smallest observation", observe(newHistogram([]float64{1, 2}), 1.5, 1.5), 0, 1.5},

		// Interpolation: 4 samples in (0,10] at rank fraction 0.25
		// lands a quarter of the way through the bucket; at 0.9 it
		// would land at 9, past the largest sample, and clamps to it.
		{"interpolates", observe(newHistogram([]float64{10}), 1, 2, 3, 4), 0.25, 2.5},
		{"interpolation clamps high", observe(newHistogram([]float64{10}), 1, 2, 3, 4), 0.9, 4},
		{"interpolation clamps low", observe(newHistogram([]float64{10}), 7, 8, 9, 10), 0.1, 7},

		// Overflow bucket: quantiles landing in +Inf report the floor
		// (the largest finite bound), raised to the smallest
		// observation when every sample overflowed.
		{"overflow floor", observe(newHistogram([]float64{1}), 0.5, 5, 6), 0.9, 1},
		{"overflow above every bound", observe(newHistogram([]float64{1}), 5, 6), 0.5, 5},
		{"overflow q=1", observe(newHistogram([]float64{1}), 0.5, 5), 1, 1},
		{"no finite buckets", observe(newHistogram(nil), 3), 0.5, 3},
	}
	for _, tc := range cases {
		got := tc.h.Quantile(tc.q)
		if math.IsNaN(tc.want) {
			if !math.IsNaN(got) {
				t.Errorf("%s: Quantile(%v) = %v, want NaN", tc.name, tc.q, got)
			}
			continue
		}
		if math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("%s: Quantile(%v) = %v, want %v", tc.name, tc.q, got, tc.want)
		}
	}
}

// TestQuantileMonotone: quantiles never decrease in q, across a spread
// of bucket shapes, and stay inside the observed range.
func TestQuantileMonotone(t *testing.T) {
	h := newHistogram(ExpBuckets(0.001, 2, 12))
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) * 0.004)
	}
	prev := math.Inf(-1)
	for q := 0.0; q <= 1.0; q += 0.01 {
		v := h.Quantile(q)
		if v < prev {
			t.Fatalf("Quantile(%v) = %v < previous %v", q, v, prev)
		}
		if v < 0.004 || v > 0.4 {
			t.Fatalf("Quantile(%v) = %v outside the observed [0.004, 0.4]", q, v)
		}
		prev = v
	}
}
