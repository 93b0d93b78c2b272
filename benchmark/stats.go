package main

import (
	"math"
	"sort"
)

// quantile returns the nearest-rank q-quantile of an ascending slice:
// the smallest value with at least q of the sample at or below it. It
// interpolates nothing, so it is exact on the simulated clock.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	k := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[clamp(k, 0, len(sorted)-1)]
}

// tailQuantile is the percentile rule: beside the median, report the
// highest percentile (up to p99) that still has at least ten samples
// beyond it. A sample too small for any tail falls back to the median.
func tailQuantile(n int) float64 {
	for _, pct := range []int{99, 95, 90, 75} {
		if n*(100-pct)/100 >= 10 {
			return float64(pct) / 100
		}
	}
	return 0.5
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 {
	s := sortedCopy(v)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// quartiles reproduces Python's statistics.quantiles(v, n=4) (the
// default exclusive method), which is what the driver computes a
// metric's spread with. It needs at least two values.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sortedCopy(v)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	at := func(i int) float64 {
		m := n + 1
		j := clamp(i*m/4, 1, n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// spread is the distance between the first and third quartile as a
// share of the median — the steadiness measure the bounds are judged
// against.
func spread(v []float64) float64 {
	q1, _, q3 := quartiles(v)
	m := median(v)
	if m == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(m)
}

// worseBy is how far b is worse than a, as a share of a, in the
// metric's own direction; negative when b is better.
func worseBy(better string, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / math.Abs(a)
	}
	return (b - a) / math.Abs(a)
}
