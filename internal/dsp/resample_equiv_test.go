package dsp

import (
	"math"
	"math/rand"
	"testing"
)

// refResampleInto is a frozen copy of the linear resampler. The fm
// equivalence suite cannot pin the resampler (its reference also calls
// dsp.ResampleInto), so it is pinned here at the bit level against its
// own frozen implementation.
func refResampleInto(dst, x []float64, srcRate, dstRate float64) []float64 {
	n := ResampleLen(len(x), srcRate, dstRate)
	if n == 0 {
		return nil
	}
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	if srcRate == dstRate {
		copy(dst, x)
		return dst
	}
	ratio := srcRate / dstRate
	for i := range dst {
		pos := float64(i) * ratio
		i0 := int(pos)
		if i0 >= len(x)-1 {
			dst[i] = x[len(x)-1]
			continue
		}
		frac := pos - float64(i0)
		dst[i] = x[i0]*(1-frac) + x[i0+1]*frac
	}
	return dst
}

func assertBitEqual(t *testing.T, got, want []float64, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: len %d != %d", label, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: sample %d: %v (%#x) != %v (%#x)",
				label, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestResampleMatchesReference pins the resampler bit-for-bit against
// the frozen implementation across the rate pairs SONIC uses plus
// awkward irrational-ratio pairs, and short signals that live entirely
// in the clamp region, both into a fresh slice and into a reused dst,
// whose length ResampleLen must predict.
func TestResampleMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	rates := []struct{ src, dst float64 }{
		{48000, 192000}, // audio → FM composite (the hot path)
		{192000, 48000}, // composite → audio
		{44100, 48000},  // non-integer ratio
		{48000, 44100},
		{8000, 6000},
		{1234.5, 987.6}, // irrational-ish ratio
		{48000, 48000},  // equal-rate copy path
	}
	lengths := []int{1, 2, 3, 7, 100, 1023, 4096, 48000}
	for _, r := range rates {
		for _, n := range lengths {
			x := make([]float64, n)
			for i := range x {
				x[i] = rng.NormFloat64()
			}
			got := ResampleInto(nil, x, r.src, r.dst)
			want := refResampleInto(nil, x, r.src, r.dst)
			assertBitEqual(t, got, want, "resample")
			if m := ResampleLen(n, r.src, r.dst); m != len(want) {
				t.Fatalf("ResampleLen(%d, %v) = %d, want %d", n, r, m, len(want))
			}
			dst := make([]float64, 0, len(want))
			got = ResampleInto(dst, x, r.src, r.dst)
			if &got[0] != &dst[:1][0] {
				t.Fatalf("%v: ResampleInto reallocated a dst of sufficient capacity", r)
			}
			assertBitEqual(t, got, want, "resample into dst")
		}
	}
}

func BenchmarkResampleReference48kTo192k(b *testing.B) {
	x := make([]float64, 48000)
	rng := rand.New(rand.NewSource(41))
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	dst := make([]float64, ResampleLen(len(x), 48000, 192000))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = refResampleInto(dst, x, 48000, 192000)
	}
	_ = dst
}
