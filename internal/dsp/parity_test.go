package dsp

import (
	"math"
	"math/rand"
	"testing"
)

// Parity pins for the scalar references the tests measure with: the FFT
// overlap-save convolver versus the direct O(n·m) Convolve, and the
// Goertzel single-bin detector versus the full FFT. These keep the
// references honest — if either side drifts, the comparison breaks.

// Convolve returns the full linear convolution of a and b
// (length len(a)+len(b)-1).
func Convolve(a, b []float64) []float64 {
	if len(a) == 0 || len(b) == 0 {
		return nil
	}
	out := make([]float64, len(a)+len(b)-1)
	for i, av := range a {
		for j, bv := range b {
			out[i+j] += av * bv
		}
	}
	return out
}

// Goertzel computes the magnitude of the DFT bin closest to targetHz for
// the block x sampled at sampleRate: the standard single-bin tone
// detector the resampler and tone tests measure with.
func Goertzel(x []float64, targetHz, sampleRate float64) float64 {
	n := len(x)
	if n == 0 {
		return 0
	}
	k := math.Round(float64(n) * targetHz / sampleRate)
	w := 2 * math.Pi * k / float64(n)
	coeff := 2 * math.Cos(w)
	var s0, s1, s2 float64
	for _, v := range x {
		s0 = v + coeff*s1 - s2
		s2 = s1
		s1 = s0
	}
	power := s1*s1 + s2*s2 - coeff*s1*s2
	if power < 0 {
		power = 0
	}
	return math.Sqrt(power)
}

func TestFFTConvolverMatchesConvolve(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	check := func(nt, nx int, dst []float64) []float64 {
		taps := make([]float64, nt)
		for i := range taps {
			taps[i] = rng.NormFloat64()
		}
		x := make([]float64, nx)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		// Zero-state FIR filtering is the first len(x) samples of the
		// full linear convolution.
		want := Convolve(taps, x)[:nx]
		got := NewFFTConvolver(taps).Apply(dst, x)
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
				t.Fatalf("nt=%d nx=%d: sample %d = %g, Convolve reference %g", nt, nx, i, got[i], want[i])
			}
		}
		return got
	}
	for _, nt := range []int{1, 7, 33, 64} {
		for _, nx := range []int{1, 50, 500} {
			check(nt, nx, nil)
		}
	}
	// The modem's preamble search: a 2048-tap reversed chirp over one
	// 65 536-lag window plus the chirp's tail, into a dst reused from
	// the previous window (its stale samples must not leak through).
	const syncTaps, syncWindow = 2048, 1<<16 + 2048 - 1
	dst := check(syncTaps, syncWindow, nil)
	if got := check(syncTaps, syncWindow, dst[:0]); &got[0] != &dst[0] {
		t.Error("sync-shaped Apply reallocated a dst of sufficient capacity")
	}
}

func TestGoertzelMatchesFFTBin(t *testing.T) {
	const n = 256
	const sampleRate = float64(n) // 1 Hz per bin
	rng := rand.New(rand.NewSource(42))
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(2*math.Pi*10*float64(i)/sampleRate) + 0.1*rng.NormFloat64()
	}
	buf := make([]complex128, n)
	for i, v := range x {
		buf[i] = complex(v, 0)
	}
	if err := FFT(buf); err != nil {
		t.Fatal(err)
	}
	for _, bin := range []float64{3, 10, 100} {
		want := cmplxAbs(buf[int(bin)])
		got := Goertzel(x, bin, sampleRate)
		if math.Abs(got-want) > 1e-6*(1+want) {
			t.Fatalf("bin %g: Goertzel = %g, FFT magnitude = %g", bin, got, want)
		}
	}
}

func cmplxAbs(c complex128) float64 {
	return math.Hypot(real(c), imag(c))
}
