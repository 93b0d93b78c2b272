package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestIsPowerOfTwo(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 1024, 65536} {
		if !IsPowerOfTwo(n) {
			t.Errorf("IsPowerOfTwo(%d) = false, want true", n)
		}
	}
	for _, n := range []int{0, -1, 3, 5, 6, 7, 1000} {
		if IsPowerOfTwo(n) {
			t.Errorf("IsPowerOfTwo(%d) = true, want false", n)
		}
	}
}

func TestNextPowerOfTwo(t *testing.T) {
	cases := map[int]int{1: 1, 2: 2, 3: 4, 5: 8, 1000: 1024, 1024: 1024}
	for in, want := range cases {
		if got := NextPowerOfTwo(in); got != want {
			t.Errorf("NextPowerOfTwo(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestFFTRejectsNonPowerOfTwo(t *testing.T) {
	if err := FFT(make([]complex128, 3)); err != ErrNotPowerOfTwo {
		t.Fatalf("FFT(len 3) err = %v, want ErrNotPowerOfTwo", err)
	}
	if _, err := PlanFFT(12); err != ErrNotPowerOfTwo {
		t.Fatalf("PlanFFT(12) err = %v, want ErrNotPowerOfTwo", err)
	}
}

func TestFFTImpulse(t *testing.T) {
	// FFT of a unit impulse is flat ones.
	x := make([]complex128, 8)
	x[0] = 1
	if err := FFT(x); err != nil {
		t.Fatal(err)
	}
	for i, v := range x {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Errorf("bin %d = %v, want 1", i, v)
		}
	}
}

func TestFFTSingleTone(t *testing.T) {
	// A complex exponential at bin k concentrates all energy in bin k.
	const n, k = 64, 5
	x := make([]complex128, n)
	for i := range x {
		x[i] = cmplx.Rect(1, 2*math.Pi*k*float64(i)/n)
	}
	if err := FFT(x); err != nil {
		t.Fatal(err)
	}
	for i, v := range x {
		mag := cmplx.Abs(v)
		if i == k {
			if !almostEqual(mag, n, 1e-9) {
				t.Errorf("bin %d mag = %g, want %d", i, mag, n)
			}
		} else if mag > 1e-9 {
			t.Errorf("bin %d mag = %g, want 0", i, mag)
		}
	}
}

func TestFFTRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{2, 16, 128, 1024} {
		x := make([]complex128, n)
		orig := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			orig[i] = x[i]
		}
		p, err := PlanFFT(n)
		if err != nil {
			t.Fatal(err)
		}
		p.Forward(x)
		p.Inverse(x)
		for i := range x {
			if cmplx.Abs(x[i]-orig[i]) > 1e-9 {
				t.Fatalf("n=%d round trip mismatch at %d: %v vs %v", n, i, x[i], orig[i])
			}
		}
	}
}

func TestFFTParseval(t *testing.T) {
	// Parseval: sum |x|^2 == (1/N) sum |X|^2.
	rng := rand.New(rand.NewSource(2))
	const n = 256
	x := make([]complex128, n)
	var te float64
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		te += real(x[i])*real(x[i]) + imag(x[i])*imag(x[i])
	}
	if err := FFT(x); err != nil {
		t.Fatal(err)
	}
	var fe float64
	for _, v := range x {
		fe += real(v)*real(v) + imag(v)*imag(v)
	}
	if !almostEqual(te, fe/n, 1e-6*te) {
		t.Errorf("Parseval violated: time %g vs freq %g", te, fe/n)
	}
}

func TestFFTLinearityProperty(t *testing.T) {
	// Property: FFT(a*x + y) == a*FFT(x) + FFT(y), checked with testing/quick
	// over random seeds.
	f := func(seed int64, scale float64) bool {
		if math.IsNaN(scale) || math.IsInf(scale, 0) || math.Abs(scale) > 1e6 {
			scale = 1.5
		}
		rng := rand.New(rand.NewSource(seed))
		const n = 64
		x := make([]complex128, n)
		y := make([]complex128, n)
		comb := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			y[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			comb[i] = complex(scale, 0)*x[i] + y[i]
		}
		FFT(x)
		FFT(y)
		FFT(comb)
		for i := range comb {
			want := complex(scale, 0)*x[i] + y[i]
			if cmplx.Abs(comb[i]-want) > 1e-6*(1+cmplx.Abs(want)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestWindows(t *testing.T) {
	for name, fn := range map[string]func(int) []float64{
		"hann": Hann, "hamming": Hamming,
	} {
		w := fn(64)
		if len(w) != 64 {
			t.Fatalf("%s: len = %d", name, len(w))
		}
		// Symmetric and bounded in [~0, 1].
		for i := range w {
			if w[i] < -1e-12 || w[i] > 1+1e-12 {
				t.Errorf("%s[%d] = %g out of range", name, i, w[i])
			}
			if !almostEqual(w[i], w[len(w)-1-i], 1e-12) {
				t.Errorf("%s not symmetric at %d", name, i)
			}
		}
		if one := fn(1); len(one) != 1 || one[0] != 1 {
			t.Errorf("%s(1) = %v, want [1]", name, one)
		}
	}
	// Hann endpoints are 0, midpoint ~1.
	w := Hann(65)
	if !almostEqual(w[0], 0, 1e-12) || !almostEqual(w[32], 1, 1e-12) {
		t.Errorf("Hann shape wrong: ends %g mid %g", w[0], w[32])
	}
}

func TestSinc(t *testing.T) {
	if Sinc(0) != 1 {
		t.Errorf("Sinc(0) = %g", Sinc(0))
	}
	for _, k := range []float64{1, 2, 3, -4} {
		if !almostEqual(Sinc(k), 0, 1e-12) {
			t.Errorf("Sinc(%g) = %g, want 0", k, Sinc(k))
		}
	}
}

func TestLowpassFIRResponse(t *testing.T) {
	const sr = 48000.0
	taps := LowpassFIR(4000, sr, 101)
	// DC gain should be 1 (sum of taps).
	var sum float64
	for _, v := range taps {
		sum += v
	}
	if !almostEqual(sum, 1, 1e-9) {
		t.Fatalf("DC gain = %g, want 1", sum)
	}
	// Passband tone (1 kHz) passes, stopband tone (12 kHz) is attenuated.
	conv := NewFFTConvolver(taps)
	gain := func(hz float64) float64 {
		x := make([]float64, 4800)
		for i := range x {
			x[i] = math.Sin(2 * math.Pi * hz * float64(i) / sr)
		}
		var peak float64
		for i, y := range conv.Apply(nil, x) {
			if i > len(taps) && math.Abs(y) > peak {
				peak = math.Abs(y)
			}
		}
		return peak
	}
	if g := gain(1000); g < 0.95 {
		t.Errorf("passband gain @1kHz = %g, want ~1", g)
	}
	if g := gain(12000); g > 0.05 {
		t.Errorf("stopband gain @12kHz = %g, want ~0", g)
	}
}

func TestConvolve(t *testing.T) {
	got := Convolve([]float64{1, 2, 3}, []float64{1, 1})
	want := []float64{1, 3, 5, 3}
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if !almostEqual(got[i], want[i], 1e-12) {
			t.Errorf("conv[%d] = %g, want %g", i, got[i], want[i])
		}
	}
	if Convolve(nil, []float64{1}) != nil {
		t.Error("Convolve(nil, x) should be nil")
	}
}

// CrossCorrelate is the direct O(N·len(needle)) sliding dot product of
// needle against haystack. Index i of the result is the correlation of
// needle with haystack[i : i+len(needle)]. Result length is
// len(haystack)-len(needle)+1; returns nil if needle is longer than
// haystack or either is empty.
func CrossCorrelate(haystack, needle []float64) []float64 {
	n := len(haystack) - len(needle) + 1
	if n <= 0 || len(needle) == 0 {
		return nil
	}
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		var acc float64
		for j, nv := range needle {
			acc += nv * haystack[i+j]
		}
		out[i] = acc
	}
	return out
}

// TestCrossCorrelateFindsOffset correlates the way the modem's preamble
// search does, by convolving with the time-reversed needle (output
// len(needle)-1+i is the dot product at lag i), and requires the direct
// sum's values and its peak at the planted offset.
func TestCrossCorrelateFindsOffset(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	needle := make([]float64, 64)
	for i := range needle {
		needle[i] = rng.NormFloat64()
	}
	haystack := make([]float64, 512)
	for i := range haystack {
		haystack[i] = 0.1 * rng.NormFloat64()
	}
	const offset = 200
	for i, v := range needle {
		haystack[offset+i] += v
	}
	var energy float64
	for _, v := range needle {
		energy += v * v
	}
	rev := make([]float64, len(needle))
	for i, v := range needle {
		rev[len(rev)-1-i] = v
	}
	cc := NewFFTConvolver(rev).Apply(nil, haystack)[len(needle)-1:]
	if d := maxAbsDiff(t, cc, CrossCorrelate(haystack, needle)); d > 1e-9 {
		t.Errorf("reversed-needle convolution differs from the direct sum by %g", d)
	}
	peak := 0
	for i, v := range cc {
		if v > cc[peak] {
			peak = i
		}
	}
	if peak != offset {
		t.Errorf("peak at %d, want %d", peak, offset)
	}
	if cc[offset] < 0.8*energy {
		t.Errorf("peak correlation %g, want > 0.8 of the needle's energy %g", cc[offset], energy)
	}
}

func TestCrossCorrelateEdgeCases(t *testing.T) {
	if CrossCorrelate([]float64{1}, []float64{1, 2}) != nil {
		t.Error("needle longer than haystack should give nil")
	}
	if CrossCorrelate(nil, nil) != nil {
		t.Error("empty inputs should give nil")
	}
}

func TestResampleIdentity(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	y := ResampleInto(nil, x, 48000, 48000)
	if len(y) != len(x) {
		t.Fatalf("len = %d", len(y))
	}
	for i := range x {
		if y[i] != x[i] {
			t.Errorf("identity resample changed sample %d", i)
		}
	}
	// Returned slice must be a copy.
	y[0] = 99
	if x[0] == 99 {
		t.Error("ResampleInto returned aliased slice")
	}
}

func TestResamplePreservesTone(t *testing.T) {
	// A 1 kHz tone resampled 48k -> 32k should still be a 1 kHz tone.
	const src, dst = 48000.0, 32000.0
	n := 4800
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(2 * math.Pi * 1000 * float64(i) / src)
	}
	y := ResampleInto(nil, x, src, dst)
	wantLen := int(float64(n) * dst / src)
	if math.Abs(float64(len(y)-wantLen)) > 2 {
		t.Fatalf("resampled length %d, want ~%d", len(y), wantLen)
	}
	// Goertzel at 1 kHz on resampled signal should dominate 3 kHz.
	g1 := Goertzel(y, 1000, dst)
	g3 := Goertzel(y, 3000, dst)
	if g1 < 10*g3 {
		t.Errorf("tone not preserved: 1kHz=%g 3kHz=%g", g1, g3)
	}
}

func TestResampleDegenerate(t *testing.T) {
	if ResampleInto(nil, nil, 1, 1) != nil {
		t.Error("nil input should give nil")
	}
	if ResampleInto(nil, []float64{1}, 0, 1) != nil {
		t.Error("zero src rate should give nil")
	}
}

func TestGoertzelDetectsTone(t *testing.T) {
	const sr = 8000.0
	n := 800
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(2 * math.Pi * 440 * float64(i) / sr)
	}
	on := Goertzel(x, 440, sr)
	off := Goertzel(x, 880, sr)
	if on < 50*off {
		t.Errorf("Goertzel on=%g off=%g, want strong separation", on, off)
	}
	if Goertzel(nil, 440, sr) != 0 {
		t.Error("Goertzel(nil) should be 0")
	}
}

func TestRMSAndPeak(t *testing.T) {
	x := []float64{3, -4}
	if got := RMS(x); !almostEqual(got, math.Sqrt(12.5), 1e-12) {
		t.Errorf("RMS = %g", got)
	}
	if got := Peak(x); got != 4 {
		t.Errorf("Peak = %g", got)
	}
	if RMS(nil) != 0 || Peak(nil) != 0 {
		t.Error("empty RMS/Peak should be 0")
	}
}

func TestScaleNormalizeMix(t *testing.T) {
	x := []float64{0.5, -0.25}
	if y := Scale(x, 1/Peak(x)); &y[0] != &x[0] {
		t.Error("Scale did not work in place")
	}
	if !almostEqual(Peak(x), 1, 1e-12) || x[1] != -0.5 {
		t.Errorf("Scale to unit peak = %v", x)
	}
}

func TestDBConversions(t *testing.T) {
	if got := LinearToDB(10); !almostEqual(got, 20, 1e-12) {
		t.Errorf("LinearToDB(10) = %g", got)
	}
	if got := LinearToDB(0.1); !almostEqual(got, -20, 1e-12) {
		t.Errorf("LinearToDB(0.1) = %g", got)
	}
	if LinearToDB(0) != -300 {
		t.Error("LinearToDB(0) should clamp")
	}
}

// BenchmarkFFT1024 times one planned 1024-point transform per iteration
// (the modem's FFTSize) on a fresh copy of the same input: transforming
// one buffer in place again and again would grow its norm 32× per
// forward pass and time Inf/NaN arithmetic within a few hundred
// iterations.
func BenchmarkFFT1024(b *testing.B) {
	src := make([]complex128, 1024)
	rng := rand.New(rand.NewSource(1))
	for i := range src {
		src[i] = complex(rng.NormFloat64(), 0)
	}
	x := make([]complex128, len(src))
	p, err := PlanFFT(len(src))
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		fn   func([]complex128)
	}{{"Forward", p.Forward}, {"Inverse", p.Inverse}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				copy(x, src)
				bc.fn(x)
			}
		})
	}
}
