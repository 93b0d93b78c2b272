package dsp

import (
	"math"
	"math/rand"
	"testing"
)

// The plan-based FFT must be BIT-identical to the direct transform — the
// modem's equalization, channel estimates, and therefore every decoded
// payload byte depend on it. Identical here means ==, not within
// epsilon.

func TestFFTPlanBitIdenticalToDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 2, 4, 8, 64, 1024, 8192} {
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		want := append([]complex128(nil), x...)
		if err := fftDirect(want, false); err != nil {
			t.Fatal(err)
		}
		got := append([]complex128(nil), x...)
		if err := FFT(got); err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("n=%d: planned FFT diverges from direct at bin %d: %v != %v", n, i, got[i], want[i])
			}
		}

		// Inverse direction, including normalization: the plan scales by
		// the reciprocal, the reference side keeps the complex division.
		// N is a power of two, so the two are == component for component
		// (only the sign of a zero can differ).
		wantInv := append([]complex128(nil), x...)
		if err := fftDirect(wantInv, true); err != nil {
			t.Fatal(err)
		}
		for i := range wantInv {
			wantInv[i] /= complex(float64(n), 0)
		}
		gotInv := append([]complex128(nil), x...)
		if err := IFFT(gotInv); err != nil {
			t.Fatal(err)
		}
		for i := range gotInv {
			if gotInv[i] != wantInv[i] {
				t.Fatalf("n=%d: planned IFFT diverges from direct at bin %d", n, i)
			}
		}
	}
}

func TestFFTPlanRejectsBadSize(t *testing.T) {
	if _, err := PlanFFT(12); err == nil {
		t.Fatal("PlanFFT(12) succeeded, want error")
	}
	if err := FFT(make([]complex128, 3)); err == nil {
		t.Fatal("FFT of length 3 succeeded, want error")
	}
}

func TestFFTPlanZeroAlloc(t *testing.T) {
	p, err := PlanFFT(1024)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]complex128, 1024)
	for i := range x {
		x[i] = complex(float64(i%7), 0)
	}
	if n := testing.AllocsPerRun(10, func() {
		p.Forward(x)
		p.Inverse(x)
	}); n != 0 {
		t.Errorf("planned FFT round trip: %v allocs/run, want 0", n)
	}
}

func TestFFTCorrelatorMatchesCrossCorrelate(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	needle := make([]float64, 337) // non-power-of-two needle
	for i := range needle {
		needle[i] = rng.NormFloat64()
	}
	c := NewFFTCorrelator(needle)
	for _, hayLen := range []int{337, 500, 4096, 10000} {
		hay := make([]float64, hayLen)
		for i := range hay {
			hay[i] = rng.NormFloat64()
		}
		want := CrossCorrelate(hay, needle)
		got := c.Correlate(nil, hay)
		if len(got) != len(want) {
			t.Fatalf("hayLen=%d: %d outputs, want %d", hayLen, len(got), len(want))
		}
		for i := range got {
			if d := math.Abs(got[i] - want[i]); d > 1e-9 {
				t.Fatalf("hayLen=%d: output %d differs by %g", hayLen, i, d)
			}
		}
	}
	if c.Correlate(nil, make([]float64, 100)) != nil {
		t.Fatal("Correlate with short haystack should return nil")
	}
	if NewFFTCorrelator(nil) != nil {
		t.Fatal("NewFFTCorrelator(nil) should return nil")
	}
}

func TestFFTCorrelatorReusesDst(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are nondeterministic under the race detector (pool Puts randomly dropped)")
	}
	needle := []float64{1, 2, 3}
	c := NewFFTCorrelator(needle)
	hay := make([]float64, 4096)
	for i := range hay {
		hay[i] = float64(i % 13)
	}
	dst := c.Correlate(nil, hay)
	// Warmed up: same-capacity reuse must not allocate.
	if n := testing.AllocsPerRun(10, func() {
		dst = c.Correlate(dst[:0], hay)
	}); n != 0 {
		t.Errorf("warmed Correlate: %v allocs/run, want 0", n)
	}
}
