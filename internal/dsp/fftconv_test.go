package dsp

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// maxAbsDiff returns the largest per-sample difference between a and b.
func maxAbsDiff(t *testing.T, a, b []float64) float64 {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("length mismatch: %d vs %d", len(a), len(b))
	}
	var m float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

func TestFFTConvolverMatchesFIRFilter(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, taps := range [][]float64{
		LowpassFIR(15000, 192000, 127),
		BandpassFIR(54000, 60000, 192000, 255),
		LowpassFIR(16000, 48000, 63),
		{0.5},      // single tap
		{1, -1, 2}, // tiny
	} {
		conv := NewFFTConvolver(taps)
		if conv == nil {
			t.Fatal("nil convolver for non-empty taps")
		}
		// Lengths around the FFT block boundaries plus assorted odd sizes.
		valid := conv.n - len(taps) + 1
		for _, n := range []int{1, len(taps) - 1, len(taps), valid - 1, valid, valid + 1, 3*valid + 17, 10000} {
			if n < 1 {
				continue
			}
			x := make([]float64, n)
			for i := range x {
				x[i] = rng.NormFloat64()
			}
			want := NewFIRFilter(taps).ProcessBlock(x)
			got := conv.Apply(nil, x)
			if d := maxAbsDiff(t, got, want); d > 1e-9 {
				t.Errorf("taps=%d n=%d: max diff %g vs direct FIR", len(taps), n, d)
			}
		}
	}
}

func TestFFTConvolverInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	taps := LowpassFIR(15000, 192000, 127)
	conv := NewFFTConvolver(taps)
	x := make([]float64, 20000)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	want := conv.Apply(nil, x)
	got := conv.Apply(x, x) // in place
	if d := maxAbsDiff(t, got, want); d != 0 {
		t.Errorf("in-place result differs from out-of-place by %g", d)
	}
	if &got[0] != &x[0] {
		t.Error("in-place Apply reallocated")
	}
}

func TestFFTConvolverReusesDst(t *testing.T) {
	taps := LowpassFIR(15000, 192000, 127)
	conv := NewFFTConvolver(taps)
	x := make([]float64, 5000)
	for i := range x {
		x[i] = float64(i % 17)
	}
	dst := make([]float64, 8000)
	got := conv.Apply(dst, x)
	if &got[0] != &dst[0] {
		t.Error("Apply reallocated although dst capacity sufficed")
	}
	if len(got) != len(x) {
		t.Errorf("len = %d, want %d", len(got), len(x))
	}
}

func TestFFTConvolverEdgeCases(t *testing.T) {
	if NewFFTConvolver(nil) != nil {
		t.Error("empty taps should yield nil convolver")
	}
	conv := NewFFTConvolver([]float64{1, 2})
	if out := conv.Apply(nil, nil); len(out) != 0 {
		t.Errorf("empty input: len %d", len(out))
	}
}

func TestFFTConvolverConcurrent(t *testing.T) {
	taps := LowpassFIR(15000, 192000, 127)
	conv := NewFFTConvolver(taps)
	x := make([]float64, 30000)
	for i := range x {
		x[i] = math.Sin(float64(i) / 9)
	}
	want := conv.Apply(nil, x)
	var wg sync.WaitGroup
	errs := make(chan int, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := 0; it < 5; it++ {
				got := conv.Apply(nil, x)
				for i := range got {
					if got[i] != want[i] {
						errs <- i
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if i, bad := <-errs; bad {
		t.Fatalf("concurrent Apply diverged at sample %d", i)
	}
}

func TestResampleIntoMatchesResample(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := make([]float64, 4800)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	for _, rates := range [][2]float64{{48000, 192000}, {192000, 48000}, {48000, 48000}, {44100, 48000}} {
		want := Resample(x, rates[0], rates[1])
		if n := ResampleLen(len(x), rates[0], rates[1]); n != len(want) {
			t.Errorf("ResampleLen(%v) = %d, want %d", rates, n, len(want))
		}
		dst := make([]float64, 0, len(want))
		got := ResampleInto(dst, x, rates[0], rates[1])
		if d := maxAbsDiff(t, got, want); d != 0 {
			t.Errorf("rates %v: ResampleInto differs by %g", rates, d)
		}
	}
	if out := ResampleInto(nil, nil, 1, 1); out != nil {
		t.Error("empty input should return nil")
	}
}

func BenchmarkFFTConvolver127Taps192k(b *testing.B) {
	taps := LowpassFIR(15000, 192000, 127)
	conv := NewFFTConvolver(taps)
	x := make([]float64, 192000)
	for i := range x {
		x[i] = math.Sin(float64(i) / 7)
	}
	dst := make([]float64, len(x))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conv.Apply(dst, x)
	}
}

func BenchmarkFIRFilter127Taps192k(b *testing.B) {
	taps := LowpassFIR(15000, 192000, 127)
	x := make([]float64, 192000)
	for i := range x {
		x[i] = math.Sin(float64(i) / 7)
	}
	f := NewFIRFilter(taps)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Reset()
		f.ProcessBlock(x)
	}
}
