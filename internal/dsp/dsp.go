// Package dsp provides the digital-signal-processing primitives that the
// SONIC modem and FM substrates are built on: an in-place radix-2 FFT
// with cached plans, windowed-sinc low-pass FIR design applied by FFT
// convolution, window functions, FFT cross-correlation, a polyphase-free
// linear resampler, and level helpers.
//
// Everything operates on []float64 (real signals) or []complex128
// (baseband/frequency-domain signals). The package has no dependencies
// outside the standard library and allocates only where documented.
package dsp

import (
	"errors"
	"math"
)

// ErrNotPowerOfTwo is returned by FFT and PlanFFT when the length is not
// a power of two.
var ErrNotPowerOfTwo = errors.New("dsp: length is not a power of two")

// IsPowerOfTwo reports whether n is a positive power of two.
func IsPowerOfTwo(n int) bool {
	return n > 0 && n&(n-1) == 0
}

// FFT computes the in-place decimation-in-time radix-2 fast Fourier
// transform of x. len(x) must be a power of two. The transform is
// unnormalized; the plan's Inverse undoes it. Twiddle factors and the
// bit-reversal permutation come from a cached per-size FFTPlan, so
// repeated transforms of the same size (the modem's steady state) do no
// trig and no allocation; the output is bit-identical to the direct form.
func FFT(x []complex128) error {
	p, err := PlanFFT(len(x))
	if err != nil {
		return err
	}
	p.Forward(x)
	return nil
}

// NextPowerOfTwo returns the smallest power of two >= n (n must be > 0).
func NextPowerOfTwo(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// Hann returns an n-point Hann window.
func Hann(n int) []float64 { //sonic:ignore equivpin Spectrogram's window, a diagnostic; one implementation, nothing to pin against
	w := make([]float64, n)
	if n == 1 {
		w[0] = 1
		return w
	}
	for i := range w {
		w[i] = 0.5 * (1 - math.Cos(2*math.Pi*float64(i)/float64(n-1)))
	}
	return w
}

// Hamming returns an n-point Hamming window.
func Hamming(n int) []float64 {
	w := make([]float64, n)
	if n == 1 {
		w[0] = 1
		return w
	}
	for i := range w {
		w[i] = 0.54 - 0.46*math.Cos(2*math.Pi*float64(i)/float64(n-1))
	}
	return w
}

// Sinc computes the normalized sinc function sin(pi x)/(pi x).
func Sinc(x float64) float64 {
	if x == 0 {
		return 1
	}
	px := math.Pi * x
	return math.Sin(px) / px
}

// LowpassFIR designs a linear-phase low-pass FIR filter with the given
// cutoff frequency (Hz), sample rate (Hz) and number of taps (odd
// recommended), using the windowed-sinc method with a Hamming window.
// The taps are normalized to unity DC gain.
func LowpassFIR(cutoffHz, sampleRate float64, taps int) []float64 {
	if taps < 1 {
		taps = 1
	}
	h := make([]float64, taps)
	w := Hamming(taps)
	fc := cutoffHz / sampleRate // normalized cutoff (cycles/sample)
	mid := float64(taps-1) / 2
	var sum float64
	for i := range h {
		h[i] = 2 * fc * Sinc(2*fc*(float64(i)-mid)) * w[i]
		sum += h[i]
	}
	if sum != 0 {
		for i := range h {
			h[i] /= sum
		}
	}
	return h
}

// ResampleLen returns the output length ResampleInto produces for an
// input of n samples, or 0 for invalid arguments.
func ResampleLen(n int, srcRate, dstRate float64) int {
	if n == 0 || srcRate <= 0 || dstRate <= 0 {
		return 0
	}
	if srcRate == dstRate {
		return n
	}
	out := int(float64(n) / (srcRate / dstRate))
	if out < 1 {
		out = 1
	}
	return out
}

// ResampleInto converts x from srcRate to dstRate using linear
// interpolation, writing into dst (reallocated when its capacity is too
// small); the possibly reallocated slice is returned. dst must not alias
// x. It is adequate for the band-limited audio signals SONIC moves
// between the 48 kHz modem rate and FM composite rates.
func ResampleInto(dst, x []float64, srcRate, dstRate float64) []float64 {
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

// RMS returns the root-mean-square amplitude of x.
func RMS(x []float64) float64 { //sonic:ignore equivpin level helper the modem reads once per modulator to set its preamble's level; one implementation
	if len(x) == 0 {
		return 0
	}
	var acc float64
	for _, v := range x {
		acc += v * v
	}
	return math.Sqrt(acc / float64(len(x)))
}

// Peak returns the maximum absolute sample value of x.
func Peak(x []float64) float64 { //sonic:ignore equivpin level helper the modem reads on each burst for its preamble's peak; one implementation
	var p float64
	for _, v := range x {
		if a := math.Abs(v); a > p {
			p = a
		}
	}
	return p
}

// Scale multiplies every sample of x in place by g and returns x.
func Scale(x []float64, g float64) []float64 { //sonic:ignore equivpin gain the modem applies once per modulator to its preamble; one implementation
	for i := range x {
		x[i] *= g
	}
	return x
}

// LinearToDB converts a linear amplitude ratio to decibels. Zero or
// negative input maps to -inf dB represented as -300.
func LinearToDB(a float64) float64 { //sonic:ignore equivpin SpectrogramASCII's dB shading, a diagnostic; one implementation
	if a <= 0 {
		return -300
	}
	return 20 * math.Log10(a)
}
