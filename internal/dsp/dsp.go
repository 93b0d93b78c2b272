// Package dsp provides the digital-signal-processing primitives that the
// SONIC modem and FM substrates are built on: an in-place radix-2 FFT,
// windowed-sinc FIR filter design and application, window functions,
// cross-correlation, a polyphase-free linear resampler, and the Goertzel
// single-bin DFT used by the FSK demodulator.
//
// Everything operates on []float64 (real signals) or []complex128
// (baseband/frequency-domain signals). The package has no dependencies
// outside the standard library and allocates only where documented.
package dsp

import (
	"errors"
	"math"
	"math/cmplx"
)

// ErrNotPowerOfTwo is returned by FFT/IFFT when the input length is not a
// power of two.
var ErrNotPowerOfTwo = errors.New("dsp: length is not a power of two")

// IsPowerOfTwo reports whether n is a positive power of two.
func IsPowerOfTwo(n int) bool {
	return n > 0 && n&(n-1) == 0
}

// FFT computes the in-place decimation-in-time radix-2 fast Fourier
// transform of x. len(x) must be a power of two. The transform is
// unnormalized: IFFT(FFT(x)) == x. Twiddle factors and the bit-reversal
// permutation come from a cached per-size FFTPlan, so repeated
// transforms of the same size (the modem's steady state) do no trig and
// no allocation; the output is bit-identical to the direct form.
func FFT(x []complex128) error {
	p, err := PlanFFT(len(x))
	if err != nil {
		return err
	}
	p.Forward(x)
	return nil
}

// IFFT computes the in-place inverse FFT of x, including the 1/N
// normalization. len(x) must be a power of two.
func IFFT(x []complex128) error {
	p, err := PlanFFT(len(x))
	if err != nil {
		return err
	}
	p.Inverse(x)
	return nil
}

// fftDirect is the plan-free transform. It is retained as the reference
// implementation that FFTPlan is pinned against in tests.
func fftDirect(x []complex128, inverse bool) error {
	n := len(x)
	if !IsPowerOfTwo(n) {
		return ErrNotPowerOfTwo
	}
	// Bit-reversal permutation.
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		if i < j {
			x[i], x[j] = x[j], x[i]
		}
	}
	// Danielson-Lanczos butterflies.
	for length := 2; length <= n; length <<= 1 {
		ang := 2 * math.Pi / float64(length)
		if !inverse {
			ang = -ang
		}
		wl := cmplx.Rect(1, ang)
		for i := 0; i < n; i += length {
			w := complex(1, 0)
			half := length / 2
			for j := 0; j < half; j++ {
				u := x[i+j]
				v := x[i+j+half] * w
				x[i+j] = u + v
				x[i+j+half] = u - v
				w *= wl
			}
		}
	}
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
func Hann(n int) []float64 { //sonic:ignore equivpin scalar reference; no optimized variant to pin
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

// BandpassFIR designs a band-pass FIR filter passing [lowHz, highHz].
func BandpassFIR(lowHz, highHz, sampleRate float64, taps int) []float64 {
	if taps%2 == 0 {
		taps++
	}
	lp := LowpassFIR(highHz, sampleRate, taps)
	lpLow := LowpassFIR(lowHz, sampleRate, taps)
	h := make([]float64, taps)
	for i := range h {
		h[i] = lp[i] - lpLow[i]
	}
	return h
}

// FIRFilter is a streaming finite-impulse-response filter. The zero value
// is not usable; construct with NewFIRFilter.
type FIRFilter struct {
	taps  []float64
	delay []float64
	pos   int
}

// NewFIRFilter returns a streaming FIR filter with the given taps.
func NewFIRFilter(taps []float64) *FIRFilter {
	t := make([]float64, len(taps))
	copy(t, taps)
	return &FIRFilter{taps: t, delay: make([]float64, len(taps))}
}

// Process filters one sample and returns the filtered output.
func (f *FIRFilter) Process(x float64) float64 {
	f.delay[f.pos] = x
	var acc float64
	idx := f.pos
	for _, t := range f.taps {
		acc += t * f.delay[idx]
		idx--
		if idx < 0 {
			idx = len(f.delay) - 1
		}
	}
	f.pos++
	if f.pos == len(f.delay) {
		f.pos = 0
	}
	return acc
}

// ProcessBlock filters a block of samples, returning a new slice.
func (f *FIRFilter) ProcessBlock(x []float64) []float64 {
	out := make([]float64, len(x))
	for i, v := range x {
		out[i] = f.Process(v)
	}
	return out
}

// Reset clears the filter's delay line.
func (f *FIRFilter) Reset() {
	for i := range f.delay {
		f.delay[i] = 0
	}
	f.pos = 0
}

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

// CrossCorrelate computes the sliding dot product of needle against
// haystack. Index i of the result is the correlation of needle with
// haystack[i : i+len(needle)]. Result length is
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

// NormalizedCrossCorrelate is CrossCorrelate divided by the product of the
// window and needle energies, yielding values in [-1, 1]. Windows with
// near-zero energy produce 0.
func NormalizedCrossCorrelate(haystack, needle []float64) []float64 { //sonic:ignore equivpin scalar reference; no optimized variant to pin
	n := len(haystack) - len(needle) + 1
	if n <= 0 || len(needle) == 0 {
		return nil
	}
	var ne float64
	for _, v := range needle {
		ne += v * v
	}
	ne = math.Sqrt(ne)
	out := make([]float64, n)
	// Running window energy.
	var we float64
	for j := 0; j < len(needle); j++ {
		we += haystack[j] * haystack[j]
	}
	for i := 0; i < n; i++ {
		var acc float64
		for j, nv := range needle {
			acc += nv * haystack[i+j]
		}
		denom := ne * math.Sqrt(we)
		if denom > 1e-12 {
			out[i] = acc / denom
		}
		if i+1 < n {
			old := haystack[i]
			next := haystack[i+len(needle)]
			we += next*next - old*old
			if we < 0 {
				we = 0
			}
		}
	}
	return out
}

// ArgMax returns the index of the maximum value of x, or -1 for empty x.
func ArgMax(x []float64) int { //sonic:ignore equivpin scalar reference; no optimized variant to pin
	if len(x) == 0 {
		return -1
	}
	best, idx := x[0], 0
	for i, v := range x[1:] {
		if v > best {
			best, idx = v, i+1
		}
	}
	return idx
}

// Resample converts x from srcRate to dstRate using linear interpolation.
// It is adequate for the band-limited audio signals SONIC moves between
// the 48 kHz modem rate and FM composite rates.
func Resample(x []float64, srcRate, dstRate float64) []float64 {
	return ResampleInto(nil, x, srcRate, dstRate)
}

// ResampleLen returns the output length Resample produces for an input
// of n samples, or 0 for invalid arguments.
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

// ResampleInto is Resample writing into dst (reallocated when its
// capacity is too small); the possibly reallocated slice is returned.
// dst must not alias x.
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

// Goertzel computes the magnitude of the DFT bin closest to targetHz for
// the block x sampled at sampleRate. It is the standard single-bin
// detector used by the FSK demodulator.
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

// RMS returns the root-mean-square amplitude of x.
func RMS(x []float64) float64 { //sonic:ignore equivpin scalar reference; no optimized variant to pin
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
func Peak(x []float64) float64 { //sonic:ignore equivpin scalar reference; no optimized variant to pin
	var p float64
	for _, v := range x {
		if a := math.Abs(v); a > p {
			p = a
		}
	}
	return p
}

// Scale multiplies every sample of x in place by g and returns x.
func Scale(x []float64, g float64) []float64 { //sonic:ignore equivpin scalar reference; no optimized variant to pin
	for i := range x {
		x[i] *= g
	}
	return x
}

// Normalize scales x in place so its peak magnitude equals target
// (commonly 1.0 or a headroom value like 0.8). Silent input is returned
// unchanged.
func Normalize(x []float64, target float64) []float64 { //sonic:ignore equivpin scalar reference; no optimized variant to pin
	p := Peak(x)
	if p <= 0 {
		return x
	}
	return Scale(x, target/p)
}

// LinearToDB converts a linear amplitude ratio to decibels. Zero or
// negative input maps to -inf dB represented as -300.
func LinearToDB(a float64) float64 { //sonic:ignore equivpin scalar reference; no optimized variant to pin
	if a <= 0 {
		return -300
	}
	return 20 * math.Log10(a)
}
