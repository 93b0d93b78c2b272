package dsp

import (
	"math/cmplx"
	"sync"
)

// FFTCorrelator computes sliding dot products of a fixed needle against
// arbitrary haystacks by overlap-save FFT convolution: the needle's
// conjugated spectrum is precomputed once, and each Correlate call runs
// O(N log N) instead of the direct sum's O(N * len(needle)). For the
// modem's 2048-sample preamble that is roughly a 10x reduction in work
// on every sync search.
//
// The numeric results differ from the direct sum only by floating-point
// rounding (an FFT sums in a different order); callers that threshold or
// argmax well-separated peaks — preamble sync — see identical decisions.
//
// An FFTCorrelator is safe for concurrent use: the precomputed spectrum
// is immutable and per-call block buffers come from an internal pool.
type FFTCorrelator struct {
	lp   int // needle length
	n    int // FFT block size
	plan *FFTPlan
	spec []complex128 // conj(FFT(zero-padded needle))
	pool sync.Pool    // *[]complex128, length n
}

// NewFFTCorrelator builds a correlator for the given needle. Returns nil
// for an empty needle. The block size is the smallest power of two at
// least 4x the needle, trading a little memory for fewer, better
// amortized blocks.
func NewFFTCorrelator(needle []float64) *FFTCorrelator {
	lp := len(needle)
	if lp == 0 {
		return nil
	}
	n := NextPowerOfTwo(4 * lp)
	plan, err := PlanFFT(n)
	if err != nil {
		return nil // unreachable: NextPowerOfTwo yields a power of two
	}
	spec := make([]complex128, n)
	for i, v := range needle {
		spec[i] = complex(v, 0)
	}
	plan.Forward(spec)
	for i := range spec {
		spec[i] = cmplx.Conj(spec[i])
	}
	return &FFTCorrelator{lp: lp, n: n, plan: plan, spec: spec}
}

// Correlate computes dst[i] = dot(needle, hay[i:i+len(needle)]) for
// every valid window position — the direct sum's values, up to
// rounding. dst is reused if its capacity suffices; the possibly
// reallocated slice is returned. Returns nil if hay is shorter than the
// needle.
func (c *FFTCorrelator) Correlate(dst, hay []float64) []float64 {
	nOut := len(hay) - c.lp + 1
	if nOut <= 0 {
		return nil
	}
	if cap(dst) < nOut {
		dst = make([]float64, nOut)
	}
	dst = dst[:nOut]

	bufp, ok := c.pool.Get().(*[]complex128)
	if !ok {
		b := make([]complex128, c.n)
		bufp = &b
	}
	buf := *bufp
	// Each block of n samples yields n-lp+1 valid correlation outputs
	// (lags where the circular correlation does not wrap).
	valid := c.n - c.lp + 1
	for s := 0; s < nOut; s += valid {
		m := len(hay) - s
		if m > c.n {
			m = c.n
		}
		for i := 0; i < m; i++ {
			buf[i] = complex(hay[s+i], 0)
		}
		for i := m; i < c.n; i++ {
			buf[i] = 0
		}
		c.plan.Forward(buf)
		for i := range buf {
			buf[i] *= c.spec[i]
		}
		c.plan.Inverse(buf)
		e := valid
		if s+e > nOut {
			e = nOut - s
		}
		for j := 0; j < e; j++ {
			dst[s+j] = real(buf[j])
		}
	}
	c.pool.Put(bufp)
	return dst
}
