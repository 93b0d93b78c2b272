package dsp

import "sync"

// FFTConvolver applies a fixed FIR filter to arbitrary-length real
// signals by overlap-save FFT convolution. It computes exactly the same
// causal, zero-initial-state convolution as
// NewFIRFilter(taps).ProcessBlock(x) — y[i] = Σ_j taps[j]·x[i-j] with
// x[<0] = 0 — but in O(N log N) instead of O(N·taps): at the FM
// composite chain's 127- and 255-tap filters that is roughly a 5-10x
// reduction in work per sample. The outputs differ from the direct form
// only by floating-point rounding (an FFT sums in a different order).
//
// A convolver is safe for concurrent use: the precomputed tap spectrum
// is immutable and per-call workspaces come from an internal pool.
type FFTConvolver struct {
	nt   int // number of taps
	n    int // FFT block size
	plan *FFTPlan
	spec []complex128 // FFT of zero-padded taps
	pool sync.Pool    // *convWorkspace
}

// convWorkspace is the per-call scratch: the FFT block plus the nt-1
// input samples that overlap into the next block (kept separately so
// in-place filtering never reads samples dst already overwrote).
type convWorkspace struct {
	buf  []complex128
	hist []float64
}

// NewFFTConvolver builds a convolver for the given taps. Returns nil for
// an empty tap set. The block size is the smallest power of two at least
// 4x the tap count (minimum 256), trading a little memory for fewer,
// better amortized blocks.
func NewFFTConvolver(taps []float64) *FFTConvolver {
	nt := len(taps)
	if nt == 0 {
		return nil
	}
	n := NextPowerOfTwo(4 * nt)
	if n < 256 {
		n = 256
	}
	plan, err := PlanFFT(n)
	if err != nil {
		return nil // unreachable: NextPowerOfTwo yields a power of two
	}
	spec := make([]complex128, n)
	for i, v := range taps {
		spec[i] = complex(v, 0)
	}
	plan.Forward(spec)
	return &FFTConvolver{nt: nt, n: n, plan: plan, spec: spec}
}

// Apply filters x into dst and returns dst (reallocated when its
// capacity is too small). dst may alias x exactly (dst == x filters in
// place); partial overlaps are not supported. len(result) == len(x).
//
// Convolution is linear, so two consecutive real blocks ride through one
// complex transform (block A in the real parts, block B in the imaginary
// parts): FFT, multiply by the tap spectrum, IFFT, and the real/imag
// parts of the result are the two blocks' filtered outputs. This halves
// the number of transforms per sample versus one-block-per-FFT.
func (c *FFTConvolver) Apply(dst, x []float64) []float64 {
	nx := len(x)
	if nx == 0 {
		return dst[:0]
	}
	if cap(dst) < nx {
		dst = make([]float64, nx)
	}
	dst = dst[:nx]

	ws, ok := c.pool.Get().(*convWorkspace)
	if !ok {
		ws = &convWorkspace{
			buf:  make([]complex128, c.n),
			hist: make([]float64, 2*(c.nt-1)),
		}
	}
	buf := ws.buf
	histLen := c.nt - 1
	histA := ws.hist[:histLen] // input tail preceding block A
	histB := ws.hist[histLen:] // input tail preceding block B
	nhA := 0                   // valid history (zero-state initially)

	// Each FFT block yields n-nt+1 valid (non-wrapped) outputs, and each
	// transform carries two such blocks. The pair for output ranges
	// [sA, sA+mA) and [sB, sB+mB) (sB = sA+valid) loads each block's
	// nt-1 history samples followed by its fresh input, zero-padded.
	valid := c.n - histLen
	for s := 0; s < nx; s += 2 * valid {
		mA := nx - s
		if mA > valid {
			mA = valid
		}
		sB := s + valid
		mB := nx - sB
		if mB > valid {
			mB = valid
		}
		if mB < 0 {
			mB = 0
		}
		// Block B's history is the tail of block A's fresh input; capture
		// both histories before any output lands (x may alias dst).
		nhB := 0
		if mB > 0 {
			nhB = histLen
			copy(histB, x[sB-histLen:sB])
		}
		for i := 0; i < histLen-nhA; i++ {
			buf[i] = complex(0, imagAt(histB, histLen-nhB, i))
		}
		for i := 0; i < nhA; i++ {
			buf[histLen-nhA+i] = complex(histA[i], imagAt(histB, histLen-nhB, histLen-nhA+i))
		}
		for i := 0; i < mA; i++ {
			var im float64
			if i < mB {
				im = x[sB+i]
			}
			buf[histLen+i] = complex(x[s+i], im)
		}
		for i := histLen + mA; i < c.n; i++ {
			buf[i] = 0
		}
		// Save the history for the next pair's block A.
		if sB+mB < nx {
			nhA = histLen
			copy(histA, x[sB+mB-histLen:sB+mB])
		}

		c.plan.Forward(buf)
		for i := range buf {
			buf[i] *= c.spec[i]
		}
		c.plan.Inverse(buf)
		for i := 0; i < mA; i++ {
			dst[s+i] = real(buf[histLen+i])
		}
		for i := 0; i < mB; i++ {
			dst[sB+i] = imag(buf[histLen+i])
		}
	}
	c.pool.Put(ws)
	return dst
}

// imagAt returns hist[i] treating indexes below start as zero — block
// B's history window when block B is absent or at the zero-state edge.
func imagAt(hist []float64, start, i int) float64 {
	if i < start || i >= len(hist) {
		return 0
	}
	return hist[i]
}
