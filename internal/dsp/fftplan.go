package dsp

import (
	"math"
	"math/cmplx"
	"sync"
)

// FFTPlan caches everything about a fixed-size radix-2 transform that
// does not depend on the input: the bit-reversal permutation and the
// per-stage twiddle factors for both directions. Planned transforms are
// bit-identical to the direct implementation (the twiddles are generated
// with the same iterative recurrence the direct butterflies use) but do
// no trig and no allocation per call. A plan is immutable after
// construction and safe for concurrent use.
type FFTPlan struct {
	n   int
	rev []int32      // bit-reversal permutation
	fwd []complex128 // forward twiddles, stages concatenated (n-1 total)
	inv []complex128 // inverse twiddles
}

// planCache maps transform size to its shared plan. The modem touches a
// handful of sizes (FFTSize, the preamble correlator block), so the
// cache stays tiny.
var planCache sync.Map // int -> *FFTPlan

// PlanFFT returns the shared plan for a power-of-two transform size,
// building it on first use.
func PlanFFT(n int) (*FFTPlan, error) {
	if !IsPowerOfTwo(n) {
		return nil, ErrNotPowerOfTwo
	}
	if p, ok := planCache.Load(n); ok {
		return p.(*FFTPlan), nil
	}
	p, _ := planCache.LoadOrStore(n, newFFTPlan(n))
	return p.(*FFTPlan), nil
}

func newFFTPlan(n int) *FFTPlan {
	p := &FFTPlan{n: n, rev: make([]int32, n)}
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		p.rev[i] = int32(j)
	}
	p.fwd = planTwiddles(n, false)
	p.inv = planTwiddles(n, true)
	return p
}

// planTwiddles generates the per-stage twiddle sequences with exactly
// the recurrence the direct transform uses (w starts at 1 and is
// repeatedly multiplied by the stage root), so planned and direct
// transforms produce bit-identical output.
func planTwiddles(n int, inverse bool) []complex128 {
	tw := make([]complex128, 0, n-1)
	for length := 2; length <= n; length <<= 1 {
		ang := 2 * math.Pi / float64(length)
		if !inverse {
			ang = -ang
		}
		wl := cmplx.Rect(1, ang)
		w := complex(1, 0)
		for j := 0; j < length/2; j++ {
			tw = append(tw, w)
			w *= wl
		}
	}
	return tw
}

// Forward computes the in-place unnormalized FFT of x. len(x) must equal
// the plan's size.
func (p *FFTPlan) Forward(x []complex128) { p.transform(x, p.fwd) }

// Inverse computes the in-place inverse FFT of x including the 1/N
// normalization. len(x) must equal the plan's size. N is a power of two,
// so scaling each component by the exact reciprocal rounds like the
// complex division it stands in for (a runtime call per bin).
func (p *FFTPlan) Inverse(x []complex128) {
	p.transform(x, p.inv)
	s := 1 / float64(p.n)
	for i, v := range x {
		x[i] = complex(real(v)*s, imag(v)*s)
	}
}

func (p *FFTPlan) transform(x []complex128, tw []complex128) {
	n := p.n
	x = x[:n:n]
	for i, ji := range p.rev {
		if j := int(ji); i < j {
			x[i], x[j] = x[j], x[i]
		}
	}
	off := 0
	for length := 2; length <= n; length <<= 1 {
		half := length >> 1
		w := tw[off : off+half : off+half]
		for i := 0; i < n; i += length {
			a := x[i : i+half : i+half]
			b := x[i+half : i+length : i+length]
			for j := range a {
				u := a[j]
				v := b[j] * w[j]
				a[j] = u + v
				b[j] = u - v
			}
		}
		off += half
	}
}
