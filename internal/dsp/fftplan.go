package dsp

import (
	"math"
	"math/cmplx"
	"sync"
)

// FFTPlan caches everything about a fixed-size radix-2 transform that
// does not depend on the input: the bit-reversal permutation and the
// per-stage twiddle factors for both directions. Planned transforms are
// bit-identical to the direct implementation but do no trig and no
// allocation per call. The twiddles are generated with the same
// iterative recurrence the direct butterflies use, and every butterfly
// keeps its operands, its twiddle and its operations (u + b·w, u − b·w);
// only the loop order differs, because each pass over the array runs
// two radix-2 stages (see transform). A plan is immutable after
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

// transform runs the bit-reversal permutation and then the log2 n
// radix-2 stages of the direct transform, two stages per pass over x:
// stages 1 and 2 on each group of four elements, then stages (s, s+1)
// as radix-2² groups of 4h elements, h being stage s's half-length. A
// group loads its four quarters once, runs stage s's two butterflies
// and stage s+1's two, and stores once. When log2 n is odd (n = 2
// included) a lone radix-2 stage finishes. Stage s+1's butterfly on
// (j, j+2h) reads only stage s's outputs at j and j+2h, which the same
// iteration produced, so the result is the direct transform's, bit for
// bit.
func (p *FFTPlan) transform(x []complex128, tw []complex128) {
	n := p.n
	x = x[:n:n]
	for i, ji := range p.rev {
		if j := int(ji); i < j {
			x[i], x[j] = x[j], x[i]
		}
	}
	// h is the half-length of the next stage to run; that stage reads
	// tw[h-1 : 2h-1].
	h := 1
	if n >= 4 {
		w1, w2a, w2b := tw[0], tw[1], tw[2]
		for g := 0; g < n; g += 4 {
			q := x[g : g+4 : g+4]
			v := q[1] * w1
			a0, a1 := q[0]+v, q[0]-v
			v = q[3] * w1
			a2, a3 := q[2]+v, q[2]-v
			v = a2 * w2a
			q[0], q[2] = a0+v, a0-v
			v = a3 * w2b
			q[1], q[3] = a1+v, a1-v
		}
		h = 4
	}
	for ; 4*h <= n; h <<= 2 {
		w := tw[h-1 : 2*h-1 : 2*h-1]
		wlo := tw[2*h-1 : 3*h-1 : 3*h-1]
		whi := tw[3*h-1 : 4*h-1 : 4*h-1]
		for g := 0; g < n; g += 4 * h {
			// Equal lengths, stated so the loop runs without bounds checks.
			q0 := x[g : g+h : g+h]
			q1, q2, q3 := x[g+h:][:len(q0)], x[g+2*h:][:len(q0)], x[g+3*h:][:len(q0)]
			w, wlo, whi := w[:len(q0)], wlo[:len(q0)], whi[:len(q0)]
			for j := range q0 {
				wj := w[j]
				v := q1[j] * wj
				a0, a1 := q0[j]+v, q0[j]-v
				v = q3[j] * wj
				a2, a3 := q2[j]+v, q2[j]-v
				v = a2 * wlo[j]
				q0[j], q2[j] = a0+v, a0-v
				v = a3 * whi[j]
				q1[j], q3[j] = a1+v, a1-v
			}
		}
	}
	if h < n {
		a := x[:h:h]
		b, w := x[h:][:len(a)], tw[h-1:][:len(a)]
		for j := range a {
			u := a[j]
			v := b[j] * w[j]
			a[j] = u + v
			b[j] = u - v
		}
	}
}
