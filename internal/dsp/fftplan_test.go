package dsp

import (
	"encoding/binary"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// The plan-based FFT must be BIT-identical to the direct transform — the
// modem's equalization, channel estimates, and therefore every decoded
// payload byte depend on it. Identical here means the same float64 bits,
// not within epsilon: +0 and −0 differ.

// fftInputShapes returns the inputs the bit-identity test feeds a size-n
// transform: a random complex vector; a real-only one, as a lone OFDM
// symbol reaches the forward transform with its imaginary half zero; a
// band-limited Hermitian pair spectrum with exact zeros outside (at
// most) 104 occupied bins, loaded the way the modem's synthesizePair
// loads two symbols A + iB before the inverse transform; and zeros of
// random sign, whose outputs are zeros whose signs depend on the
// butterflies' exact operations (skipping stage 1's multiply by w = 1
// shows here).
func fftInputShapes(rng *rand.Rand, n int) []fftShape {
	random := make([]complex128, n)
	realOnly := make([]complex128, n)
	zeros := make([]complex128, n)
	signedZero := func() float64 { return math.Copysign(0, rng.NormFloat64()) }
	for i := range random {
		random[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		realOnly[i] = complex(rng.NormFloat64(), 0)
		zeros[i] = complex(signedZero(), signedZero())
	}
	band := make([]complex128, n)
	occupied := min(104, n/2-1) // bins 1 … n/2−1 have distinct mirrors
	first := max(1, n/4-occupied/2)
	for bin := first; bin < first+occupied; bin++ {
		ar, ai := rng.NormFloat64(), rng.NormFloat64()
		br, bi := rng.NormFloat64(), rng.NormFloat64()
		band[bin] = complex(ar-bi, ai+br)
		band[n-bin] = complex(ar+bi, br-ai)
	}
	return []fftShape{{"random", random}, {"real", realOnly}, {"band", band}, {"zeros", zeros}}
}

// fftDirect is the plan-free transform, the reference FFTPlan is pinned
// against bit for bit.
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

type fftShape struct {
	name string
	x    []complex128
}

func bitsEqual(a, b complex128) bool {
	return math.Float64bits(real(a)) == math.Float64bits(real(b)) &&
		math.Float64bits(imag(a)) == math.Float64bits(imag(b))
}

// TestFFTPlanBitIdenticalToDirect runs every power of two from 1 to
// 16 384: the plan has separate code for stages 1+2 (n ≥ 4), for the
// radix-2² passes (n ≥ 16) and for the lone last stage (odd log2 n,
// n = 2 included).
func TestFFTPlanBitIdenticalToDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for n := 1; n <= 1<<14; n <<= 1 {
		p, err := PlanFFT(n)
		if err != nil {
			t.Fatal(err)
		}
		for _, sh := range fftInputShapes(rng, n) {
			x := sh.x
			for _, inverse := range []bool{false, true} {
				want := append([]complex128(nil), x...)
				if err := fftDirect(want, inverse); err != nil {
					t.Fatal(err)
				}
				got := append([]complex128(nil), x...)
				if inverse {
					p.transform(got, p.inv) // unnormalized, like fftDirect
				} else {
					p.Forward(got)
				}
				for i := range got {
					if !bitsEqual(got[i], want[i]) {
						t.Fatalf("n=%d %s inverse=%v: planned transform diverges from direct at bin %d: %v != %v",
							n, sh.name, inverse, i, got[i], want[i])
					}
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
			p.Inverse(gotInv)
			for i := range gotInv {
				if gotInv[i] != wantInv[i] {
					t.Fatalf("n=%d %s: planned Inverse diverges from direct at bin %d", n, sh.name, i)
				}
			}
		}
	}
}

// FuzzFFTPlanMatchesDirect decodes the fuzz bytes into a complex input
// and requires the planned transform to reproduce fftDirect bit for bit,
// both directions unnormalized. The first byte picks the size, 2^(b mod
// 13) from 1 to 4096; the rest is read as little-endian float64 real and
// imaginary parts, zero where the bytes run out. Inputs holding a NaN, an
// Inf or a value large enough for the transform to overflow to one are
// skipped: the compiler may swap the operands of a commutative add,
// which can change a NaN's payload bits without changing the arithmetic.
func FuzzFFTPlanMatchesDirect(f *testing.F) {
	seed := func(logN byte, vals ...float64) []byte {
		b := []byte{logN}
		for _, v := range vals {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add(seed(0, -1.5, 0))
	f.Add(seed(1, 1, math.Copysign(0, -1), -2, 0.25))
	f.Add(seed(2, 1, 0, 0, 0, math.Copysign(0, -1), 0, 0, 3))
	f.Add(seed(3, 0.5, -0.5, 1e-300, 2, 7, math.Copysign(0, -1), -3, 1))
	negZeros := make([]float64, 32)
	for i := range negZeros {
		negZeros[i] = math.Copysign(0, -1)
	}
	f.Add(seed(4, negZeros...))
	f.Add(seed(10, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12))
	f.Add(seed(12, 1e200, -1e-200, 4, 4))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 1 << (data[0] % 13)
		vals := data[1:]
		part := func(k int) float64 {
			if 8*k+8 > len(vals) {
				return 0
			}
			return math.Float64frombits(binary.LittleEndian.Uint64(vals[8*k:]))
		}
		x := make([]complex128, n)
		for i := range x {
			re, im := part(2*i), part(2*i+1)
			// |X[k]| ≤ Σ|x[i]|·√2 < 4096·√2·2^1000, far below MaxFloat64.
			if !(math.Abs(re) <= 0x1p1000 && math.Abs(im) <= 0x1p1000) {
				return
			}
			x[i] = complex(re, im)
		}
		p, err := PlanFFT(n)
		if err != nil {
			t.Fatal(err)
		}
		for _, inverse := range []bool{false, true} {
			want := append([]complex128(nil), x...)
			if err := fftDirect(want, inverse); err != nil {
				t.Fatal(err)
			}
			got := append([]complex128(nil), x...)
			tw := p.fwd
			if inverse {
				tw = p.inv
			}
			p.transform(got, tw)
			for i := range got {
				if !bitsEqual(got[i], want[i]) {
					t.Fatalf("n=%d inverse=%v: bin %d: plan %v, direct %v", n, inverse, i, got[i], want[i])
				}
			}
		}
	})
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

// CrossCorrelate is the direct O(N·len(needle)) reference for
// FFTCorrelator: the sliding dot product of needle against
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
