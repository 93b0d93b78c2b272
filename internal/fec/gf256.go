// Package fec implements the forward-error-correction stack SONIC layers
// under its modem, matching the schemes named in the paper (§3.3): a CRC32
// frame checksum, an inner convolutional code ("v29": rate 1/2, constraint
// length 9, with "v27" also provided for ablation), and an outer
// Reed-Solomon code over GF(2^8) ("rs8": RS(255,223), shortened codes
// supported). A byte block interleaver is included to spread burst errors
// across RS codewords.
package fec

// GF(2^8) arithmetic with the primitive polynomial x^8+x^4+x^3+x^2+1
// (0x11d), the field used by the rs8 family of codecs.

const gfPoly = 0x11d

var (
	gfExp [512]byte // alpha^i, doubled to avoid mod in mul
	gfLog [256]byte // log_alpha(x); gfLog[0] is unused
)

func init() {
	x := 1
	for i := 0; i < 255; i++ {
		gfExp[i] = byte(x)
		gfLog[x] = byte(i)
		x <<= 1
		if x&0x100 != 0 {
			x ^= gfPoly
		}
	}
	for i := 255; i < 512; i++ {
		gfExp[i] = gfExp[i-255]
	}
}

// gfMul multiplies two field elements.
func gfMul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return gfExp[int(gfLog[a])+int(gfLog[b])]
}

// gfDiv divides a by b; b must be non-zero (division by zero returns 0 to
// keep decode loops total, but callers guard against it).
func gfDiv(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return gfExp[int(gfLog[a])+255-int(gfLog[b])]
}

// gfPow returns alpha^n for the generator alpha (n may be any int).
func gfPow(n int) byte {
	n %= 255
	if n < 0 {
		n += 255
	}
	return gfExp[n]
}

// polyEval evaluates polynomial p (coefficients highest degree first) at x.
func polyEval(p []byte, x byte) byte {
	var y byte
	for _, c := range p {
		y = gfMul(y, x) ^ c
	}
	return y
}

// polyMul multiplies two polynomials over GF(2^8).
func polyMul(a, b []byte) []byte {
	out := make([]byte, len(a)+len(b)-1)
	for i, av := range a {
		if av == 0 {
			continue
		}
		for j, bv := range b {
			out[i+j] ^= gfMul(av, bv)
		}
	}
	return out
}
