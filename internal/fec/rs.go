package fec

import (
	"errors"
	"fmt"
)

// RS is a Reed-Solomon codec over GF(2^8) with N=255 total symbols and
// K data symbols per codeword; it corrects up to (255-K)/2 symbol errors.
// Shortened codewords (fewer than K data bytes) are handled transparently
// by zero-padding on encode and stripping on decode.
//
// The paper's "rs8" outer code corresponds to NewRS8().
//
// The hot loops are table-driven: NewRS precomputes, per instance, the
// encoder feedback rows (fb -> fb·gen[1:]) and the per-root Horner
// multiplier tables used for syndrome computation, so the per-byte work
// is one table lookup + xor instead of log/exp arithmetic with zero
// branches. Decoding scratch (syndromes, Berlekamp-Massey state, Chien/
// Forney buffers, the codeword copy) lives on Decode's stack, so Decode
// performs a single output allocation. All of the GF(2^8) arithmetic is
// exact, so outputs are byte-identical to the straightforward
// implementation.
type RS struct {
	k      int // data symbols per codeword
	nroots int // parity symbols per codeword
	fcr    int // first consecutive root exponent

	// genTab[fb*nroots+i] = gfMul(fb, gen[i+1]): the parity feedback row
	// for message byte feedback fb.
	genTab []byte
	// syndTab[i*256+v] = gfMul(v, alpha^(fcr+i)): the Horner multiplier
	// table for syndrome/root i.
	syndTab []byte
}

// rsWork is the per-decode scratch. Arrays are sized for the full
// N=255 code so one workspace serves every (possibly shortened) block.
type rsWork struct {
	block  [rsN]byte // codeword copy used by Decode
	synd   [rsN]byte
	bufA   [rsN]byte // Berlekamp-Massey sigma/prev/scratch rotation
	bufB   [rsN]byte
	bufC   [rsN]byte
	omega  [rsN]byte
	exps   [rsN]int16 // Chien term exponents; -1 marks a zero coefficient
	errPos [rsN]int
}

// Standard rs8 geometry: RS(255,223), 16 parity roots.
const (
	rsN       = 255
	rs8K      = 223
	rs8Parity = rsN - rs8K
	rs8FCR    = 1
)

// ErrTooManyErrors is returned when a codeword is uncorrectable.
var ErrTooManyErrors = errors.New("fec: reed-solomon codeword uncorrectable")

// NewRS returns an RS(255, k) codec. k must be in [1, 254].
func NewRS(k int) (*RS, error) {
	if k < 1 || k > rsN-1 {
		return nil, fmt.Errorf("fec: invalid RS k=%d", k)
	}
	r := &RS{k: k, nroots: rsN - k, fcr: rs8FCR}
	// Generator polynomial, highest degree first: product of
	// (x - alpha^(fcr+i)).
	g := []byte{1}
	for i := 0; i < r.nroots; i++ {
		g = polyMul(g, []byte{1, gfPow(r.fcr + i)})
	}

	r.genTab = make([]byte, 256*r.nroots)
	for fb := 1; fb < 256; fb++ {
		row := r.genTab[fb*r.nroots:]
		for i := 0; i < r.nroots; i++ {
			row[i] = gfMul(byte(fb), g[i+1])
		}
	}
	r.syndTab = make([]byte, r.nroots*256)
	for i := 0; i < r.nroots; i++ {
		root := gfPow(r.fcr + i)
		row := r.syndTab[i*256:]
		for v := 1; v < 256; v++ {
			row[v] = gfMul(byte(v), root)
		}
	}
	return r, nil
}

// NewRS8 returns the paper's outer code, RS(255,223).
func NewRS8() *RS {
	r, err := NewRS(rs8K)
	if err != nil {
		panic(err) // unreachable: constant k is valid
	}
	return r
}

// appendParity appends the nroots parity symbols for data to out.
func (r *RS) appendParity(out []byte, data []byte) []byte {
	// Systematic encoding: parity = (msg * x^nroots) mod gen, computed over
	// the virtual full-length (zero-prefixed) message. Leading zeros do not
	// change the remainder, so shortened messages need no explicit padding.
	var parityArr [rsN]byte
	parity := parityArr[:r.nroots]
	for _, d := range data {
		fb := d ^ parity[0]
		copy(parity, parity[1:])
		parity[r.nroots-1] = 0
		if fb != 0 {
			row := r.genTab[int(fb)*r.nroots:]
			for i, g := range row[:r.nroots] {
				parity[i] ^= g
			}
		}
	}
	return append(out, parity...)
}

// syndromes fills ws.synd from block and reports whether any syndrome is
// non-zero. Each syndrome is a Horner evaluation at its root; the
// multiply-by-root step is one precomputed table lookup.
func (r *RS) syndromes(block []byte, ws *rsWork) bool {
	synd := ws.synd[:r.nroots]
	for i := range synd {
		synd[i] = 0
	}
	for _, c := range block {
		for i, s := range synd {
			synd[i] = r.syndTab[i<<8|int(s)] ^ c
		}
	}
	var nz byte
	for _, s := range synd {
		nz |= s
	}
	return nz != 0
}

// decodeBlock corrects one codeword in place (data||parity, possibly
// shortened: Decode cuts it to nroots+1 … 255 bytes) and returns its data
// portion and the number of symbol errors fixed, or ErrTooManyErrors.
func (r *RS) decodeBlock(block []byte, ws *rsWork) (data []byte, corrected int, err error) {
	pad := rsN - len(block) // virtual leading zeros of the shortened code

	if !r.syndromes(block, ws) {
		return block[:len(block)-r.nroots], 0, nil
	}
	synd := ws.synd[:r.nroots]

	// Berlekamp-Massey: find the error locator polynomial sigma
	// (lowest degree first here for convenience). sigma/prev/scratch
	// rotate through the three scratch buffers; lengths are tracked
	// explicitly.
	sigma, prev, spare := ws.bufA[:], ws.bufB[:], ws.bufC[:]
	sigma[0], prev[0] = 1, 1
	ls, lp := 1, 1 // poly lengths (number of coefficients)
	var l, m int = 0, 1
	b := byte(1)
	for n := 0; n < r.nroots; n++ {
		var d byte = synd[n]
		for i := 1; i <= l; i++ {
			if i < ls {
				d ^= gfMul(sigma[i], synd[n-i])
			}
		}
		if d == 0 {
			m++
			continue
		}
		coef := gfDiv(d, b)
		// spare = sigma + coef * prev * x^m
		lo := ls
		if lp+m > lo {
			lo = lp + m
		}
		copy(spare[:ls], sigma[:ls])
		for i := ls; i < lo; i++ {
			spare[i] = 0
		}
		for i := 0; i < lp; i++ {
			spare[i+m] ^= gfMul(prev[i], coef)
		}
		if 2*l <= n {
			sigma, prev, spare = spare, sigma, prev
			ls, lp = lo, ls
			l = n + 1 - l
			b = d
			m = 1
		} else {
			sigma, spare = spare, sigma
			ls = lo
			m++
		}
	}
	if l > r.nroots/2 {
		return nil, 0, ErrTooManyErrors
	}

	// Chien search over valid positions of the (possibly shortened) code:
	// error at block[i] iff sigma(alpha^{-(rsN-1-pad-i)}) == 0. The root
	// exponent advances by one per position, so each non-zero term
	// sigma[k]·x^k advances by k in the exponent domain; the search keeps
	// one log-domain accumulator per coefficient and never multiplies.
	exps := ws.exps[:ls]
	e0 := (pad + 1) % 255 // exponent of x at block[0]: -(rsN-1-pad) mod 255
	for k := 0; k < ls; k++ {
		if sigma[k] == 0 {
			exps[k] = -1
			continue
		}
		exps[k] = int16((int(gfLog[sigma[k]]) + k*e0) % 255)
	}
	errPos := ws.errPos[:0] // indexes into block
	for i := 0; i < rsN-pad; i++ {
		var acc byte
		for k := 0; k < ls; k++ {
			e := exps[k]
			if e < 0 {
				continue
			}
			acc ^= gfExp[e]
			e += int16(k)
			if e >= 255 {
				e -= 255
			}
			exps[k] = e
		}
		if acc == 0 {
			errPos = append(errPos, i)
		}
	}
	if len(errPos) != l {
		return nil, 0, ErrTooManyErrors
	}

	// Forney algorithm: error evaluator omega = (synd * sigma) mod x^nroots.
	omega := ws.omega[:r.nroots]
	for i := 0; i < r.nroots; i++ {
		var acc byte
		for j := 0; j <= i && j < ls; j++ {
			acc ^= gfMul(sigma[j], synd[i-j])
		}
		omega[i] = acc
	}
	// Formal derivative of sigma (terms with odd powers).
	for _, pos := range errPos {
		xPow := rsN - 1 - pad - pos // exponent: block[pos] is coefficient of x^xPow
		xinv := gfPow(-xPow)
		// omega(xinv)
		var num byte
		xp := byte(1)
		for i := 0; i < len(omega); i++ {
			num ^= gfMul(omega[i], xp)
			xp = gfMul(xp, xinv)
		}
		// sigma'(xinv): sum over odd i of sigma[i]*x^(i-1)
		var den byte
		for i := 1; i < ls; i += 2 {
			p := byte(1)
			for j := 0; j < i-1; j++ {
				p = gfMul(p, xinv)
			}
			den ^= gfMul(sigma[i], p)
		}
		if den == 0 {
			return nil, 0, ErrTooManyErrors
		}
		// Error magnitude, adjusted for fcr: e = x^(1-fcr) * omega(xinv)/sigma'(xinv).
		mag := gfDiv(num, den)
		if r.fcr != 1 {
			mag = gfMul(mag, gfPow((1-r.fcr)*xPow))
		}
		block[pos] ^= mag
	}

	// Verify by recomputing syndromes.
	if r.syndromes(block, ws) {
		return nil, 0, ErrTooManyErrors
	}
	return block[:len(block)-r.nroots], len(errPos), nil
}

// Encode splits msg into codewords of up to DataLen() bytes each, RS
// encodes every codeword, and concatenates the results. The output layout
// is [cw0 data||parity][cw1 data||parity]... with only the last codeword
// possibly shortened.
func (r *RS) Encode(msg []byte) []byte {
	if len(msg) == 0 {
		return nil
	}
	out := make([]byte, 0, r.EncodedLen(len(msg)))
	for len(msg) > 0 {
		n := r.k
		if len(msg) < n {
			n = len(msg)
		}
		out = append(out, msg[:n]...)
		out = r.appendParity(out, msg[:n])
		msg = msg[n:]
	}
	return out
}

// Decode reverses Encode: it consumes full codewords (the last possibly
// shortened), corrects each, and returns the concatenated data plus the
// total number of corrected symbol errors.
func (r *RS) Decode(stream []byte) ([]byte, int, error) {
	full := r.k + r.nroots
	var out []byte
	if len(stream) > 0 {
		out = make([]byte, 0, r.DecodedLen(len(stream)))
	}
	ws := new(rsWork)
	total := 0
	for len(stream) > 0 {
		n := full
		if len(stream) < n {
			n = len(stream)
		}
		if n <= r.nroots {
			return nil, total, fmt.Errorf("fec: trailing RS fragment of %d bytes", n)
		}
		block := ws.block[:n]
		copy(block, stream[:n])
		data, c, err := r.decodeBlock(block, ws)
		if err != nil {
			return nil, total, err
		}
		total += c
		out = append(out, data...)
		stream = stream[n:]
	}
	return out, total, nil
}

// DecodedLen returns the data size recovered from an encoded stream of
// encLen bytes (assuming a stream layout produced by Encode).
func (r *RS) DecodedLen(encLen int) int {
	full := r.k + r.nroots
	n := (encLen / full) * r.k
	if rem := encLen % full; rem > r.nroots {
		n += rem - r.nroots
	}
	return n
}

// EncodedLen returns the encoded size of a message of msgLen bytes.
func (r *RS) EncodedLen(msgLen int) int {
	if msgLen == 0 {
		return 0
	}
	fullCW := msgLen / r.k
	rem := msgLen % r.k
	n := fullCW * (r.k + r.nroots)
	if rem > 0 {
		n += rem + r.nroots
	}
	return n
}
