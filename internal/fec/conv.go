package fec

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sync"
)

// ConvCode is a rate-1/2 binary convolutional code with constraint length
// K and two generator polynomials. Hard decisions decode syndrome-first:
// a received word that is already a terminated codeword is inverted
// algebraically (see decodeClean), anything else walks the Viterbi
// trellis; soft decisions always walk the trellis.
//
// The SONIC paper names its inner code "v29": the classic rate-1/2, K=9
// code (generators 753/561 octal, as in IS-95 and the libfec v29 codec).
// "v27" (K=7, generators 171/133 octal, the Voyager/NASA standard code)
// is provided as the ablation baseline.
//
// A ConvCode is immutable after construction and safe for concurrent use:
// the trellis output table is built once (sync.Once) and decoder state
// lives in Workspaces (NewWorkspace), one per decoding goroutine, so
// every caller shares the precomputed tables.
type ConvCode struct {
	k     int    // constraint length
	polyA uint32 // generator A (lowest bit = newest input)
	polyB uint32

	// Trellis tables, built lazily once per code. outPair[full] is the
	// coded output pair (polyA parity << 1 | polyB parity) for the full
	// K-bit register value `full`. hardBM[obs][full] is the Hamming
	// distance between that output pair and the observed pair obs — the
	// hard branch metric, pre-resolved so the ACS inner loop does only
	// sequential loads instead of a double indirection through outPair.
	//
	// invA, invB are the code's feed-forward inverse: the Bezout pair
	// invA·polyA ⊕ invB·polyB = 1 over GF(2)[D], which recovers the message
	// from an error-free codeword. hasInverse is false for a code that has
	// none (catastrophic, or neither generator of degree K-1); such a code
	// decodes every word on the trellis.
	tableOnce  sync.Once
	outPair    []uint8
	hardBM     [4][]int32
	invA, invB uint32
	hasInverse bool
}

// The two standard codes are package-level singletons so every caller —
// frame codecs, ablation benches, experiments — shares one trellis table
// instead of recomputing it per NewV29/NewV27 call.
var (
	codeV29 = &ConvCode{k: 9, polyA: 0o753, polyB: 0o561}
	codeV27 = &ConvCode{k: 7, polyA: 0o171, polyB: 0o133}
)

// NewV29 returns the paper's inner code: rate 1/2, K=9, polys 753/561
// (octal). The returned instance is shared and safe for concurrent use.
func NewV29() *ConvCode { return codeV29 }

// NewV27 returns the classic rate 1/2, K=7, polys 171/133 (octal) code.
// The returned instance is shared and safe for concurrent use.
func NewV27() *ConvCode { return codeV27 }

// ConstraintLength returns K.
func (c *ConvCode) ConstraintLength() int { return c.k }

// Rate returns the code rate (always 1/2 for this family).
func (c *ConvCode) Rate() float64 { return 0.5 }

// parity returns the parity (XOR of bits) of x.
func parity(x uint32) byte {
	return byte(bits.OnesCount32(x) & 1)
}

// tables returns the output-pair table, building it on first use.
func (c *ConvCode) tables() []uint8 {
	c.tableOnce.Do(func() {
		n := 1 << uint(c.k)
		t := make([]uint8, n)
		for full := 0; full < n; full++ {
			t[full] = parity(uint32(full)&c.polyA)<<1 | parity(uint32(full)&c.polyB)
		}
		c.outPair = t
		for obs := 0; obs < 4; obs++ {
			bm := make([]int32, n)
			for full := 0; full < n; full++ {
				bm[full] = int32(bits.OnesCount8(t[full] ^ uint8(obs)))
			}
			c.hardBM[obs] = bm
		}
		gcd, a, b := gf2Bezout(c.polyA, c.polyB)
		if gcd == 1 && (c.polyA|c.polyB)>>uint(c.k-1) == 1 {
			c.invA, c.invB, c.hasInverse = a, b, true
		}
	})
	return c.outPair
}

// gf2DivMod divides GF(2) polynomials (bit j = coefficient of D^j):
// a = q·b ⊕ r with deg r < deg b. b must be non-zero.
func gf2DivMod(a, b uint32) (q, r uint32) {
	for db := bits.Len32(b); bits.Len32(a) >= db; {
		s := uint(bits.Len32(a) - db)
		q |= 1 << s
		a ^= b << s
	}
	return q, a
}

// gf2Mul is the carry-less product of two GF(2) polynomials whose
// degrees sum to less than 32.
func gf2Mul(a, b uint32) (p uint32) {
	for ; b != 0; b &= b - 1 {
		p ^= a << uint(bits.TrailingZeros32(b))
	}
	return p
}

// gf2Bezout runs the extended Euclidean algorithm over GF(2)[D] and
// returns gcd(a, b) with s·a ⊕ t·b = gcd.
func gf2Bezout(a, b uint32) (gcd, s, t uint32) {
	s, s1, t1 := uint32(1), uint32(0), uint32(1)
	for b != 0 {
		q, r := gf2DivMod(a, b)
		a, b = b, r
		s, s1 = s1, s^gf2Mul(q, s1)
		t, t1 = t1, t^gf2Mul(q, t1)
	}
	return a, s, t
}

// EncodeBits encodes a bit slice (values 0/1) and returns 2*(len(bits)+K-1)
// output bits: the encoder is flushed with K-1 zero tail bits so the
// decoder terminates in the zero state.
func (c *ConvCode) EncodeBits(bits []byte) []byte {
	dst := make([]byte, 0, 2*(len(bits)+c.k-1))
	outPair := c.tables()
	var sr uint32 // shift register, newest bit in LSB
	mask := uint32(1<<uint(c.k)) - 1
	for _, b := range bits {
		sr = ((sr << 1) | uint32(b&1)) & mask
		p := outPair[sr]
		dst = append(dst, p>>1, p&1)
	}
	for i := 0; i < c.k-1; i++ { // tail flush
		sr = (sr << 1) & mask
		p := outPair[sr]
		dst = append(dst, p>>1, p&1)
	}
	return dst
}

// ErrBadCodeLength is returned for coded input whose length is not
// consistent with the encoder output format.
var ErrBadCodeLength = errors.New("fec: convolutional stream length invalid")

// Encode packs bytes to bits (MSB first), encodes, and returns the coded
// bit stream packed back into bytes (padded with zero bits to a byte
// boundary) along with the number of valid coded bits.
func (c *ConvCode) Encode(data []byte) (coded []byte, codedBits int) {
	bits := BytesToBits(data)
	cb := c.EncodeBits(bits)
	return BitsToBytes(cb), len(cb)
}

// EncodedBits returns the number of coded bits for msgLen message bytes.
func (c *ConvCode) EncodedBits(msgLen int) int {
	return 2 * (msgLen*8 + c.k - 1)
}

// Workspace holds all mutable decoder state for one ConvCode: flat path-
// metric arrays, the bit-packed survivor memory, and scratch buffers.
// Steady-state decodes through a Workspace are allocation-free (survivor
// memory grows once to the largest stream seen, then is reused).
//
// A Workspace decodes through one of two methods, one per input kind:
// Decode takes packed hard decisions, DecodeSoft per-bit soft metrics.
// Both return the message bytes, which alias the workspace's buffers and
// are valid only until the next call; copy them to retain. A Workspace
// is not safe for concurrent use: use one per goroutine.
type Workspace struct {
	c *ConvCode

	metric, next   []int32   // hard-decision path metrics, one per state
	smetric, snext []float64 // soft-decision path metrics

	// surv is the survivor memory: one bit per (step, state) naming the
	// winning predecessor's dropped MSB, packed into stride words/step.
	surv   []uint64
	stride int

	bits  []byte // decoded message bits
	data  []byte // packed decoded bytes
	coded []byte // unpacked coded bits (Decode)
}

// NewWorkspace returns a decoder workspace bound to the code. Callers
// that decode many streams on one goroutine (the frame codec's hot loop)
// keep one Workspace and get allocation-free steady-state decodes.
func (c *ConvCode) NewWorkspace() *Workspace {
	nStates := 1 << uint(c.k-1)
	ws := &Workspace{
		c:       c,
		metric:  make([]int32, nStates),
		next:    make([]int32, nStates),
		smetric: make([]float64, nStates),
		snext:   make([]float64, nStates),
		stride:  (nStates + 63) / 64,
	}
	return ws
}

// growSurv ensures survivor memory for nSteps steps.
func (w *Workspace) growSurv(nSteps int) []uint64 {
	need := nSteps * w.stride
	if cap(w.surv) < need {
		w.surv = make([]uint64, need)
	}
	w.surv = w.surv[:need]
	return w.surv
}

// growBits ensures the decoded-bit buffer holds n bits.
func (w *Workspace) growBits(n int) []byte {
	if cap(w.bits) < n {
		w.bits = make([]byte, n)
	}
	w.bits = w.bits[:n]
	return w.bits
}

const hardInf = math.MaxInt32 / 4

// decodeHardBits is the hard-decision kernel: it decodes a coded bit
// stream (one bit per byte, as EncodeBits emits, possibly with bit
// errors) to the maximum-likelihood message bits, those whose encoding
// is the least Hamming distance from the received stream. A stream that
// is already a codeword skips the trellis (decodeClean). The stream
// length must be even and at least 2*(K-1); the returned slice aliases
// the workspace.
func (w *Workspace) decodeHardBits(coded []byte) ([]byte, error) {
	c := w.c
	if len(coded)%2 != 0 || len(coded) < 2*(c.k-1) {
		return nil, ErrBadCodeLength
	}
	nSteps := len(coded) / 2
	msgLen := nSteps - (c.k - 1)
	if msgLen < 0 {
		return nil, ErrBadCodeLength
	}
	nStates := 1 << uint(c.k-1)
	c.tables() // ensure hardBM and the inverse are built
	msg := w.growBits(nSteps)
	if w.decodeClean(coded, msg) {
		return msg[:msgLen], nil
	}
	surv := w.growSurv(nSteps)
	stride := w.stride

	metric, next := w.metric, w.next
	for i := range metric {
		metric[i] = hardInf
	}
	metric[0] = 0 // encoder starts in the zero state

	// Butterfly form: next states (2t, 2t+1) share the predecessor pair
	// p0 = t and p1 = t|topHalf, the input consumed on a transition is
	// the next state's LSB, and the transition outputs are outPair[ns]
	// (from p0) and outPair[ns+nStates] (from p1) — so no per-state
	// predecessor array is needed: one packed bit per state (which
	// predecessor won) is the whole survivor. Ties keep p0, matching the
	// ascending-state scan of the straightforward formulation.
	half := nStates >> 1
	for step := 0; step < nSteps; step++ {
		obs := (coded[2*step]&1)<<1 | coded[2*step+1]&1
		// Pre-resolved branch metrics for this observation: bmLo[ns] is
		// the cost of reaching ns from p0 = ns>>1, bmHi[ns] from
		// p1 = p0|topHalf. Both are read sequentially.
		bmT := c.hardBM[obs]
		bmLo := bmT[:nStates:nStates]
		bmHi := bmT[nStates:]
		mLo := metric[:half:half]
		mHi := metric[half:nStates]
		nxt := next[:nStates:nStates]
		base := step * stride
		var word uint64
		wi := 0
		for t := range mLo {
			ma := mLo[t]
			mb := mHi[t]
			ns := 2 * t
			m0 := ma + bmLo[ns]
			m1 := mb + bmHi[ns]
			v, b := m0, uint64(0)
			if m1 < m0 {
				v, b = m1, 1
			}
			nxt[ns] = v
			word |= b << (uint(ns) & 63)
			m0 = ma + bmLo[ns+1]
			m1 = mb + bmHi[ns+1]
			v, b = m0, 0
			if m1 < m0 {
				v, b = m1, 1
			}
			nxt[ns+1] = v
			word |= b << (uint(ns+1) & 63)
			if ns&63 == 62 {
				surv[base+wi] = word
				word, wi = 0, wi+1
			}
		}
		if nStates&63 != 0 {
			surv[base+wi] = word
		}
		metric, next = next, metric
	}
	w.metric, w.next = metric, next

	// Traceback from the zero state (tail flush guarantees it). The input
	// at each step is the LSB of the state it led to.
	state := uint32(0)
	for step := nSteps - 1; step >= 0; step-- {
		msg[step] = byte(state & 1)
		b := surv[step*stride+int(state>>6)] >> (state & 63) & 1
		state = state>>1 | uint32(b)<<uint(c.k-2)
	}
	return msg[:msgLen], nil
}

// decodeClean is the zero-syndrome fast path: it reports whether the
// received pairs coded (one step per entry of msg) are exactly a
// terminated codeword, and if so leaves the message that encodes to it
// in msg.
//
// De-interleave coded into r_A(D), r_B(D). If r_A·g_B ⊕ r_B·g_A is zero in
// all len(msg)+K-1 coefficients then, since gcd(g_A, g_B) = 1, r_A = m·g_A
// and r_B = m·g_B for one m with deg m < len(msg)-(K-1): the trellis's
// unique metric-0 path from state 0 to state 0, so m = invA·r_A ⊕ invB·r_B
// is bit for bit what Viterbi returns, with path metric 0. Truncating the
// syndrome to len(msg) coefficients would also accept words of the
// unterminated code, which Viterbi does not. The polynomials are walked
// 64 coefficients at a time and the walk stops at the first non-zero
// syndrome word, so a noisy frame pays at most the clean frame's few
// microseconds (under 1% of the trellis walk it then takes).
func (w *Workspace) decodeClean(coded, msg []byte) bool {
	c := w.c
	if !c.hasInverse {
		return false
	}
	nSteps := len(msg)
	var pa, pb uint64 // the previous 64 coefficients of r_A and r_B
	for lo := 0; lo < nSteps+c.k-1; lo += 64 {
		var ra, rb uint64
		hi := min(lo+64, nSteps) // past the last step r_A and r_B are zero
		if lo < hi {
			pairs := coded[2*lo : 2*hi]
			for i := len(pairs) - 2; i >= 0; i -= 2 { // highest step first, shifted up as the rest arrive
				ra = ra<<1 | uint64(pairs[i]&1)
				rb = rb<<1 | uint64(pairs[i+1]&1)
			}
		}
		if gf2MulWord(ra, pa, c.polyB)^gf2MulWord(rb, pb, c.polyA) != 0 {
			return false
		}
		if lo < hi {
			m := gf2MulWord(ra, pa, c.invA) ^ gf2MulWord(rb, pb, c.invB)
			for i := range msg[lo:hi] {
				msg[lo+i] = byte(m) & 1
				m >>= 1
			}
		}
		pa, pb = ra, rb
	}
	return true
}

// gf2MulWord returns 64 coefficients of r·g over GF(2): cur holds r's
// coefficients at the word's own positions, prev the 64 below them.
func gf2MulWord(cur, prev uint64, g uint32) (p uint64) {
	for ; g != 0; g &= g - 1 {
		j := uint(bits.TrailingZeros32(g))
		p ^= cur<<j | prev>>(64-j)
	}
	return p
}

// decodeSoftBits is the soft-decision kernel: Viterbi over per-bit soft
// metrics (positive value = bit 1, magnitude = reliability, as the
// modem's DemapSoft produces), maximizing correlation, and returns the
// message bits. Soft decoding buys roughly 2 dB over hard decisions on
// Gaussian channels, which is why data-over-sound modems like Quiet
// feed their decoders soft values.
// The returned slice aliases the workspace.
func (w *Workspace) decodeSoftBits(soft []float64) ([]byte, error) {
	c := w.c
	if len(soft)%2 != 0 || len(soft) < 2*(c.k-1) {
		return nil, ErrBadCodeLength
	}
	nSteps := len(soft) / 2
	msgLen := nSteps - (c.k - 1)
	nStates := 1 << uint(c.k-1)
	outPair := c.tables()
	surv := w.growSurv(nSteps)
	stride := w.stride

	const ninf = -1e18
	metric, next := w.smetric, w.snext
	for i := range metric {
		metric[i] = ninf
	}
	metric[0] = 0

	// Same butterfly structure as the hard path (see decodeHardBits),
	// maximizing a correlation metric; ties keep p0.
	half := nStates >> 1
	opLo := outPair[:nStates:nStates]
	opHi := outPair[nStates:]
	for step := 0; step < nSteps; step++ {
		r0, r1 := soft[2*step], soft[2*step+1]
		// Correlation branch metric per output pair: reward agreement
		// with confident soft values (expected sign +1 for bit 1).
		var bm [4]float64
		bm[0] = -r0 - r1
		bm[1] = -r0 + r1
		bm[2] = r0 - r1
		bm[3] = r0 + r1
		mLo := metric[:half:half]
		mHi := metric[half:nStates]
		nxt := next[:nStates:nStates]
		base := step * stride
		var word uint64
		wi := 0
		for t := range mLo {
			ma := mLo[t]
			mb := mHi[t]
			ns := 2 * t
			// Branchless select: float compares otherwise compile to
			// data-dependent branches that mispredict on noisy input.
			m0 := ma + bm[opLo[ns]&3]
			m1 := mb + bm[opHi[ns]&3]
			var b uint64
			if m1 > m0 {
				b = 1
			}
			nxt[ns] = max(m0, m1)
			word |= b << (uint(ns) & 63)
			m0 = ma + bm[opLo[ns+1]&3]
			m1 = mb + bm[opHi[ns+1]&3]
			b = 0
			if m1 > m0 {
				b = 1
			}
			nxt[ns+1] = max(m0, m1)
			word |= b << (uint(ns+1) & 63)
			if ns&63 == 62 {
				surv[base+wi] = word
				word, wi = 0, wi+1
			}
		}
		if nStates&63 != 0 {
			surv[base+wi] = word
		}
		metric, next = next, metric
	}
	w.smetric, w.snext = metric, next

	msg := w.growBits(nSteps)
	state := uint32(0)
	for step := nSteps - 1; step >= 0; step-- {
		msg[step] = byte(state & 1)
		b := surv[step*stride+int(state>>6)] >> (state & 63) & 1
		state = state>>1 | uint32(b)<<uint(c.k-2)
	}
	return msg[:msgLen], nil
}

// Decode decodes packed hard decisions: coded holds codedBits coded bits,
// MSB first, as Encode emits them (possibly with bit errors), and returns
// the message bytes: a codeword is inverted algebraically, anything else
// walks the integer trellis. The returned slice aliases the workspace.
func (w *Workspace) Decode(coded []byte, codedBits int) ([]byte, error) {
	if codedBits < 0 || codedBits > len(coded)*8 {
		return nil, ErrBadCodeLength
	}
	if cap(w.coded) < codedBits {
		w.coded = make([]byte, codedBits)
	}
	w.coded = w.coded[:codedBits]
	unpackBitsInto(w.coded, coded)
	return w.packed(w.decodeHardBits(w.coded))
}

// DecodeSoft decodes per-bit soft metrics, one per coded bit (positive =
// bit 1), always on the float trellis, and returns the message bytes.
// The returned slice aliases the workspace.
func (w *Workspace) DecodeSoft(soft []float64) ([]byte, error) {
	return w.packed(w.decodeSoftBits(soft))
}

// packed packs a kernel's decoded message bits into the workspace's byte
// buffer; a message that is not a whole number of bytes is an error.
func (w *Workspace) packed(msgBits []byte, err error) ([]byte, error) {
	if err != nil {
		return nil, err
	}
	if len(msgBits)%8 != 0 {
		return nil, fmt.Errorf("fec: decoded %d bits, not byte aligned", len(msgBits))
	}
	if cap(w.data) < len(msgBits)/8 {
		w.data = make([]byte, len(msgBits)/8)
	}
	w.data = w.data[:len(msgBits)/8]
	packBitsInto(w.data, msgBits)
	return w.data, nil
}

// BytesToBits unpacks bytes into bits, MSB first.
func BytesToBits(data []byte) []byte {
	bits := make([]byte, len(data)*8)
	unpackBitsInto(bits, data)
	return bits
}

// unpackBitsInto fills bits (MSB first) from data; len(bits) may stop
// short of len(data)*8.
func unpackBitsInto(bits []byte, data []byte) {
	full := len(bits) / 8
	for i, b := range data[:full] {
		o := bits[i*8 : i*8+8 : i*8+8]
		o[0], o[1], o[2], o[3] = b>>7, b>>6&1, b>>5&1, b>>4&1
		o[4], o[5], o[6], o[7] = b>>3&1, b>>2&1, b>>1&1, b&1
	}
	for i := full * 8; i < len(bits); i++ {
		bits[i] = (data[i/8] >> uint(7-i%8)) & 1
	}
}

// BitsToBytes packs bits (MSB first) into bytes, zero-padding the final
// partial byte.
func BitsToBytes(bits []byte) []byte {
	out := make([]byte, (len(bits)+7)/8)
	packBitsInto(out, bits)
	return out
}

// packBitsInto packs bits (MSB first) into out, which must hold
// (len(bits)+7)/8 bytes; every byte of out is overwritten.
func packBitsInto(out []byte, bits []byte) {
	full := len(bits) / 8
	for i := range out[:full] {
		b := bits[i*8 : i*8+8 : i*8+8]
		out[i] = b[0]&1<<7 | b[1]&1<<6 | b[2]&1<<5 | b[3]&1<<4 |
			b[4]&1<<3 | b[5]&1<<2 | b[6]&1<<1 | b[7]&1
	}
	clear(out[full:])
	for i, b := range bits[full*8:] {
		out[full] |= b & 1 << uint(7-i)
	}
}
