// Package modem implements SONIC's physical layer: an OFDM modem modeled
// on the Quiet library's "audible-7k-channel" profile, extended to the
// paper's 92-subcarrier configuration centered at 9.2 kHz (§3.3), plus a
// slow FSK modem representing the GGwave class of data-over-sound tools
// used as a related-work baseline (§2).
package modem

import (
	"fmt"
	"math"
)

// Constellation maps groups of bits to complex symbols and back. All
// constellations are square Gray-coded QAM (BPSK and QPSK are the 1- and
// 2-bit special cases), normalized to unit average energy.
type Constellation struct {
	name    string
	bits    int       // bits per symbol
	side    int       // points per I/Q axis (side*side == 2^bits), 0 for BPSK
	scale   float64   // amplitude normalization
	levels  []float64 // PAM levels per axis, Gray-indexed
	grayInv []int     // Gray code -> level index
}

// Constellations named by total points.
var (
	BPSK    = newConstellation("BPSK", 1)
	QPSK    = newConstellation("QPSK", 2)
	QAM16   = newConstellation("16-QAM", 4)
	QAM64   = newConstellation("64-QAM", 6)
	QAM256  = newConstellation("256-QAM", 8)
	QAM1024 = newConstellation("1024-QAM", 10)
)

// ConstellationByBits returns the constellation with the given bits per
// symbol (1, 2, 4, 6, 8 or 10).
func ConstellationByBits(bits int) (*Constellation, error) {
	switch bits {
	case 1:
		return BPSK, nil
	case 2:
		return QPSK, nil
	case 4:
		return QAM16, nil
	case 6:
		return QAM64, nil
	case 8:
		return QAM256, nil
	case 10:
		return QAM1024, nil
	}
	return nil, fmt.Errorf("modem: no constellation with %d bits/symbol", bits)
}

func newConstellation(name string, bits int) *Constellation {
	c := &Constellation{name: name, bits: bits}
	if bits == 1 {
		c.scale = 1
		return c
	}
	half := bits / 2
	side := 1 << uint(half)
	c.side = side
	// PAM levels: odd integers -side+1 ... side-1, Gray-mapped so adjacent
	// levels differ in one bit.
	c.levels = make([]float64, side)
	c.grayInv = make([]int, side)
	var energy float64
	for i := 0; i < side; i++ {
		gray := i ^ (i >> 1)
		lvl := float64(2*i - side + 1)
		c.levels[gray] = lvl
		c.grayInv[gray] = i
		energy += lvl * lvl
	}
	// Average symbol energy = 2 * mean level^2 (I and Q independent).
	c.scale = 1 / math.Sqrt(2*energy/float64(side))
	return c
}

// Name returns a human-readable constellation name.
func (c *Constellation) Name() string { return c.name }

// Bits returns the number of bits per symbol.
func (c *Constellation) Bits() int { return c.bits }

// Map converts bits (len == Bits(), values 0/1) to a unit-average-energy
// complex symbol.
func (c *Constellation) Map(bits []byte) complex128 {
	if c.bits == 1 {
		if bits[0]&1 == 1 {
			return complex(-1, 0)
		}
		return complex(1, 0)
	}
	half := c.bits / 2
	var gi, gq int
	for k := 0; k < half; k++ {
		gi = gi<<1 | int(bits[k]&1)
		gq = gq<<1 | int(bits[half+k]&1)
	}
	return complex(c.levels[gi]*c.scale, c.levels[gq]*c.scale)
}

// Demap hard-decides the nearest constellation point for sym and appends
// its Bits() bits to dst, returning the extended slice.
func (c *Constellation) Demap(sym complex128, dst []byte) []byte {
	if c.bits == 1 {
		if real(sym) < 0 {
			return append(dst, 1)
		}
		return append(dst, 0)
	}
	half := c.bits / 2
	gi := c.sliceAxis(real(sym))
	gq := c.sliceAxis(imag(sym))
	for k := half - 1; k >= 0; k-- {
		dst = append(dst, byte(gi>>uint(k))&1)
	}
	for k := half - 1; k >= 0; k-- {
		dst = append(dst, byte(gq>>uint(k))&1)
	}
	return dst
}

// sliceAxis maps an amplitude back to the Gray code of the nearest PAM
// level on one axis.
func (c *Constellation) sliceAxis(v float64) int {
	// Levels are odd integers scaled by c.scale; invert the scaling and
	// round to the nearest odd integer, clamped to the alphabet.
	lvl := v / c.scale
	idx := int(math.Round((lvl + float64(c.side) - 1) / 2))
	if idx < 0 {
		idx = 0
	}
	if idx >= c.side {
		idx = c.side - 1
	}
	// idx is the natural level index; its Gray code is the bit pattern.
	return idx ^ (idx >> 1)
}

// DemapSoft appends one signed soft metric per bit to dst: the sign is
// the hard decision (positive means bit 1) and the magnitude grows with
// reliability. It uses the classic recursive approximation for
// Gray-coded square QAM, which the soft-decision Viterbi decoder
// consumes. The sign of each soft value always agrees with Demap.
func (c *Constellation) DemapSoft(sym complex128, dst []float64) []float64 {
	if c.bits == 1 {
		// BPSK maps bit 1 to -1: positive soft value must mean bit 1.
		return append(dst, -real(sym))
	}
	half := c.bits / 2
	dst = c.softAxis(real(sym), half, dst)
	return c.softAxis(imag(sym), half, dst)
}

// softAxis emits m soft metrics for one PAM axis.
func (c *Constellation) softAxis(v float64, m int, dst []float64) []float64 {
	u := v / c.scale // unit level spacing of 2, levels at odd integers
	dst = append(dst, u)
	t := math.Abs(u)
	level := float64(c.side) / 2
	for k := 1; k < m; k++ {
		s := level - t
		dst = append(dst, s)
		t = math.Abs(s)
		level /= 2
	}
	return dst
}
