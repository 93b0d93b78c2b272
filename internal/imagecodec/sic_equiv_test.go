package imagecodec

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// Equivalence tests pinning the SIC codec to a frozen reference copy.
// The v2 reference (refEncodeSICv2/refDecodeSICv2) is a naive serial
// restatement of the v2 pipeline — fixed-point color transform, integer
// AAN DCT, reciprocal quantizer, packed token grammar, per-plane flate —
// frozen at the bitstream v2 bump. The live ENCODER is pinned
// BYTE-identical to it (the integer pipeline is deterministic, so
// exactness is cheap to demand), and the live decoder must reconstruct
// any v2 stream to the same pixels as refDecodeSICv2. The v1 codec it
// replaced is gone — decoder, reference and goldens; what remains of it
// is the float transform below, which the v2 reference decoder still
// reconstructs with, and the size/PSNR figures v2 was held to at the
// bump (v1Parity).
//
// The optimized encoder classifies blocks (solid runs, two-valued glyph
// blocks with a quantization cache, DC-only blocks) and short-circuits
// the transform; every shortcut is exact in integer arithmetic, which is
// why the naive reference — which always takes the long way — must
// produce the same bytes. The codec-semantic rules that are NOT plain
// arithmetic (a uniform 16x16 chroma region encodes its table value, a
// grayscale region encodes chroma DC 0, flat blocks quantize DC via
// Round((v-128)*8/q) rather than through the DCT) are restated here
// explicitly: the reference must follow the same rules to land on the
// same bytes, and freezing them documents the format.

// --- verbatim pre-optimization float transform (used by the v2 reference) ---

func refFdct8(v *[8]float64) {
	var out [8]float64
	for k := 0; k < 8; k++ {
		var s float64
		for n := 0; n < 8; n++ {
			s += v[n] * dctCos[k][n]
		}
		if k == 0 {
			out[k] = s * math.Sqrt(1.0/8)
		} else {
			out[k] = s * math.Sqrt(2.0/8)
		}
	}
	*v = out
}

func refIdct8(v *[8]float64) {
	var out [8]float64
	for n := 0; n < 8; n++ {
		var s float64
		for k := 0; k < 8; k++ {
			c := math.Sqrt(2.0 / 8)
			if k == 0 {
				c = math.Sqrt(1.0 / 8)
			}
			s += c * v[k] * dctCos[k][n]
		}
		out[n] = s
	}
	*v = out
}

func refIdctBlock(b *[64]float64) {
	var row [8]float64
	for x := 0; x < 8; x++ {
		for y := 0; y < 8; y++ {
			row[y] = b[y*8+x]
		}
		refIdct8(&row)
		for y := 0; y < 8; y++ {
			b[y*8+x] = row[y]
		}
	}
	for y := 0; y < 8; y++ {
		copy(row[:], b[y*8:y*8+8])
		refIdct8(&row)
		copy(b[y*8:y*8+8], row[:])
	}
}

func newPlane(w, h int) *plane {
	return &plane{w: w, h: h, pix: make([]float64, w*h)}
}

// at reads a chroma sample, clamping to the plane edge.
func (p *plane) at(x, y int) float64 {
	if x >= p.w {
		x = p.w - 1
	}
	if y >= p.h {
		y = p.h - 1
	}
	return p.pix[y*p.w+x]
}

func refFromYCbCr(yp, cb, cr *plane) *Raster {
	out := NewBlackRaster(yp.w, yp.h)
	for y := 0; y < yp.h; y++ {
		for x := 0; x < yp.w; x++ {
			yy := yp.pix[y*yp.w+x]
			cbb := cb.at(x/2, y/2) - 128
			crr := cr.at(x/2, y/2) - 128
			out.Set(x, y, RGB{
				clamp8(yy + 1.402*crr),
				clamp8(yy - 0.344136*cbb - 0.714136*crr),
				clamp8(yy + 1.772*cbb),
			})
		}
	}
	return out
}

func refReadVarint(r *bytes.Reader) (int, error) {
	u, err := binary.ReadUvarint(r)
	if err != nil {
		return 0, err
	}
	v := int(u >> 1)
	if u&1 != 0 {
		v = ^v
	}
	return v, nil
}

// --- frozen v2 reference implementation (bitstream v2 bump) ---

// Fixed-point scales, frozen. These mirror lumaFixShift / aanFixShift /
// quantQShift at the time of the bump; if the live pipeline ever changes
// scale it must either stay byte-compatible or bump the bitstream again.
const (
	refV2LumaShift  = 16
	refV2AanShift   = 12
	refV2QuantShift = 40
)

// refV2Tables holds the frozen fixed-point lookup tables and the AAN
// descale calibration. Built lazily: the calibration probes the exact
// DCT, whose cosine table is filled by the package init.
type refV2Tables struct {
	yR, yG, yB    [256]int32
	cbR, cbG, cbB [1021]int32
	crR, crG, crB [1021]int32

	aanC4, aanC6, aanC2m6, aanC2p6 int64

	scale2D [64]float64
}

var (
	refV2Once sync.Once
	refV2T    refV2Tables
)

func refV2Tab() *refV2Tables {
	refV2Once.Do(func() {
		t := &refV2T
		for v := 0; v < 256; v++ {
			t.yR[v] = int32(math.Round(0.299 * float64(v) * (1 << refV2LumaShift)))
			t.yG[v] = int32(math.Round(0.587 * float64(v) * (1 << refV2LumaShift)))
			t.yB[v] = int32(math.Round(0.114 * float64(v) * (1 << refV2LumaShift)))
		}
		for s := 0; s < 1021; s++ {
			t.cbR[s] = int32(math.Round(-0.168736 / 4 * float64(s) * (1 << refV2LumaShift)))
			t.cbG[s] = int32(math.Round(-0.331264 / 4 * float64(s) * (1 << refV2LumaShift)))
			t.cbB[s] = int32(math.Round(0.5 / 4 * float64(s) * (1 << refV2LumaShift)))
			t.crR[s] = int32(math.Round(0.5 / 4 * float64(s) * (1 << refV2LumaShift)))
			t.crG[s] = int32(math.Round(-0.418688 / 4 * float64(s) * (1 << refV2LumaShift)))
			t.crB[s] = int32(math.Round(-0.081312 / 4 * float64(s) * (1 << refV2LumaShift)))
		}
		t.aanC4 = int64(math.Round(math.Cos(4*math.Pi/16) * (1 << refV2AanShift)))
		t.aanC6 = int64(math.Round(math.Cos(6*math.Pi/16) * (1 << refV2AanShift)))
		t.aanC2m6 = int64(math.Round((math.Cos(2*math.Pi/16) - math.Cos(6*math.Pi/16)) * (1 << refV2AanShift)))
		t.aanC2p6 = int64(math.Round((math.Cos(2*math.Pi/16) + math.Cos(6*math.Pi/16)) * (1 << refV2AanShift)))
		// AAN descale calibration: one generic probe through the exact
		// orthonormal DCT and the float AAN butterfly determines the
		// per-coefficient ratio (the transforms differ by a diagonal).
		probe := [8]float64{1, 2, 4, 8, 16, 32, 64, 128}
		exact, scaled := probe, probe
		refFdct8(&exact)
		refV2AanFdct8Float(&scaled)
		var s1 [8]float64
		for k := range s1 {
			s1[k] = exact[k] / scaled[k]
		}
		for p := range t.scale2D {
			t.scale2D[p] = s1[p/8] * s1[p%8]
		}
	})
	return &refV2T
}

// refV2AanFdct8Float is the float AAN butterfly, used only to calibrate
// the descale table.
func refV2AanFdct8Float(v *[8]float64) {
	c4 := math.Cos(4 * math.Pi / 16)
	c6 := math.Cos(6 * math.Pi / 16)
	c2m6 := math.Cos(2*math.Pi/16) - math.Cos(6*math.Pi/16)
	c2p6 := math.Cos(2*math.Pi/16) + math.Cos(6*math.Pi/16)
	tmp0 := v[0] + v[7]
	tmp7 := v[0] - v[7]
	tmp1 := v[1] + v[6]
	tmp6 := v[1] - v[6]
	tmp2 := v[2] + v[5]
	tmp5 := v[2] - v[5]
	tmp3 := v[3] + v[4]
	tmp4 := v[3] - v[4]

	tmp10 := tmp0 + tmp3
	tmp13 := tmp0 - tmp3
	tmp11 := tmp1 + tmp2
	tmp12 := tmp1 - tmp2
	v[0] = tmp10 + tmp11
	v[4] = tmp10 - tmp11
	z1 := (tmp12 + tmp13) * c4
	v[2] = tmp13 + z1
	v[6] = tmp13 - z1

	tmp10 = tmp4 + tmp5
	tmp11 = tmp5 + tmp6
	tmp12 = tmp6 + tmp7
	z5 := (tmp10 - tmp12) * c6
	z2 := c2m6*tmp10 + z5
	z4 := c2p6*tmp12 + z5
	z3 := tmp11 * c4
	z11 := tmp7 + z3
	z13 := tmp7 - z3
	v[5] = z13 + z2
	v[3] = z13 - z2
	v[1] = z11 + z4
	v[7] = z11 - z4
}

func refV2MulFix(a int32, c int64) int32 {
	return int32((int64(a) * c) >> refV2AanShift)
}

// refV2Fdct8 is the frozen integer AAN butterfly.
func refV2Fdct8(v *[8]int32) {
	t := refV2Tab()
	tmp0 := v[0] + v[7]
	tmp7 := v[0] - v[7]
	tmp1 := v[1] + v[6]
	tmp6 := v[1] - v[6]
	tmp2 := v[2] + v[5]
	tmp5 := v[2] - v[5]
	tmp3 := v[3] + v[4]
	tmp4 := v[3] - v[4]

	tmp10 := tmp0 + tmp3
	tmp13 := tmp0 - tmp3
	tmp11 := tmp1 + tmp2
	tmp12 := tmp1 - tmp2
	v[0] = tmp10 + tmp11
	v[4] = tmp10 - tmp11
	z1 := refV2MulFix(tmp12+tmp13, t.aanC4)
	v[2] = tmp13 + z1
	v[6] = tmp13 - z1

	tmp10 = tmp4 + tmp5
	tmp11 = tmp5 + tmp6
	tmp12 = tmp6 + tmp7
	z5 := refV2MulFix(tmp10-tmp12, t.aanC6)
	z2 := refV2MulFix(tmp10, t.aanC2m6) + z5
	z4 := refV2MulFix(tmp12, t.aanC2p6) + z5
	z3 := refV2MulFix(tmp11, t.aanC4)
	z11 := tmp7 + z3
	z13 := tmp7 - z3
	v[5] = z13 + z2
	v[3] = z13 - z2
	v[1] = z11 + z4
	v[7] = z11 - z4
}

// refV2FdctBlock is the plain separable 2-D integer DCT — no flat-row,
// duplicate-row, or column short-circuits. The optimized block transform
// must be exactly equal to this.
func refV2FdctBlock(b *[64]int32) {
	var row [8]int32
	for y := 0; y < 8; y++ {
		copy(row[:], b[y*8:y*8+8])
		refV2Fdct8(&row)
		copy(b[y*8:y*8+8], row[:])
	}
	for x := 0; x < 8; x++ {
		for y := 0; y < 8; y++ {
			row[y] = b[y*8+x]
		}
		refV2Fdct8(&row)
		for y := 0; y < 8; y++ {
			b[y*8+x] = row[y]
		}
	}
}

// refV2Quant carries the per-plane reciprocal quantizer.
type refV2Quant struct {
	qf0  float64
	invQ [64]int64
}

func newRefV2Quant(qt [64]int) refV2Quant {
	t := refV2Tab()
	var pq refV2Quant
	pq.qf0 = float64(qt[0])
	for i := 0; i < 64; i++ {
		p := zigzag[i]
		inv := t.scale2D[p] / float64(qt[p])
		pq.invQ[i] = int64(math.Round(inv / (1 << refV2LumaShift) * (1 << refV2QuantShift)))
	}
	return pq
}

// refV2FlatDC is the flat-block DC rule: quantize the constant sample
// directly, bypassing the DCT.
func refV2FlatDC(first int32, centered bool, qf0 float64) int {
	v := float64(first) / (1 << refV2LumaShift)
	if !centered {
		v -= 128
	}
	return int(math.Round(v * 8 / qf0))
}

// refV2Quantize transforms and quantizes one block: multiply by the
// 40-bit reciprocal, add half, arithmetic shift (round half up).
func refV2Quantize(blk *[64]int32, q *[64]int32, pq *refV2Quant) (dc, nz int) {
	refV2FdctBlock(blk)
	const half = int64(1) << (refV2QuantShift - 1)
	dc = int((int64(blk[0])*pq.invQ[0] + half) >> refV2QuantShift)
	for i := 1; i < 64; i++ {
		v := (int64(blk[zigzag[i]])*pq.invQ[i] + half) >> refV2QuantShift
		q[i] = int32(v)
		if v != 0 {
			nz++
		}
	}
	return dc, nz
}

// refV2LoadLuma loads one luma block in the fixed-point domain and
// applies the codec's flatness rules: an interior block is flat iff all
// 64 RGB triples are equal (value collisions between distinct triples go
// through the DCT); a block overlapping the raster edge replicates the
// last row/column and is flat iff every clamped sample VALUE is equal.
// The returned first sample is uncentered.
func refV2LoadLuma(r *Raster, blk *[64]int32, bx, by int) (first int32, flat bool) {
	t := refV2Tab()
	w, h := r.W, r.H
	x0, y0 := bx*8, by*8
	pix := r.Pix
	const center = 128 << refV2LumaShift
	if x0+8 <= w && y0+8 <= h {
		i0 := 3 * (y0*w + x0)
		p0, p1, p2 := pix[i0], pix[i0+1], pix[i0+2]
		flat = true
	uniform:
		for y := 0; y < 8; y++ {
			for x := 0; x < 8; x++ {
				i := 3 * ((y0+y)*w + x0 + x)
				if pix[i] != p0 || pix[i+1] != p1 || pix[i+2] != p2 {
					flat = false
					break uniform
				}
			}
		}
		if flat {
			return t.yR[p0] + t.yG[p1] + t.yB[p2], true
		}
		for y := 0; y < 8; y++ {
			for x := 0; x < 8; x++ {
				i := 3 * ((y0+y)*w + x0 + x)
				blk[y*8+x] = t.yR[pix[i]] + t.yG[pix[i+1]] + t.yB[pix[i+2]] - center
			}
		}
		return 0, false
	}
	flat = true
	for y := 0; y < 8; y++ {
		py := y0 + y
		if py >= h {
			py = h - 1
		}
		for x := 0; x < 8; x++ {
			px := x0 + x
			if px >= w {
				px = w - 1
			}
			i := 3 * (py*w + px)
			v := t.yR[pix[i]] + t.yG[pix[i+1]] + t.yB[pix[i+2]]
			if y == 0 && x == 0 {
				first = v
			} else if v != first {
				flat = false
			}
			blk[y*8+x] = v - center
		}
	}
	return first, flat
}

// refV2LoadChroma loads one chroma-plane block (centered 16.16 samples
// from 2x2 quad sums) and applies the codec's chroma rules in order: a
// uniform 16x16 source region is flat at its table value, a grayscale
// region is flat at 0 (the coefficients sum to zero; per-table rounding
// might not, so this is a semantic rule, not an optimization), otherwise
// the block is flat iff all computed samples agree. Edge blocks clamp
// coordinates and scale partial quads to the 4-pixel table range.
func refV2LoadChroma(r *Raster, cr bool, blk *[64]int32, bx, by int) (first int32, flat bool) {
	t := refV2Tab()
	tR, tG, tB := &t.cbR, &t.cbG, &t.cbB
	if cr {
		tR, tG, tB = &t.crR, &t.crG, &t.crB
	}
	w, h := r.W, r.H
	x0, y0 := bx*8, by*8
	pix := r.Pix
	if 2*(x0+8) <= w && 2*(y0+8) <= h {
		i0 := 3 * (2*y0*w + 2*x0)
		p0, p1, p2 := pix[i0], pix[i0+1], pix[i0+2]
		uniform, gray := true, true
		for y := 0; y < 16 && (uniform || gray); y++ {
			for x := 0; x < 16; x++ {
				i := 3 * ((2*y0+y)*w + 2*x0 + x)
				if pix[i] != p0 || pix[i+1] != p1 || pix[i+2] != p2 {
					uniform = false
				}
				if pix[i] != pix[i+1] || pix[i] != pix[i+2] {
					gray = false
				}
			}
		}
		if uniform {
			sr, sg, sb := 4*int(p0), 4*int(p1), 4*int(p2)
			return tR[sr] + tG[sg] + tB[sb], true
		}
		if gray {
			return 0, true
		}
		flat = true
		for y := 0; y < 8; y++ {
			for x := 0; x < 8; x++ {
				var sr, sg, sb int
				for dy := 0; dy < 2; dy++ {
					for dx := 0; dx < 2; dx++ {
						i := 3 * ((2*(y0+y)+dy)*w + 2*(x0+x) + dx)
						sr += int(pix[i])
						sg += int(pix[i+1])
						sb += int(pix[i+2])
					}
				}
				v := tR[sr] + tG[sg] + tB[sb]
				blk[y*8+x] = v
				if y == 0 && x == 0 {
					first = v
				} else if v != first {
					flat = false
				}
			}
		}
		return first, flat
	}
	cw, ch := (w+1)/2, (h+1)/2
	flat = true
	for y := 0; y < 8; y++ {
		cy := y0 + y
		if cy >= ch {
			cy = ch - 1
		}
		for x := 0; x < 8; x++ {
			cx := x0 + x
			if cx >= cw {
				cx = cw - 1
			}
			var sr, sg, sb, n int
			for dy := 0; dy < 2; dy++ {
				py := 2*cy + dy
				if py >= h {
					continue
				}
				for dx := 0; dx < 2; dx++ {
					px := 2*cx + dx
					if px >= w {
						continue
					}
					i := 3 * (py*w + px)
					sr += int(pix[i])
					sg += int(pix[i+1])
					sb += int(pix[i+2])
					n++
				}
			}
			v := tR[sr*4/n] + tG[sg*4/n] + tB[sb*4/n]
			blk[y*8+x] = v
			if y == 0 && x == 0 {
				first = v
			} else if v != first {
				flat = false
			}
		}
	}
	return first, flat
}

// refV2AppendVarint appends a zigzag-mapped signed varint.
func refV2AppendVarint(dst []byte, v int) []byte {
	u := uint64(v) << 1
	if v < 0 {
		u = ^u
	}
	var tmp [10]byte
	n := binary.PutUvarint(tmp[:], u)
	return append(dst, tmp[:n]...)
}

func refV2AppendUvarint(dst []byte, u uint64) []byte {
	var tmp [10]byte
	n := binary.PutUvarint(tmp[:], u)
	return append(dst, tmp[:n]...)
}

// refV2Emitter is the frozen v2 token grammar: same-DC flat runs pack
// into one tag byte (0x00..0xEF for runs of 1..240, 0xF0+uvarint beyond),
// a DC step is 0xF1+varint, a coded block is 0xF2+varint followed by AC
// tokens — packed (run,value) bytes run*14+vi for run<=15 and |v|<=7,
// 0xFD+uvarint(run)+varint(v) otherwise, 0xFE to end the block.
type refV2Emitter struct {
	dst    []byte
	prevDC int
	run    int
}

func (e *refV2Emitter) flushRun() {
	if e.run == 0 {
		return
	}
	if e.run <= 0xEF+1 {
		e.dst = append(e.dst, byte(e.run-1))
	} else {
		e.dst = append(e.dst, 0xF0)
		e.dst = refV2AppendUvarint(e.dst, uint64(e.run))
	}
	e.run = 0
}

func (e *refV2Emitter) emitFlat(dc int) {
	if dc == e.prevDC {
		e.run++
		return
	}
	e.flushRun()
	e.dst = append(e.dst, 0xF1)
	e.dst = refV2AppendVarint(e.dst, dc-e.prevDC)
	e.prevDC = dc
}

func (e *refV2Emitter) emitCoded(dc int, q *[64]int32) {
	e.flushRun()
	e.dst = append(e.dst, 0xF2)
	e.dst = refV2AppendVarint(e.dst, dc-e.prevDC)
	e.prevDC = dc
	run := 0
	for i := 1; i < 64; i++ {
		v := q[i]
		if v == 0 {
			run++
			continue
		}
		if run <= 15 && v >= -7 && v <= 7 {
			vi := int(v) + 7
			if v > 0 {
				vi = int(v) + 6
			}
			e.dst = append(e.dst, byte(run*14+vi))
		} else {
			e.dst = append(e.dst, 0xFD)
			e.dst = refV2AppendUvarint(e.dst, uint64(run))
			e.dst = refV2AppendVarint(e.dst, int(v))
		}
		run = 0
	}
	e.dst = append(e.dst, 0xFE)
}

// refV2EncodePlane emits one plane's packed token stream. luma selects
// the luma loader and the uncentered flat-DC rule; otherwise the chroma
// loader (cr picking the plane) and the centered rule.
func refV2EncodePlane(r *Raster, luma, cr bool, qt [64]int) []byte {
	w, h := r.W, r.H
	if !luma {
		w, h = (w+1)/2, (h+1)/2
	}
	bw := (w + 7) / 8
	bh := (h + 7) / 8
	pq := newRefV2Quant(qt)
	var e refV2Emitter
	var blk, q [64]int32
	for by := 0; by < bh; by++ {
		for bx := 0; bx < bw; bx++ {
			var first int32
			var flat bool
			if luma {
				first, flat = refV2LoadLuma(r, &blk, bx, by)
			} else {
				first, flat = refV2LoadChroma(r, cr, &blk, bx, by)
			}
			if flat {
				e.emitFlat(refV2FlatDC(first, !luma, pq.qf0))
				continue
			}
			dc, nz := refV2Quantize(&blk, &q, &pq)
			if nz == 0 {
				e.emitFlat(dc)
				continue
			}
			e.emitCoded(dc, &q)
		}
	}
	e.flushRun()
	return e.dst
}

// refV2FlateLevel is the frozen encoder's flate level. The format does
// not carry it: streams deflated at any level decode alike
// (TestSICFlateLevelIsEncoderOnly).
const refV2FlateLevel = 6

// refV2Deflate compresses one plane's tokens at the frozen flate level.
func refV2Deflate(tokens []byte) ([]byte, error) {
	return refV2DeflateLevel(tokens, refV2FlateLevel)
}

// refV2DeflateLevel compresses one plane's tokens at the given level.
func refV2DeflateLevel(tokens []byte, level int) ([]byte, error) {
	var out bytes.Buffer
	fw, err := flate.NewWriter(&out, level)
	if err != nil {
		return nil, err
	}
	if _, err := fw.Write(tokens); err != nil {
		return nil, err
	}
	if err := fw.Close(); err != nil {
		return nil, err
	}
	return out.Bytes(), nil
}

// refEncodeSICv2 is the frozen v2 container: "SIC2" magic, big-endian
// dimensions, quality byte, then three uvarint-length-prefixed per-plane
// flate segments (Y, Cb, Cr).
func refEncodeSICv2(r *Raster, quality int) ([]byte, error) {
	return refEncodeSICv2Level(r, quality, refV2FlateLevel)
}

// refEncodeSICv2Level is refEncodeSICv2 with its segments deflated at
// the given flate level.
func refEncodeSICv2Level(r *Raster, quality, level int) ([]byte, error) {
	if r == nil || r.W < 1 || r.H < 1 {
		return nil, ErrEmptyRaster
	}
	if quality < MinQuality || quality > MaxQuality {
		return nil, fmt.Errorf("imagecodec: quality %d out of [%d,%d]", quality, MinQuality, MaxQuality)
	}
	planes := [3][]byte{
		refV2EncodePlane(r, true, false, quantTable(lumaQBase, quality)),
		refV2EncodePlane(r, false, false, quantTable(chromaQBase, quality)),
		refV2EncodePlane(r, false, true, quantTable(chromaQBase, quality)),
	}
	var out bytes.Buffer
	out.WriteString("SIC2")
	var hdr [9]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(r.W))
	binary.BigEndian.PutUint32(hdr[4:8], uint32(r.H))
	hdr[8] = byte(quality)
	out.Write(hdr[:])
	for _, tok := range planes {
		comp, err := refV2DeflateLevel(tok, level)
		if err != nil {
			return nil, err
		}
		out.Write(refV2AppendUvarint(nil, uint64(len(comp))))
		out.Write(comp)
	}
	return out.Bytes(), nil
}

// refV2DecodePlane parses one plane's inflated token stream and
// reconstructs it with the exact float IDCT. Blocks with no surviving AC
// energy — whether emitted flat or coded — reconstruct as a constant
// fill at dc*qt[0]/8, exactly like the v1 reference.
func refV2DecodePlane(tokens []byte, w, h int, qt [64]int) (*plane, error) {
	bw := (w + 7) / 8
	bh := (h + 7) / 8
	nblocks := bw * bh
	blocks := make([]sicBlock, nblocks)
	br := bytes.NewReader(tokens)
	prevDC := 0
	bi := 0
	for bi < nblocks {
		tag, err := br.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("imagecodec: truncated block tag: %w", err)
		}
		switch {
		case tag <= 0xF0:
			n := int(tag) + 1
			if tag == 0xF0 {
				u, err := binary.ReadUvarint(br)
				if err != nil {
					return nil, fmt.Errorf("imagecodec: truncated run length: %w", err)
				}
				if u == 0 || u > uint64(nblocks) {
					return nil, errors.New("imagecodec: flat run overruns plane")
				}
				n = int(u)
			}
			if bi+n > nblocks {
				return nil, errors.New("imagecodec: flat run overruns plane")
			}
			for ; n > 0; n-- {
				blocks[bi].flat = true
				blocks[bi].q[0] = int32(prevDC)
				bi++
			}
		case tag == 0xF1:
			d, err := refReadVarint(br)
			if err != nil {
				return nil, fmt.Errorf("imagecodec: truncated DC: %w", err)
			}
			prevDC += d
			blocks[bi].flat = true
			blocks[bi].q[0] = int32(prevDC)
			bi++
		case tag == 0xF2:
			d, err := refReadVarint(br)
			if err != nil {
				return nil, fmt.Errorf("imagecodec: truncated DC: %w", err)
			}
			prevDC += d
			b := &blocks[bi]
			b.q[0] = int32(prevDC)
			idx := 1
			for {
				ab, err := br.ReadByte()
				if err != nil {
					return nil, fmt.Errorf("imagecodec: truncated AC: %w", err)
				}
				if ab == 0xFE {
					break
				}
				if ab <= 0xDF {
					idx += int(ab) / 14
					if idx > 63 {
						return nil, errors.New("imagecodec: AC index overflow")
					}
					vi := int(ab) % 14
					v := vi - 7
					if vi >= 7 {
						v = vi - 6
					}
					b.q[idx] = int32(v)
					idx++
					continue
				}
				if ab != 0xFD {
					return nil, errors.New("imagecodec: invalid AC byte")
				}
				run, err := binary.ReadUvarint(br)
				if err != nil {
					return nil, fmt.Errorf("imagecodec: truncated AC run: %w", err)
				}
				v, err := refReadVarint(br)
				if err != nil {
					return nil, fmt.Errorf("imagecodec: truncated AC value: %w", err)
				}
				if run > 63 {
					return nil, errors.New("imagecodec: AC index overflow")
				}
				idx += int(run)
				if idx > 63 {
					return nil, errors.New("imagecodec: AC index overflow")
				}
				b.q[idx] = int32(v)
				idx++
			}
			b.flat = true
			for i := 1; i < 64; i++ {
				if b.q[i] != 0 {
					b.flat = false
					break
				}
			}
			bi++
		default:
			return nil, errors.New("imagecodec: invalid block tag")
		}
	}
	if br.Len() != 0 {
		return nil, errors.New("imagecodec: trailing bytes after plane")
	}
	p := newPlane(w, h)
	var blk [64]float64
	for bi := range blocks {
		by, bx := bi/bw, bi%bw
		b := &blocks[bi]
		if b.flat {
			v := float64(int(b.q[0])*qt[0]) / 8
			for i := range blk {
				blk[i] = v
			}
		} else {
			for i := 0; i < 64; i++ {
				blk[zigzag[i]] = float64(int(b.q[i]) * qt[zigzag[i]])
			}
			refIdctBlock(&blk)
		}
		for y := 0; y < 8; y++ {
			py := by*8 + y
			if py >= h {
				break
			}
			for x := 0; x < 8; x++ {
				px := bx*8 + x
				if px >= w {
					continue
				}
				p.pix[py*w+px] = blk[y*8+x] + 128
			}
		}
	}
	return p, nil
}

// refDecodeSICv2 decodes a v2 container with the frozen reference path.
func refDecodeSICv2(data []byte) (*Raster, error) {
	if len(data) < 13 || string(data[0:4]) != "SIC2" {
		return nil, errors.New("imagecodec: not a SICv2 stream")
	}
	w := int(binary.BigEndian.Uint32(data[4:8]))
	h := int(binary.BigEndian.Uint32(data[8:12]))
	quality := int(data[12])
	if w < 1 || h < 1 || w > 1<<15 || h > 1<<20 {
		return nil, errors.New("imagecodec: implausible SIC dimensions")
	}
	cw, ch := (w+1)/2, (h+1)/2
	dims := [3][2]int{{w, h}, {cw, ch}, {cw, ch}}
	qts := [3][64]int{
		quantTable(lumaQBase, quality),
		quantTable(chromaQBase, quality),
		quantTable(chromaQBase, quality),
	}
	rest := data[13:]
	var planes [3]*plane
	for pi := 0; pi < 3; pi++ {
		clen, n := binary.Uvarint(rest)
		if n <= 0 {
			return nil, errors.New("imagecodec: truncated plane length")
		}
		rest = rest[n:]
		if clen > uint64(len(rest)) {
			return nil, errors.New("imagecodec: plane length overruns stream")
		}
		tokens, err := io.ReadAll(flate.NewReader(bytes.NewReader(rest[:clen])))
		if err != nil {
			return nil, fmt.Errorf("imagecodec: flate: %w", err)
		}
		rest = rest[clen:]
		p, err := refV2DecodePlane(tokens, dims[pi][0], dims[pi][1], qts[pi])
		if err != nil {
			return nil, err
		}
		planes[pi] = p
	}
	return refFromYCbCr(planes[0], planes[1], planes[2]), nil
}

// --- equivalence trials ---

// equivRasters builds the raster set the suite runs over: webpage-like
// content, pure noise, a solid page, odd (non multiple-of-8 and non
// multiple-of-2) dimensions, a photo, and a page of the production
// shape (marginPage).
func equivRasters() map[string]*Raster {
	rng := rand.New(rand.NewSource(77))
	noisy := whiteRaster(96, 120)
	for i := range noisy.Pix {
		noisy.Pix[i] = byte(rng.Intn(256))
	}
	solid := whiteRaster(128, 96)
	solid.FillRect(0, 0, 128, 48, RGB{200, 40, 90})
	return map[string]*Raster{
		"page":   testPage(160, 240, 6),
		"noise":  noisy,
		"solid":  solid,
		"odd":    testPage(61, 83, 7),
		"photo":  testPhoto(331, 117, 78),
		"margin": marginPage(200, 134, 9),
	}
}

// marginPage is a page of the production shape in small: its width is 8
// mod 16, as 1080 is, so the last chroma block of every block row is an
// edge block over 8 pixel columns, and its height leaves partial luma
// and chroma block rows, the luma ones crossed by a footer rule below
// their first pixel row. It has a 24-pixel white right margin with a
// coloured scroll thumb in it, a coloured and a gray bar, and gray and coloured text
// drawn from a small glyph alphabet, on the block grid and off it. Each
// chroma rule meets a 16x16 region that only one 8x8 quadrant decides:
// an off-white square in each quadrant position (the other three are
// white), a red bullet whose first pixel is red (a two-valued block
// whose first triple alone is colour), and tiles of three gray levels,
// where the luma scan stops at the third level and leaves the chroma
// load to scan the tile, untinted (gray) or with a red last row (not).
func marginPage(w, h int, seed int64) *Raster {
	rng := rand.New(rand.NewSource(seed))
	r := whiteRaster(w, h)
	body := w - 24
	r.FillRect(0, 0, body, 16, RGB{30, 60, 160})
	r.FillRect(0, 112, body, 8, RGB{200, 200, 200})
	r.FillRect(w-4, 40, 4, 24, RGB{60, 90, 200})
	r.FillRect(0, h-2, body, 1, RGB{200, 60, 60})
	var glyphs [6]uint64
	for i := range glyphs {
		glyphs[i] = rng.Uint64()
	}
	text := func(x0, y0 int, ink RGB) {
		for x := x0; x+8 <= body; x += 8 {
			g := glyphs[rng.Intn(len(glyphs))]
			for i := 0; i < 64; i++ {
				if g&(1<<i) != 0 {
					r.Set(x+i%8, y0+i/8, ink)
				}
			}
		}
	}
	text(0, 24, RGB{60, 60, 60})
	text(0, 32, RGB{60, 60, 60})
	text(3, 45, RGB{0, 0, 200})
	text(0, 64, RGB{170, 30, 30})
	text(136, 104, RGB{60, 60, 60})
	for _, p := range [][2]int{{32, 96}, {88, 96}, {64, 104}, {104, 88}} {
		r.FillRect(p[0], p[1], 8, 8, RGB{255, 255, 250})
	}
	r.FillRect(112, 96, 4, 4, RGB{200, 0, 0})
	for _, tile := range []struct {
		x0, y0 int
		tint   bool
	}{{16, 80, false}, {48, 80, true}, {88, 80, true}, {128, 88, true}, {152, 88, false}} {
		for y := tile.y0; y < tile.y0+8; y++ {
			for x := tile.x0; x < tile.x0+8; x++ {
				v := uint8(64 * (1 + (x+y)%3))
				r.Set(x, y, RGB{v, v, v})
			}
		}
		if tile.tint {
			r.FillRect(tile.x0, tile.y0+7, 8, 1, RGB{200, 0, 0})
		}
	}
	return r
}

// testPhoto is webrender's photo content in small: a gradient whose
// slopes change across the raster, with sparse ±grain. Its blocks are
// neither flat nor two-valued, and their sample ranges fall on both
// sides of the encoder's DC-only bounds (planeQuant.dcOnly) at the
// qualities the server uses. It is wide enough that a band of its luma
// block rows is split between two encoder workers.
func testPhoto(w, h int, seed int64) *Raster {
	rng := rand.New(rand.NewSource(seed))
	r := whiteRaster(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			c := [3]int{
				40 + 180*x/w,
				200 - 150*y/h + 30*x*x/(w*w),
				60 + 120*x*y/(w*h),
			}
			if rng.Intn(16) == 0 {
				g := 1 + rng.Intn(6)
				if rng.Intn(2) == 0 {
					g = -g
				}
				for i := range c {
					c[i] += g
				}
			}
			r.Set(x, y, RGB{uint8(c[0]), uint8(c[1]), uint8(c[2])})
		}
	}
	return r
}

// poolRow is one row of a worker-parity table: an explicit worker count,
// or workers 0 — what EncodeSIC and DecodeSIC pass —
// with GOMAXPROCS pinned to procs for the call.
type poolRow struct{ workers, procs int }

var poolRows = []poolRow{{1, 0}, {2, 0}, {3, 0}, {5, 0}, {8, 0}, {0, 1}, {0, 2}, {0, 4}}

// pin applies the row's GOMAXPROCS, if it has one, and returns the undo.
func (r poolRow) pin() (undo func()) {
	if r.procs == 0 {
		return func() {}
	}
	prev := runtime.GOMAXPROCS(r.procs)
	return func() { runtime.GOMAXPROCS(prev) }
}

func TestSICDecoderMatchesReference(t *testing.T) {
	// Streams produced by the live encoder must reconstruct exactly like
	// refDecodeSICv2, at any worker count.
	for name, src := range equivRasters() {
		for _, q := range []int{0, 10, 50, 95} {
			enc, err := EncodeSIC(src, q)
			if err != nil {
				t.Fatalf("%s q=%d: %v", name, q, err)
			}
			want, err := refDecodeSICv2(enc)
			if err != nil {
				t.Fatalf("%s q=%d: ref decode: %v", name, q, err)
			}
			for _, row := range poolRows {
				undo := row.pin()
				got, err := DecodeSICWorkers(enc, row.workers)
				undo()
				if err != nil {
					t.Fatalf("%s q=%d pool=%+v: %v", name, q, row, err)
				}
				if got.W != want.W || got.H != want.H || !bytes.Equal(got.Pix, want.Pix) {
					t.Fatalf("%s q=%d pool=%+v: decoded pixels differ from reference", name, q, row)
				}
			}
		}
	}
}

func TestSICEncodeV2MatchesReference(t *testing.T) {
	// The live v2 encoder — block classification, glyph cache, DCT
	// short-circuits, zero-bound quantizer, pooled flate — must produce
	// the same bytes as the naive frozen reference.
	for name, src := range equivRasters() {
		for _, q := range []int{0, 10, 50, 95} {
			want, err := refEncodeSICv2(src, q)
			if err != nil {
				t.Fatalf("%s q=%d: ref: %v", name, q, err)
			}
			got, err := EncodeSICWorkers(src, q, 1)
			if err != nil {
				t.Fatalf("%s q=%d: %v", name, q, err)
			}
			if !bytes.Equal(got, want) {
				limit := len(got)
				if len(want) < limit {
					limit = len(want)
				}
				diff := limit
				for i := 0; i < limit; i++ {
					if got[i] != want[i] {
						diff = i
						break
					}
				}
				t.Fatalf("%s q=%d: encoded bytes differ from v2 reference (len %d vs %d, first diff at %d)",
					name, q, len(got), len(want), diff)
			}
		}
	}
}

// emptyGlyphTable clears the glyph table and its count.
func emptyGlyphTable() {
	for i := range glyphTable {
		glyphTable[i].Store(nil)
	}
	glyphCount.Store(0)
}

// TestSICFullGlyphCacheMatchesReference pins that the glyph table's
// bounds change speed, never bytes. Two tables are planted before each
// encode: one whose every slot holds an entry no block makes (a real
// key's mask and values, from an encode with an empty table, at a
// quality above MaxQuality, each real key's probe run first), with the
// count at 0, so a miss finds its probe run full; and an empty one with
// the count at glyphMax. Each planted entry holds zero coefficients, so
// a lookup that returned a colliding key's entry would change the bytes.
// Either way every two-valued block misses, is quantized without being
// stored, and the encoder must emit the reference's bytes.
func TestSICFullGlyphCacheMatchesReference(t *testing.T) {
	emptyGlyphTable()
	t.Cleanup(emptyGlyphTable)
	rasters := equivRasters()
	qualities := []int{10, 50}
	for _, src := range rasters {
		for _, q := range qualities {
			if _, err := EncodeSICWorkers(src, q, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	var keys []sicMaskKey
	for i := range glyphTable {
		if e := glyphTable[i].Load(); e != nil {
			keys = append(keys, e.key)
		}
	}
	if len(keys) == 0 {
		t.Fatal("the equivalence rasters stored no glyph")
	}
	twin := func(k sicMaskKey) *glyphEntry {
		k.quality += MaxQuality + 1
		return &glyphEntry{key: k}
	}
	plantFull := func() {
		emptyGlyphTable()
		for _, k := range keys {
			h := k.slot()
			for p := uint64(0); p < glyphProbes; p++ {
				glyphTable[(h+p)&(glyphSlots-1)].CompareAndSwap(nil, twin(k))
			}
		}
		for i := range glyphTable {
			glyphTable[i].CompareAndSwap(nil, twin(keys[i%len(keys)]))
		}
	}
	plantCapped := func() {
		emptyGlyphTable()
		glyphCount.Store(glyphMax)
	}
	for _, plant := range []struct {
		name  string
		fill  func()
		count int32
	}{{"every slot taken", plantFull, 0}, {"count at glyphMax", plantCapped, glyphMax}} {
		for name, src := range rasters {
			for _, q := range qualities {
				want, err := refEncodeSICv2(src, q)
				if err != nil {
					t.Fatalf("%s q=%d: ref: %v", name, q, err)
				}
				plant.fill()
				got, err := EncodeSICWorkers(src, q, 1)
				if err != nil {
					t.Fatalf("%s: %s q=%d: %v", plant.name, name, q, err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("%s: %s q=%d: encoded bytes differ from v2 reference (len %d vs %d)", plant.name, name, q, len(got), len(want))
				}
				for i := range glyphTable {
					if e := glyphTable[i].Load(); e != nil && e.key.quality <= MaxQuality {
						t.Fatalf("%s: %s q=%d: the table stored a real block's key %+v", plant.name, name, q, e.key)
					}
				}
				if n := glyphCount.Load(); n != plant.count {
					t.Fatalf("%s: %s q=%d: count %d after the encode, want %d", plant.name, name, q, n, plant.count)
				}
			}
		}
	}
}

func TestSICEncoderWorkerIdentity(t *testing.T) {
	for name, src := range equivRasters() {
		for _, q := range []int{10, 90} {
			base, err := EncodeSICWorkers(src, q, 1)
			if err != nil {
				t.Fatalf("%s q=%d: %v", name, q, err)
			}
			for _, row := range poolRows {
				undo := row.pin()
				enc, err := EncodeSICWorkers(src, q, row.workers)
				undo()
				if err != nil {
					t.Fatalf("%s q=%d pool=%+v: %v", name, q, row, err)
				}
				if !bytes.Equal(enc, base) {
					t.Fatalf("%s q=%d pool=%+v: bitstream differs from workers=1", name, q, row)
				}
			}
		}
	}
}

// v1Parity is what the frozen v1 float reference codec (deleted with the
// v1 decoder) produced on the equivalence rasters: compressed size and
// PSNR of its own round trip. It is the rate–distortion floor bitstream
// v2 was admitted against, kept as data so a later format change is
// still held to it.
var v1Parity = []struct {
	raster  string
	quality int
	size    int
	psnr    float64
}{
	{"noise", 10, 2004, 10.9935}, {"noise", 50, 6236, 11.9176}, {"noise", 90, 16185, 13.0621},
	{"odd", 10, 563, 21.1696}, {"odd", 50, 1311, 28.1191}, {"odd", 90, 3083, 36.6133},
	{"page", 10, 2984, 21.3462}, {"page", 50, 7420, 29.7449}, {"page", 90, 18075, 41.8500},
	{"solid", 10, 37, 38.5884}, {"solid", 50, 44, 49.8917}, {"solid", 90, 47, math.Inf(1)},
}

func TestSICEncoderParityWithReference(t *testing.T) {
	// Cross-generation parity against the v1 float reference's recorded
	// figures. The v2 bitstream packs tokens tighter than v1's generic
	// layout, so the size check is one-sided: a v2 stream may be freely
	// smaller but must never exceed the v1 reference by more than 2% plus
	// a constant (v2 frames three flate segments where v1 framed one,
	// which costs real bytes only on tiny pages). Quality is statistical —
	// the integer DCT rounds a few boundary coefficients differently — so
	// PSNR within 0.15 dB.
	rasters := equivRasters()
	for _, ref := range v1Parity {
		src := rasters[ref.raster]
		enc, err := EncodeSIC(src, ref.quality)
		if err != nil {
			t.Fatalf("%s q=%d: %v", ref.raster, ref.quality, err)
		}
		if tol := ref.size + ref.size/50 + 192; len(enc) > tol {
			t.Errorf("%s q=%d: size %d vs v1 ref %d (> %d)", ref.raster, ref.quality, len(enc), ref.size, tol)
		}
		dec, err := DecodeSIC(enc)
		if err != nil {
			t.Fatalf("%s q=%d: decode: %v", ref.raster, ref.quality, err)
		}
		if got := psnr(src, dec); got < ref.psnr-0.15 {
			t.Errorf("%s q=%d: PSNR %.2f dB vs v1 ref %.2f dB", ref.raster, ref.quality, got, ref.psnr)
		}
	}
}

func TestSICDecodeErrorsMatchReference(t *testing.T) {
	enc, err := EncodeSIC(testPage(64, 64, 8), 50)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{13, 14, 20, len(enc) / 2, len(enc) - 1} {
		_, refErr := refDecodeSICv2(enc[:cut])
		_, gotErr := DecodeSIC(enc[:cut])
		if (refErr == nil) != (gotErr == nil) {
			t.Errorf("truncated at %d: ref err %v vs %v", cut, refErr, gotErr)
		}
	}
}

func TestSICEncodeDecodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are nondeterministic under the race detector (pool Puts randomly dropped)")
	}
	src := testPage(PageWidth, 400, 3)
	enc, err := EncodeSIC(src, 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeSIC(enc); err != nil {
		t.Fatal(err)
	}
	encAllocs := testing.AllocsPerRun(10, func() {
		if _, err := EncodeSIC(src, 10); err != nil {
			t.Fatal(err)
		}
	})
	// Output buffer growth plus a handful of pool round-trips. The bounds
	// are the counts measured on a 2-vCPU host (encode 14 and decode 29
	// on 45 readings each, at GOMAXPROCS 1, 2 and 4) plus one, so
	// a decoder (band scratch and block memos), a token buffer or a
	// flate coder that is not put back fails them; a per-block slip
	// (the old codec allocated planes, block arrays, and token buffers
	// per call) costs thousands.
	if encAllocs > 15 {
		t.Errorf("EncodeSIC allocates %v objects per call, want <= 15", encAllocs)
	}
	decAllocs := testing.AllocsPerRun(10, func() {
		if _, err := DecodeSIC(enc); err != nil {
			t.Fatal(err)
		}
	})
	if decAllocs > 30 {
		t.Errorf("DecodeSIC allocates %v objects per call, want <= 30", decAllocs)
	}
}

// TestSICDecodeErrorAllocs pins what a warm decode allocates when a
// plane fails: the luma segment is valid, and the Cb segment is either
// valid flate over an invalid block tag (the first band's Cb parse
// fails, before the raster is allocated) or not flate at all
// (the first band's Cb inflate fails). The decoder, with its token
// buffers and flate readers, must go back to its pool on those paths
// too, so a leak reads as a fresh allocation per call. The bounds are
// the counts measured on a 2-vCPU host (1 and 4, on 45 samples each at
// GOMAXPROCS 1, 2 and 4; the error values are all of them) plus one.
func TestSICDecodeErrorAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are nondeterministic under the race detector (pool Puts randomly dropped)")
	}
	enc, err := EncodeSIC(testPage(64, 48, 3), 10)
	if err != nil {
		t.Fatal(err)
	}
	const hdr = 13
	ylen, n := binary.Uvarint(enc[hdr:])
	end := hdr + n + int(ylen)
	luma := enc[:end:end] // header and the Y segment
	badTag, err := deflatePlaneV2(nil, []byte{0xF3})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		cb   []byte // the Cb segment's body; Cr is a copy
		max  float64
	}{
		{"invalid block tag", badTag, 2},
		{"invalid flate block type", []byte{0x07}, 5},
	} {
		bad := luma
		for range 2 {
			bad = appendUvarint(bad, uint64(len(tc.cb)))
			bad = append(bad, tc.cb...)
		}
		decode := func() {
			if _, err := DecodeSIC(bad); err == nil {
				t.Fatalf("%s: decoded", tc.name)
			}
		}
		decode()
		if got := testing.AllocsPerRun(20, decode); got > tc.max {
			t.Errorf("%s: DecodeSIC allocates %v objects per call, want <= %v", tc.name, got, tc.max)
		}
	}
}

func TestSICDecodeConcurrentWorkers(t *testing.T) {
	src := testPage(320, 480, 11)
	enc, err := EncodeSIC(src, 50)
	if err != nil {
		t.Fatal(err)
	}
	want, err := refDecodeSICv2(enc)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wk := 1 + g%4
		go func() {
			for it := 0; it < 4; it++ {
				got, err := DecodeSICWorkers(enc, wk)
				if err != nil {
					done <- err
					return
				}
				if !bytes.Equal(got.Pix, want.Pix) {
					done <- errors.New("concurrent decode diverged from reference")
					return
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestDCOnlyBoundMatchesQuantizer pins the DC-only test
// (planeQuant.dcOnly) against the transform it skips, at every quality
// and for both tables. Each block concentrates its range where the
// bound is tight: a horizontal block puts ±R/2, signed like row u of
// the fixed-point DCT matrix A, in each row where |A[v][y]| is largest
// (sign-flipped with A[v][y]) and leaves the others at the mean; a
// vertical block holds rows constant at ±D/16, signed like A[v][y], so
// (0, v) sees the whole spread D. Ranges and spreads step across each
// threshold up to twice it. Wherever the test says DC-only, the full
// quantizeIntBlock must give no AC and the same DC; and the blocks must
// fall on both sides of it.
func TestDCOnlyBoundMatchesQuantizer(t *testing.T) {
	var a [8][8]float64 // a[k][n], read off intFdct8 as init does
	for n := 0; n < 8; n++ {
		var e [8]int32
		e[n] = 1 << aanFixShift
		intFdct8(&e)
		for k, c := range e {
			a[k][n] = float64(c) / (1 << aanFixShift)
		}
	}
	sign := func(x float64) int32 {
		if x < 0 {
			return -1
		}
		return 1
	}
	var fired, kept int
	check := func(pq *planeQuant, blk *[64]int32, what string) {
		t.Helper()
		var st blockStats
		for y := 0; y < 8; y++ {
			st.addRow(y, (*[8]int32)(blk[y*8:y*8+8]))
		}
		if !pq.dcOnly(&st) {
			kept++
			return
		}
		fired++
		var q [64]int32
		work := *blk
		dc, nz := quantizeIntBlock(&work, &q, pq)
		if want := pq.quantDC(st.sum); nz != 0 || dc != want {
			t.Fatalf("quality %d %s (ranges %d, spread %d; bounds %d, %d): skipped a block whose DCT gives %d AC and DC %d, want 0 AC and DC %d",
				pq.quality, what, st.ranges, st.hi-st.lo, pq.maxRanges, pq.maxSpread, nz, dc, want)
		}
	}
	steps := func(limit int32) []int32 {
		return []int32{limit - 8, limit - 1, limit, limit + 1, limit + 8, limit + limit/4, limit + limit/2, 2*limit - 1}
	}
	for quality := MinQuality; quality <= MaxQuality; quality++ {
		for _, base := range [][64]int{lumaQBase, chromaQBase} {
			qt := quantTable(base, quality)
			pq := newPlaneQuant(&qt, quality)
			offset := int32(quality*40503)%(1<<23) - 1<<22 // exercises the DC
			for u := 1; u < 8; u++ {
				for v := 0; v < 8; v++ {
					var peak []int
					for y := 0; y < 8; y++ {
						if math.Abs(a[v][y]) == aanFixMax[v] {
							peak = append(peak, y)
						}
					}
					for _, ranges := range steps(pq.maxRanges) {
						half := ranges / int32(2*len(peak))
						var blk [64]int32
						for i := range blk {
							blk[i] = offset
						}
						for _, y := range peak {
							for n := 0; n < 8; n++ {
								blk[y*8+n] += sign(a[v][y]) * sign(a[u][n]) * half
							}
						}
						check(&pq, &blk, fmt.Sprintf("horizontal (%d,%d) half-range %d", u, v, half))
					}
				}
			}
			for v := 1; v < 8; v++ {
				for _, spread := range steps(pq.maxSpread) {
					var blk [64]int32
					for y := 0; y < 8; y++ {
						for n := 0; n < 8; n++ {
							blk[y*8+n] = offset + sign(a[v][y])*(spread/16)
						}
					}
					check(&pq, &blk, fmt.Sprintf("vertical (0,%d) step %d", v, spread/16))
				}
			}
		}
	}
	if fired == 0 || kept == 0 {
		t.Fatalf("blocks fell on one side of the bounds only: %d DC-only, %d transformed", fired, kept)
	}
}
