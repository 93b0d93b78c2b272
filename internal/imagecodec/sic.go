package imagecodec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"sync"
)

// SIC (Sonic Image Codec) is the WebP substitute: a lossy block-transform
// codec with WebP's quality scale (0 worst .. 95 best). The pipeline is
// RGB -> YCbCr 4:2:0 -> 8x8 DCT -> quality-scaled quantization -> zigzag
// run-length tokens -> DEFLATE. Quality drives the quantizer exactly the
// way the paper drives WebP's -q flag for Figure 4(b).

const sicMagic = "SIC1"

// Quality bounds from the paper: "WebP image quality is defined on a
// scale from 0 (worst) to 95 (best)".
const (
	MinQuality = 0
	MaxQuality = 95
)

// Standard JPEG base quantization tables (Annex K), reused as SIC's rate
// control surface.
var lumaQBase = [64]int{
	16, 11, 10, 16, 24, 40, 51, 61,
	12, 12, 14, 19, 26, 58, 60, 55,
	14, 13, 16, 24, 40, 57, 69, 56,
	14, 17, 22, 29, 51, 87, 80, 62,
	18, 22, 37, 56, 68, 109, 103, 77,
	24, 35, 55, 64, 81, 104, 113, 92,
	49, 64, 78, 87, 103, 121, 120, 101,
	72, 92, 95, 98, 112, 100, 103, 99,
}

var chromaQBase = [64]int{
	17, 18, 24, 47, 99, 99, 99, 99,
	18, 21, 26, 66, 99, 99, 99, 99,
	24, 26, 56, 99, 99, 99, 99, 99,
	47, 66, 99, 99, 99, 99, 99, 99,
	99, 99, 99, 99, 99, 99, 99, 99,
	99, 99, 99, 99, 99, 99, 99, 99,
	99, 99, 99, 99, 99, 99, 99, 99,
	99, 99, 99, 99, 99, 99, 99, 99,
}

// zigzag maps scan order to block position.
var zigzag = [64]int{
	0, 1, 8, 16, 9, 2, 3, 10,
	17, 24, 32, 25, 18, 11, 4, 5,
	12, 19, 26, 33, 40, 48, 41, 34,
	27, 20, 13, 6, 7, 14, 21, 28,
	35, 42, 49, 56, 57, 50, 43, 36,
	29, 22, 15, 23, 30, 37, 44, 51,
	58, 59, 52, 45, 38, 31, 39, 46,
	53, 60, 61, 54, 47, 55, 62, 63,
}

// quantTable scales a base table by the JPEG quality mapping.
func quantTable(base [64]int, quality int) [64]int {
	if quality < MinQuality {
		quality = MinQuality
	}
	if quality > MaxQuality {
		quality = MaxQuality
	}
	// Map SIC quality (0..95) onto the JPEG 1..100 scale region.
	q := quality + 5
	var scale int
	if q < 50 {
		scale = 5000 / q
	} else {
		scale = 200 - 2*q
	}
	var out [64]int
	for i, b := range base {
		v := (b*scale + 50) / 100
		if v < 1 {
			v = 1
		}
		if v > 255 {
			v = 255
		}
		out[i] = v
	}
	return out
}

var dctCos [8][8]float64

// Orthonormal DCT scale factors, hoisted out of the transform inner
// loops (the old code recomputed the square roots per coefficient).
var (
	dctScale0 = math.Sqrt(1.0 / 8)
	dctScaleK = math.Sqrt(2.0 / 8)
)

// AAN (Arai-Agui-Nakajima) butterfly constants: cos(4pi/16),
// cos(6pi/16), and the sum/difference of cos(2pi/16) and cos(6pi/16).
var (
	aanC4   = math.Cos(4 * math.Pi / 16)
	aanC6   = math.Cos(6 * math.Pi / 16)
	aanC2m6 = math.Cos(2*math.Pi/16) - math.Cos(6*math.Pi/16)
	aanC2p6 = math.Cos(2*math.Pi/16) + math.Cos(6*math.Pi/16)
)

// aanScale1D[k] maps aanFdct8's scaled output back to the orthonormal
// basis of fdct8; aanScale2D is its separable 2-D product by block
// position. Both are calibrated in init by transforming one generic
// probe vector through both transforms (the transforms are linear and
// differ by a diagonal scale, so any probe with non-zero coefficients
// determines the ratios).
var (
	aanScale1D [8]float64
	aanScale2D [64]float64
)

// Chroma transform coefficients with the 2x2 quad mean's /4 folded in:
// c/4 is exact (exponent decrement) and (c/4)*s rounds identically to
// c*(s/4), so applying these to the integer quad sum is bit-identical
// to averaging first. Subtraction becomes addition of the negated
// coefficient, which IEEE-754 defines as the same operation.
const (
	cbR4 = -0.168736 / 4
	cbG4 = -0.331264 / 4
	cbB4 = 0.5 / 4
	crR4 = 0.5 / 4
	crG4 = -0.418688 / 4
	crB4 = -0.081312 / 4
)

func init() {
	for k := 0; k < 8; k++ {
		for n := 0; n < 8; n++ {
			dctCos[k][n] = math.Cos(math.Pi * float64(k) * (2*float64(n) + 1) / 16)
		}
	}
	probe := [8]float64{1, 2, 4, 8, 16, 32, 64, 128}
	exact, scaled := probe, probe
	fdct8(&exact)
	aanFdct8(&scaled)
	for k := range aanScale1D {
		aanScale1D[k] = exact[k] / scaled[k]
	}
	for p := range aanScale2D {
		aanScale2D[p] = aanScale1D[p/8] * aanScale1D[p%8]
	}
}

// fdct8 performs an in-place 1-D forward DCT-II on 8 values, orthonormal:
// X_k = c_k * sum_n x_n cos(..), with c_0 = sqrt(1/8) and c_k = sqrt(2/8).
func fdct8(v *[8]float64) {
	var out [8]float64
	for k := 0; k < 8; k++ {
		c := &dctCos[k]
		var s float64
		s += v[0] * c[0]
		s += v[1] * c[1]
		s += v[2] * c[2]
		s += v[3] * c[3]
		s += v[4] * c[4]
		s += v[5] * c[5]
		s += v[6] * c[6]
		s += v[7] * c[7]
		if k == 0 {
			out[k] = s * dctScale0
		} else {
			out[k] = s * dctScaleK
		}
	}
	*v = out
}

// idct8 performs the inverse of fdct8.
func idct8(v *[8]float64) {
	var out [8]float64
	for k := 0; k < 8; k++ {
		x := dctScaleK * v[k]
		if k == 0 {
			x = dctScale0 * v[k]
		}
		c := &dctCos[k]
		out[0] += x * c[0]
		out[1] += x * c[1]
		out[2] += x * c[2]
		out[3] += x * c[3]
		out[4] += x * c[4]
		out[5] += x * c[5]
		out[6] += x * c[6]
		out[7] += x * c[7]
	}
	*v = out
}

// aanFdct8 is the AAN scaled forward DCT: 29 additions and 5 multiplies
// against fdct8's 64 multiply-adds. Its outputs are the orthonormal
// coefficients divided by aanScale1D, which the quantizer folds into its
// per-coefficient multiplier — so the transform itself never rescales.
func aanFdct8(v *[8]float64) {
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
	z1 := (tmp12 + tmp13) * aanC4
	v[2] = tmp13 + z1
	v[6] = tmp13 - z1

	tmp10 = tmp4 + tmp5
	tmp11 = tmp5 + tmp6
	tmp12 = tmp6 + tmp7
	z5 := (tmp10 - tmp12) * aanC6
	z2 := aanC2m6*tmp10 + z5
	z4 := aanC2p6*tmp12 + z5
	z3 := tmp11 * aanC4
	z11 := tmp7 + z3
	z13 := tmp7 - z3
	v[5] = z13 + z2
	v[3] = z13 - z2
	v[1] = z11 + z4
	v[7] = z11 - z4
}

// idctBlock applies the separable 2-D inverse DCT to an 8x8 block.
func idctBlock(b *[64]float64) {
	var row [8]float64
	for x := 0; x < 8; x++ {
		for y := 0; y < 8; y++ {
			row[y] = b[y*8+x]
		}
		idct8(&row)
		for y := 0; y < 8; y++ {
			b[y*8+x] = row[y]
		}
	}
	for y := 0; y < 8; y++ {
		copy(row[:], b[y*8:y*8+8])
		idct8(&row)
		copy(b[y*8:y*8+8], row[:])
	}
}

// plane is one color component.
type plane struct {
	w, h int
	pix  []float64
}

// bytesPool recycles the encoder's token and flate buffers (the decoder
// keeps its token buffers with itself in decoderPool).
var bytesPool = sync.Pool{New: func() any { return new([]byte) }}

func getBytes() *[]byte { return bytesPool.Get().(*[]byte) }

func putBytes(p *[]byte) { bytesPool.Put(p) }

// blocksPool recycles the band of quantized blocks the encoder works
// through. Blocks are not zeroed on reuse; the encoder writes every
// field it later reads. The pool holds the *[]sicBlock
// itself, so a round trip allocates nothing.
var blocksPool = sync.Pool{New: func() any { return new([]sicBlock) }}

func getBlocks(n int) *[]sicBlock {
	p := blocksPool.Get().(*[]sicBlock)
	if cap(*p) < n {
		*p = make([]sicBlock, n)
	}
	*p = (*p)[:n]
	return p
}

func putBlocks(p *[]sicBlock) { blocksPool.Put(p) }

// The per-block stages (load, classify, DCT and quantize on encode;
// dequantize, IDCT, store and color conversion on decode) work on a band
// of bandRows block rows at a time, split across workers by
// parallel.For; the serial stages (token emission, token parsing) walk
// each band in scan order between them. Every block's result depends
// only on its own pixels or tokens, so the output is the same at any
// worker count, and the scratch is one band (~0.6 MB of blocks for a
// 1080-wide page) however tall the page is.
const (
	bandRows       = 16
	minChunkBlocks = 256 // fewest blocks worth a goroutine
)

// uniformRegion reports whether the w-pixel-wide, rows-deep RGB region
// whose top-left byte offset is off is a single solid color. One
// shifted self-compare proves the first row constant; the remaining
// rows memcmp against it.
func uniformRegion(pix []byte, off, stride, w, rows int) bool {
	n := 3 * w
	row0 := pix[off : off+n]
	if !bytes.Equal(row0[3:], row0[:n-3]) {
		return false
	}
	for y := 1; y < rows; y++ {
		if !bytes.Equal(pix[off+y*stride:off+y*stride+n], row0) {
			return false
		}
	}
	return true
}

// toRGBRows converts rows [lo, hi) of one decode band's planes into
// dst, the band's rows of the output raster; the band starts on an even
// row, so band row y reads band chroma row y/2. Each chroma sample
// covers two output pixels, so the chroma products are computed once per
// pair (the per-pixel expressions keep the original association, so the
// rounding is unchanged).
func toRGBRows(yp, cb, cr *plane, dst []byte, lo, hi int) {
	w, cw := yp.w, cb.w
	for y := lo; y < hi; y++ {
		yrow := yp.pix[y*w : (y+1)*w]
		crow := (y / 2) * cw
		cbrow := cb.pix[crow : crow+cw]
		crrow := cr.pix[crow : crow+cw]
		orow := dst[3*y*w : 3*(y+1)*w]
		// Run-stamped pixel conversion: web rasters are dominated by
		// constant runs, where one conversion covers the whole run and
		// the output bytes are stamped with a doubling copy. Chroma runs
		// are found first (one compare per sample pair), then luma runs
		// within them (one compare per pixel). Every pixel in a run has
		// identical inputs, so the output is unchanged for any worker
		// count.
		for x := 0; x < w; {
			ci := x >> 1
			cbv, crv := cbrow[ci], crrow[ci]
			ce := ci + 1
			for ce < cw && cbrow[ce] == cbv && crrow[ce] == crv {
				ce++
			}
			xe := 2 * ce
			if xe > w {
				xe = w
			}
			cbb := cbv - 128
			crr := crv - 128
			rAdd := 1.402 * crr
			gSub1 := 0.344136 * cbb
			gSub2 := 0.714136 * crr
			bAdd := 1.772 * cbb
			for x < xe {
				yy := yrow[x]
				x2 := x + 1
				for x2 < xe && yrow[x2] == yy {
					x2++
				}
				r8 := clamp8(yy + rAdd)
				g8 := clamp8(yy - gSub1 - gSub2)
				b8 := clamp8(yy + bAdd)
				seg := orow[3*x : 3*x2]
				seg[0], seg[1], seg[2] = r8, g8, b8
				for filled := 3; filled < len(seg); filled *= 2 {
					copy(seg[filled:], seg[:filled])
				}
				x = x2
			}
		}
	}
}

func clamp8(v float64) uint8 {
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return uint8(v + 0.5)
}

// appendVarint appends a zigzag-encoded signed varint, matching
// binary.PutVarint's byte layout.
func appendVarint(dst []byte, v int) []byte {
	u := uint64(v) << 1
	if v < 0 {
		u = ^u
	}
	return appendUvarint(dst, u)
}

// byteCursor is a zero-allocation reader over the token stream, standing
// in for bytes.Reader on the decode hot path.
type byteCursor struct {
	b []byte
	i int
}

func (c *byteCursor) readByte() (byte, error) {
	if c.i >= len(c.b) {
		return 0, io.EOF
	}
	v := c.b[c.i]
	c.i++
	return v, nil
}

var errVarintOverflow = errors.New("imagecodec: varint overflows a 64-bit integer")

// readVarint reads a zigzag-encoded signed varint, with readUvarint's
// errors.
func (c *byteCursor) readVarint() (int, error) {
	u, err := c.readUvarint()
	return int(u>>1) ^ -int(u&1), err
}

// sicBlock is one 8x8 block's quantized coefficients in zigzag order, as
// the encoder produces them. flat marks constant blocks, where only q[0]
// is meaningful. A two-valued block carries its glyph-cache entry in mv
// instead of q, so the emitter reuses the entry's pre-rendered AC
// tokens. The decoder parses into decBlock.
type sicBlock struct {
	flat  bool
	class blockClass // a luma block's, for the chroma region over it
	mv    *sicMaskVal
	q     [64]int32
}

// planeQuant is the per-plane quantization state. qf0 is the DC divisor
// used by the flat-block shortcut; invQ[i] folds the AAN descaling and
// the quantizer divisor for zigzag index i into one integer reciprocal,
// so quantizing one coefficient is a zero test and (rarely) a multiply
// and a shift.
type planeQuant struct {
	qf0     float64
	quality uint8
	invQ    [64]int64
	// zb[i] is the largest |coefficient| guaranteed to quantize to
	// zero at zigzag index i: |c| <= zb ensures c*invQ+half stays in
	// [0, 2^quantQShift), so the quantize loop can skip the 64-bit
	// multiply for the (dominant) zero case.
	zb [64]int32
	// maxRanges and maxSpread bound a block's blockStats: within both,
	// every AC coefficient of its fixed-point DCT is within zb (see
	// dcOnly).
	maxRanges, maxSpread int32
}

// aanFixSlack bounds how far one intFdct8 output strays from the
// linear map A it truncates: an output adds at most three mulFix
// results, each floored by less than 1.
const aanFixSlack = 3

// dcOnly reports whether a block with these statistics quantizes to DC
// alone, so its DCT can be skipped; its DC is then quantDC(st.sum), the
// same value quantizeIntBlock would return. The bound, with A's rows
// k >= 1 summing to zero (a constant row has no AC), L1[k] and Max[k]
// their L1 norm and largest |entry| (aanFixL1, aanFixMax), s = 3 the
// slack (aanFixSlack) and R_y row y's range:
//
//   - The row pass feeds differences of samples to every mulFix, so
//     row y's AC output u >= 1 is A[u]·(x - mid) within s, at most
//     L1[u]/2·R_y + s. Coefficient (u, v) of the column pass is then
//     at most Max[v]·Σ_y(L1[u]/2·R_y + s) + s, which is
//     Max[v]·(L1[u]/2·ranges + 8s) + s.
//   - Column u = 0 holds the row sums, exact (v[0] = tmp10 + tmp11),
//     so coefficient (0, v >= 1) is at most
//     L1[v]/2·(hi - lo) + s.
//
// newPlaneQuant solves each for the largest ranges and spread that
// keep every coefficient within its zb, and keeps the least.
func (pq *planeQuant) dcOnly(st *blockStats) bool {
	return st.ranges <= pq.maxRanges && st.hi-st.lo <= pq.maxSpread
}

// quantDC quantizes a DC output (the sum of the block's centered 16.16
// samples).
func (pq *planeQuant) quantDC(sum int32) int {
	const half = int64(1) << (quantQShift - 1)
	return int((int64(sum)*pq.invQ[0] + half) >> quantQShift)
}

func newPlaneQuant(qt *[64]int, quality int) planeQuant {
	var pq planeQuant
	pq.qf0 = float64(qt[0])
	pq.quality = uint8(quality)
	for i := 0; i < 64; i++ {
		p := zigzag[i]
		inv := aanScale2D[p] / float64(qt[p])
		// invQ folds the 16.16 input scale of the fixed-point DCT and
		// the 40-bit quantizer scale into one integer reciprocal.
		pq.invQ[i] = int64(math.Round(inv / (1 << lumaFixShift) * (1 << quantQShift)))
		if pq.invQ[i] > 0 {
			half := int64(1) << (quantQShift - 1)
			pq.zb[i] = int32((half - 1) / pq.invQ[i])
		}
	}
	pq.maxRanges, pq.maxSpread = math.MaxInt32, math.MaxInt32
	for i := 1; i < 64; i++ {
		u, v := zigzag[i]%8, zigzag[i]/8
		z := float64(pq.zb[i]) - aanFixSlack
		if u > 0 {
			pq.maxRanges = min(pq.maxRanges, floorLimit((z/aanFixMax[v]-8*aanFixSlack)*2/aanFixL1[u]))
		} else {
			pq.maxSpread = min(pq.maxSpread, floorLimit(z*2/aanFixL1[v]))
		}
	}
	return pq
}

// floorLimit is the largest integer safely below the real limit t,
// with one unit to spare for t's float rounding; -1 when t < 0.
func floorLimit(t float64) int32 {
	return int32(max(math.Floor(t)-1, -1))
}

// storeBlock writes a reconstructed block (already centered back to
// 0..255) into the plane, clipping to the plane bounds.
func storeBlock(p *plane, blk *[64]float64, bx, by int) {
	x0, y0 := bx*8, by*8
	n := min(8, p.w-x0)
	for y := range min(8, p.h-y0) {
		copy(p.pix[(y0+y)*p.w+x0:][:n], blk[y*8:][:n])
	}
}

// storeFlat fills the block's region with a constant value.
func storeFlat(p *plane, v float64, bx, by int) {
	w, h := p.w, p.h
	if bx*8+8 <= w && by*8+8 <= h {
		row0 := p.pix[by*8*w+bx*8:]
		row0 = row0[:8]
		for x := 0; x < 8; x++ {
			row0[x] = v
		}
		for y := 1; y < 8; y++ {
			copy(p.pix[(by*8+y)*w+bx*8:(by*8+y)*w+bx*8+8], row0)
		}
		return
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
			p.pix[py*w+px] = v
		}
	}
}

// The codec's compute stages (per-block DCT/quantize, color conversion)
// are data-parallel; the entropy stages (DC prediction, token emission,
// DEFLATE) are serial chains. The *Workers
// entry points split only the compute stages across goroutines, so the
// emitted bytes do not depend on the worker count.

// poolSize maps a *Workers argument to a pool size: a positive count is
// taken as given, anything else means one worker per GOMAXPROCS.
func poolSize(workers int) int {
	if workers > 0 {
		return workers
	}
	return runtime.GOMAXPROCS(0)
}

// EncodeSIC compresses the raster at the given quality (0-95) on
// GOMAXPROCS workers.
func EncodeSIC(r *Raster, quality int) ([]byte, error) {
	return EncodeSICWorkers(r, quality, 0)
}

// EncodeSICWorkers is EncodeSIC with an explicit worker count for the
// data-parallel stages (per-block load/DCT/quantize, per-plane
// compression). workers <= 0 selects GOMAXPROCS. The output is
// byte-identical for every worker count: tokens are emitted in scan
// order, and each plane's DC prediction chain restarts at zero, so the
// three planes compress independently. The emitted stream is bitstream
// v2, the packed per-plane layout described in sicv2.go.
func EncodeSICWorkers(r *Raster, quality, workers int) ([]byte, error) {
	if r == nil || r.W < 1 || r.H < 1 {
		return nil, ErrEmptyRaster
	}
	if quality < MinQuality || quality > MaxQuality {
		return nil, fmt.Errorf("imagecodec: quality %d out of [%d,%d]", quality, MinQuality, MaxQuality)
	}
	return encodeSICV2(r, quality, poolSize(workers))
}

// DecodeSIC decompresses a SIC bitstream on GOMAXPROCS workers.
func DecodeSIC(data []byte) (*Raster, error) {
	return DecodeSICWorkers(data, 0)
}

// DecodeSICWorkers is DecodeSIC with an explicit worker count for the
// data-parallel stages (dequantize/IDCT, color reassembly). workers <= 0
// selects GOMAXPROCS. The reconstruction is identical for every
// worker count. The version byte is validated: only the emitted
// generation — v2 ("SIC2", per-plane flate over the packed layout in
// sicv2.go) — is decoded, and any other version byte, the retired v1
// included, is rejected explicitly. The header's dimensions are checked
// before anything is sized from them: a raster larger than the largest
// page the server renders (PageWidth x MaxPageHeight) is refused, so a
// forged header cannot make the decoder allocate gigabytes.
func DecodeSICWorkers(data []byte, workers int) (*Raster, error) {
	if len(data) < 13 || string(data[0:3]) != sicMagic[:3] {
		return nil, errors.New("imagecodec: not a SIC stream")
	}
	if data[3] != '2' {
		return nil, fmt.Errorf("imagecodec: unsupported SIC version %q", data[3])
	}
	w := int(binary.BigEndian.Uint32(data[4:8]))
	h := int(binary.BigEndian.Uint32(data[8:12]))
	quality := int(data[12])
	if w < 1 || h < 1 || w > 1<<15 || h > 1<<20 {
		return nil, errors.New("imagecodec: implausible SIC dimensions")
	}
	if w*h > PageWidth*MaxPageHeight {
		return nil, fmt.Errorf("imagecodec: SIC raster %dx%d is larger than the largest page", w, h)
	}
	return decodeSICV2(data[13:], w, h, quality, poolSize(workers))
}
