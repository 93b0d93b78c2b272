package imagecodec

import (
	"math"
	"sync/atomic"
)

// Integer encode path. The encoder is fully integer: a 16.16
// fixed-point color transform, a 12-bit fixed-point AAN DCT (int32 adds
// with int64 multiply intermediates), and a 40-bit reciprocal
// quantizer. Edge blocks clamp-replicate the last row/column (luma) and
// scale partial quads to the 4-pixel table range (chroma) — exact, since
// the surviving quad pixel count always divides 4. The decoder is float:
// the quantizer emits plain integers and the bitstream cannot tell which
// arithmetic produced them. The encoder is pinned byte-identical to the
// frozen reference copy in sic_equiv_test.go, and statistically
// (PSNR/size) against recorded figures of a float reference.

// lumaFixShift is the color-transform fixed-point scale (16.16).
const lumaFixShift = 16

// aanFixShift is the DCT constant scale: 12 bits keeps the column-pass
// magnitude (inputs ±128<<16, two x8 passes -> ~2^30) inside int32 while
// the int64 multiply intermediates never overflow.
const aanFixShift = 12

// Fixed-point luma weight tables: yFixR[v] ~= 0.299*v<<16.
var yFixR, yFixG, yFixB [256]int32

// Fixed-point chroma tables over 2x2 quad sums (0..1020): the /4 quad
// mean and the channel coefficient are folded into one table, so a
// chroma sample is three adds. cbFix*[s] ~= (coef/4)*s<<16.
var (
	cbFixR, cbFixG, cbFixB [1021]int32
	crFixR, crFixG, crFixB [1021]int32
)

// Fixed-point AAN butterfly constants.
var (
	aanFixC4   int64
	aanFixC6   int64
	aanFixC2m6 int64
	aanFixC2p6 int64
)

// aanFixL1[k] and aanFixMax[k] are the L1 norm and the largest |entry| of
// row k of A, the linear map intFdct8 computes up to its mulFix
// truncations (aanFdct8's matrix with the 12-bit constants). init reads A
// off intFdct8 itself, fed 4096*e_n: every mulFix then multiplies a
// multiple of 4096 and truncates nothing, so each output over 4096 is an
// entry of A exactly.
var aanFixL1, aanFixMax [8]float64

func init() {
	for v := 0; v < 256; v++ {
		yFixR[v] = int32(math.Round(0.299 * float64(v) * (1 << lumaFixShift)))
		yFixG[v] = int32(math.Round(0.587 * float64(v) * (1 << lumaFixShift)))
		yFixB[v] = int32(math.Round(0.114 * float64(v) * (1 << lumaFixShift)))
	}
	for s := 0; s < 1021; s++ {
		cbFixR[s] = int32(math.Round(cbR4 * float64(s) * (1 << lumaFixShift)))
		cbFixG[s] = int32(math.Round(cbG4 * float64(s) * (1 << lumaFixShift)))
		cbFixB[s] = int32(math.Round(cbB4 * float64(s) * (1 << lumaFixShift)))
		crFixR[s] = int32(math.Round(crR4 * float64(s) * (1 << lumaFixShift)))
		crFixG[s] = int32(math.Round(crG4 * float64(s) * (1 << lumaFixShift)))
		crFixB[s] = int32(math.Round(crB4 * float64(s) * (1 << lumaFixShift)))
	}
	aanFixC4 = int64(math.Round(aanC4 * (1 << aanFixShift)))
	aanFixC6 = int64(math.Round(aanC6 * (1 << aanFixShift)))
	aanFixC2m6 = int64(math.Round(aanC2m6 * (1 << aanFixShift)))
	aanFixC2p6 = int64(math.Round(aanC2p6 * (1 << aanFixShift)))
	for n := 0; n < 8; n++ {
		var e [8]int32
		e[n] = 1 << aanFixShift
		intFdct8(&e)
		for k, c := range e {
			a := math.Abs(float64(c)) / (1 << aanFixShift)
			aanFixL1[k] += a
			aanFixMax[k] = max(aanFixMax[k], a)
		}
	}
}

// mulFix multiplies a 16.16 value by a 12-bit fixed-point constant.
func mulFix(a int32, c int64) int32 {
	return int32((int64(a) * c) >> aanFixShift)
}

// intFdct8 is aanFdct8 on 16.16 fixed point.
func intFdct8(v *[8]int32) {
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
	z1 := mulFix(tmp12+tmp13, aanFixC4)
	v[2] = tmp13 + z1
	v[6] = tmp13 - z1

	tmp10 = tmp4 + tmp5
	tmp11 = tmp5 + tmp6
	tmp12 = tmp6 + tmp7
	z5 := mulFix(tmp10-tmp12, aanFixC6)
	z2 := mulFix(tmp10, aanFixC2m6) + z5
	z4 := mulFix(tmp12, aanFixC2p6) + z5
	z3 := mulFix(tmp11, aanFixC4)
	z11 := tmp7 + z3
	z13 := tmp7 - z3
	v[5] = z13 + z2
	v[3] = z13 - z2
	v[1] = z11 + z4
	v[7] = z11 - z4
}

// intFdctBlock is the separable 2-D intFdct8 on an 8x8 block: rows,
// then columns.
func intFdctBlock(b *[64]int32) {
	for y := 0; y < 8; y++ {
		intFdct8((*[8]int32)(b[y*8 : y*8+8]))
	}
	var col [8]int32
	for x := 0; x < 8; x++ {
		for y := 0; y < 8; y++ {
			col[y] = b[y*8+x]
		}
		intFdct8(&col)
		for y := 0; y < 8; y++ {
			b[y*8+x] = col[y]
		}
	}
}

// intLoadInfo describes one block loaded by the fixed-point path. A
// flat block is one value, first (uncentered for luma, centered for
// chroma). mask/a/b classify two-valued luma blocks (set when two is
// true): bit i of mask is 1 where sample i equals b, 0 where it equals
// a. st holds the filled samples' row statistics, whenever blk was
// filled. class is what an interior luma block's load learned of its
// RGB triples, for the chroma load over the same pixels.
type intLoadInfo struct {
	first int32
	flat  bool
	two   bool
	class blockClass
	mask  uint64
	a, b  int32
	st    blockStats
}

// blockClass is what loadLumaInt learned of an interior 8x8 block's RGB
// triples (an edge block's class is 0). classOne marks a block of one triple, held in the low 24
// bits; classColor marks a block with a pixel whose r, g and b differ;
// classUnseen marks a block whose classification scan stopped before
// every pixel and saw only gray triples. A class with no flag bit is a
// block of gray triples, every one seen. A chroma region derives its
// class from its four quadrants' (loadChromaPairInt), so the chroma
// load re-reads pixels only behind classUnseen.
type blockClass uint32

const (
	classOne blockClass = 1 << (24 + iota)
	classColor
	classUnseen
)

// tripleClass is the class of a block whose pixels are all the triple
// (r, g, b).
func tripleClass(r, g, b byte) blockClass {
	c := classOne | blockClass(r)<<16 | blockClass(g)<<8 | blockClass(b)
	if !gray(r, g, b) {
		c |= classColor
	}
	return c
}

// gray reports whether the triple (r, g, b) is a gray level.
func gray(r, g, b byte) bool { return r == g && r == b }

// blockStats is what the DC-only test (planeQuant.dcOnly) reads of a
// block's centered 16.16 samples, gathered one row at a time as the
// loaders fill it: ranges sums each row's max minus min, lo and hi are
// the smallest and largest row sum, and sum is all 64 samples — the
// fixed-point DCT's DC output exactly. ranges == 0 and lo == hi mean
// every sample is one value.
type blockStats struct {
	ranges, lo, hi, sum int32
}

// addRow folds row y of a block, just filled, into s.
func (s *blockStats) addRow(y int, r *[8]int32) {
	mn, mx, rs := r[0], r[0], r[0]
	for _, v := range r[1:] {
		mn, mx, rs = min(mn, v), max(mx, v), rs+v
	}
	if y == 0 {
		*s = blockStats{lo: rs, hi: rs}
	}
	s.ranges += mx - mn
	s.lo, s.hi, s.sum = min(s.lo, rs), max(s.hi, rs), s.sum+rs
}

// flat reports whether every sample the stats cover is one value.
func (s *blockStats) flat() bool { return s.ranges == 0 && s.lo == s.hi }

// loadLumaIntEdge loads a luma block that overlaps the raster edge,
// replicating the last row and column (JPEG-style padding) in the
// fixed-point domain. Edge blocks are flat when every (clamped) sample
// value matches the first; there is no two-valued classification — the
// handful of edge blocks per raster is not worth a cache key.
func loadLumaIntEdge(r *Raster, blk *[64]int32, info *intLoadInfo, x0, y0 int) {
	w, h := r.W, r.H
	pix := r.Pix
	const center = 128 << lumaFixShift
	var st blockStats
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
			blk[y*8+x] = yFixR[pix[i]] + yFixG[pix[i+1]] + yFixB[pix[i+2]] - center
		}
		st.addRow(y, (*[8]int32)(blk[y*8:y*8+8]))
	}
	*info = intLoadInfo{first: blk[0] + center, flat: st.flat(), st: st}
}

// loadLumaInt classifies and loads one luma block; blocks that overlap
// the raster edge take the clamped-replicate path.
//
// Classification runs on raw RGB triples, which subsumes the uniformity
// memcmp: a block whose pixels are all one triple is flat, a block drawn
// from exactly two triples (rendered text: foreground glyph on solid
// background) is two-valued and returns mask/a/b with blk UNFILLED —
// the glyph cache usually makes the samples unnecessary, and on a miss
// quantizeTwoValued reconstructs them from the mask in 64 stores.
// Everything else (photo blocks bail within a few pixels) takes the
// plain conversion pass.
func loadLumaInt(r *Raster, blk *[64]int32, info *intLoadInfo, bx, by int) {
	w, h := r.W, r.H
	x0, y0 := bx*8, by*8
	if x0+8 > w || y0+8 > h {
		loadLumaIntEdge(r, blk, info, x0, y0)
		return
	}
	pix := r.Pix
	stride := 3 * w
	base := 3 * (y0*w + x0)
	// Solid blocks (the majority on web rasters) resolve via the
	// vectorized row memcmps before the per-triple classification scan.
	ta0, ta1, ta2 := pix[base], pix[base+1], pix[base+2]
	if uniformRegion(pix, base, stride, 8, 8) {
		*info = intLoadInfo{first: yFixR[ta0] + yFixG[ta1] + yFixB[ta2], flat: true, class: tripleClass(ta0, ta1, ta2)}
		return
	}
	// uniformRegion failed, so some pixel differs from the first: the
	// scan always finds a second triple b.
	var tb0, tb1, tb2 byte
	haveB := false
	two := true
	var class blockClass
	var mask uint64
scan:
	for y := 0; y < 8; y++ {
		off := base + y*stride
		row := pix[off : off+24]
		for x := 0; x < 8; x++ {
			p0, p1, p2 := row[3*x], row[3*x+1], row[3*x+2]
			if p0 == ta0 && p1 == ta1 && p2 == ta2 {
				continue
			}
			if !haveB {
				tb0, tb1, tb2 = p0, p1, p2
				haveB = true
			} else if p0 != tb0 || p1 != tb1 || p2 != tb2 {
				two = false
				class = classUnseen
				if !gray(ta0, ta1, ta2) || !gray(tb0, tb1, tb2) || !gray(p0, p1, p2) {
					class = classColor
				}
				break scan
			}
			mask |= 1 << (y*8 + x)
		}
	}
	const center = 128 << lumaFixShift
	if two {
		if !gray(ta0, ta1, ta2) || !gray(tb0, tb1, tb2) {
			class = classColor
		}
		*info = intLoadInfo{
			two:   true,
			class: class,
			mask:  mask,
			a:     yFixR[ta0] + yFixG[ta1] + yFixB[ta2] - center,
			b:     yFixR[tb0] + yFixG[tb1] + yFixB[tb2] - center,
		}
		return
	}
	var st blockStats
	for y := 0; y < 8; y++ {
		off := base + y*stride
		row := (*[24]byte)(pix[off : off+24])
		out := (*[8]int32)(blk[y*8 : y*8+8])
		for x := 0; x < 8; x++ {
			out[x] = yFixR[row[3*x]] + yFixG[row[3*x+1]] + yFixB[row[3*x+2]] - center
		}
		st.addRow(y, out)
	}
	// Not flat even if st says so: an interior luma block is flat only
	// when its RGB triples are one, and one value drawn from distinct
	// triples takes the DCT (here, the DC-only test).
	*info = intLoadInfo{class: class, st: st}
}

// loadChromaIntEdge loads one chroma plane's block when its 16x16
// source region overlaps the raster edge. Samples past the plane edge
// replicate the last row/column; partial 2x2 quads (odd raster
// dimensions leave 2- and 1-pixel quads) scale their sums to the
// 4-pixel range the chroma tables index — exact, since the surviving
// pixel count always divides 4.
func loadChromaIntEdge(r *Raster, cr bool, blk *[64]int32, info *intLoadInfo, bx, by int) {
	w, h := r.W, r.H
	cw, ch := (w+1)/2, (h+1)/2
	x0, y0 := bx*8, by*8
	pix := r.Pix
	tR, tG, tB := &cbFixR, &cbFixG, &cbFixB
	if cr {
		tR, tG, tB = &crFixR, &crFixG, &crFixB
	}
	var st blockStats
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
			blk[y*8+x] = tR[sr*4/n] + tG[sg*4/n] + tB[sb*4/n]
		}
		st.addRow(y, (*[8]int32)(blk[y*8:y*8+8]))
	}
	*info = intLoadInfo{first: blk[0], flat: st.flat(), st: st}
}

// loadChromaPairInt fills one Cb and one Cr block (16.16, centered) from
// one pass over the shared source quads. q holds the classes the luma
// load left for the 16x16 source region's 8x8 quadrants (top left, top
// right, bottom left, bottom right): the region is uniform when all four
// are one same triple, and gray when none saw a colored pixel and the
// quadrants the luma scan left unfinished prove gray. A region that
// overlaps the raster edge repeats its last real quadrant column and row
// in q. It is uniform too when those quadrants are interior luma blocks
// of one triple (the clamped path scales a partial quad's sum to the
// 4-pixel range, so it would compute the same value); otherwise it takes
// the clamped per-plane path.
func loadChromaPairInt(r *Raster, cbBlk, crBlk *[64]int32, cb, cr *intLoadInfo, bx, by int, q *[4]blockClass) {
	if c := q[0]; c&classOne != 0 && c == q[1] && c == q[2] && c == q[3] {
		sr, sg, sb := 4*int(c>>16&0xff), 4*int(c>>8&0xff), 4*int(c&0xff)
		*cb = intLoadInfo{first: cbFixR[sr] + cbFixG[sg] + cbFixB[sb], flat: true}
		*cr = intLoadInfo{first: crFixR[sr] + crFixG[sg] + crFixB[sb], flat: true}
		return
	}
	w, h := r.W, r.H
	x0, y0 := bx*8, by*8
	if 2*(x0+8) > w || 2*(y0+8) > h {
		loadChromaIntEdge(r, false, cbBlk, cb, bx, by)
		loadChromaIntEdge(r, true, crBlk, cr, bx, by)
		return
	}
	pix := r.Pix
	i0 := 3 * (2*y0*w + 2*x0)
	// A gray region has Cb = Cr = 128 up to coefficient rounding: the
	// chroma weights sum to zero, so both planes quantize to DC 0 and no
	// AC energy, which is what the quad sums would compute the long way
	// around. Text is the common case: black-on-white glyph blocks are
	// gray but not uniform.
	if all := q[0] | q[1] | q[2] | q[3]; all&classColor == 0 && (all&classUnseen == 0 || grayQuads(pix, i0, 3*w, q)) {
		*cb = intLoadInfo{flat: true}
		*cr = intLoadInfo{flat: true}
		return
	}
	var cbSt, crSt blockStats
	for y := 0; y < 8; y++ {
		cy := y0 + y
		o0 := 3 * (2*cy*w + 2*x0)
		o1 := o0 + 3*w
		row0 := (*[48]byte)(pix[o0 : o0+48])
		row1 := (*[48]byte)(pix[o1 : o1+48])
		cbRow := (*[8]int32)(cbBlk[y*8 : y*8+8])
		crRow := (*[8]int32)(crBlk[y*8 : y*8+8])
		for x := 0; x < 8; x++ {
			i0 := 6 * x
			i1 := i0 + 3
			sr := int(row0[i0]) + int(row0[i1]) + int(row1[i0]) + int(row1[i1])
			sg := int(row0[i0+1]) + int(row0[i1+1]) + int(row1[i0+1]) + int(row1[i1+1])
			sb := int(row0[i0+2]) + int(row0[i1+2]) + int(row1[i0+2]) + int(row1[i1+2])
			cbRow[x] = cbFixR[sr] + cbFixG[sg] + cbFixB[sb]
			crRow[x] = crFixR[sr] + crFixG[sg] + crFixB[sb]
		}
		cbSt.addRow(y, cbRow)
		crSt.addRow(y, crRow)
	}
	// The chroma tables sum to the sample minus 128 already (no +128
	// bias was added), so the blocks are centered as filled.
	*cb = intLoadInfo{first: cbBlk[0], flat: cbSt.flat(), st: cbSt}
	*cr = intLoadInfo{first: crBlk[0], flat: crSt.flat(), st: crSt}
}

// grayQuads reports whether the quadrants of the 16x16 region at off
// that q marks classUnseen have r == g == b at every pixel.
func grayQuads(pix []byte, off, stride int, q *[4]blockClass) bool {
	for k, c := range q {
		if c&classUnseen == 0 {
			continue
		}
		o := off + (k>>1)*8*stride + (k&1)*24
		for y := 0; y < 8; y++ {
			row := pix[o+y*stride:][:24]
			for x := 0; x < 24; x += 3 {
				if !gray(row[x], row[x+1], row[x+2]) {
					return false
				}
			}
		}
	}
	return true
}

// sicMaskKey identifies a two-valued block up to quantization: the
// foreground mask, the two 16.16 sample values, and the quality that
// selects the luma quantizer (only luma blocks classify as two-valued).
type sicMaskKey struct {
	mask    uint64
	a, b    int32
	quality uint8
}

// sicMaskVal is the cached quantization result: q holds the zigzag
// coefficients with q[0] = DC, nz the surviving AC count, and ac the
// pre-rendered v2 AC token bytes (nz > 0 only) so the serial emitter
// skips the 63-coefficient scan on every cache hit.
type sicMaskVal struct {
	nz int32
	ac []byte
	q  [64]int32
}

// The glyph table memoizes quantized two-valued blocks. Rendered text is
// a small glyph alphabet stamped thousands of times per page, and every
// repeat of a (mask, colors) pair runs the identical fixed-point
// DCT+quantize — so the table returns bit-identical coefficients while
// skipping the transform entirely. It is open-addressed over
// glyphSlots atomic slots, probed at most glyphProbes deep from the
// key's hash, and an entry, once stored, is never replaced, so a lookup
// takes no lock and boxes nothing. Insertion stops at glyphMax entries
// (~2 MB); lookups keep hitting, and a block that finds no room is
// quantized in place, so the bound affects speed only, never bytes.
const (
	glyphBits   = 16
	glyphSlots  = 1 << glyphBits
	glyphProbes = 4
	glyphMax    = 8192
)

// glyphEntry is one stored block: its key and its quantization.
type glyphEntry struct {
	key sicMaskKey
	val sicMaskVal
}

var (
	glyphTable [glyphSlots]atomic.Pointer[glyphEntry]
	glyphCount atomic.Int32 // entries stored, at most glyphMax
)

// slot returns the table index key's probe run starts at.
func (k *sicMaskKey) slot() uint64 {
	h := k.mask*0x9e3779b97f4a7c15 ^ (uint64(uint32(k.a))|uint64(uint32(k.b))<<32)*0xc2b2ae3d27d4eb4f ^ uint64(k.quality)
	h ^= h >> 31
	h *= 0xbf58476d1ce4e5b9
	return h >> (64 - glyphBits)
}

// storeGlyph adds e to the table unless the table holds glyphMax entries
// or e's probe run is full.
func storeGlyph(e *glyphEntry, h uint64) {
	if glyphCount.Add(1) > glyphMax {
		glyphCount.Add(-1)
		return
	}
	for p := uint64(0); p < glyphProbes; p++ {
		s := &glyphTable[(h+p)&(glyphSlots-1)]
		if s.CompareAndSwap(nil, e) {
			return
		}
		if s.Load().key == e.key { // another worker stored it first
			break
		}
	}
	glyphCount.Add(-1)
}

// quantizeTwoValued quantizes a two-valued block through the glyph
// table. blk is scratch: the loader leaves it unfilled for two-valued
// blocks, and on a miss the samples are reconstructed here from the
// mask. A hit or a stored miss leaves b's quantization in b.mv, which is
// shared and must not be written; a block the full table cannot take is
// quantized into b itself.
func quantizeTwoValued(b *sicBlock, blk *[64]int32, info *intLoadInfo, pq *planeQuant) {
	key := sicMaskKey{mask: info.mask, a: info.a, b: info.b, quality: pq.quality}
	h := key.slot()
	for p := uint64(0); p < glyphProbes; p++ {
		e := glyphTable[(h+p)&(glyphSlots-1)].Load()
		if e == nil {
			break
		}
		if e.key == key {
			b.mv = &e.val
			return
		}
	}
	a, c, m := info.a, info.b, info.mask
	for i := 0; i < 64; i++ {
		if m&(1<<i) != 0 {
			blk[i] = c
		} else {
			blk[i] = a
		}
	}
	if glyphCount.Load() >= glyphMax {
		b.mv = nil
		dc, nz := quantizeIntBlock(blk, &b.q, pq)
		b.flat, b.q[0] = nz == 0, int32(dc)
		return
	}
	e := &glyphEntry{key: key}
	v := &e.val
	dc, nz := quantizeIntBlock(blk, &v.q, pq)
	v.q[0] = int32(dc)
	v.nz = int32(nz)
	if nz > 0 {
		v.ac = appendACv2(nil, &v.q)
	}
	storeGlyph(e, h)
	b.mv = v
}

// flatDCFix quantizes a flat block's DC from its 16.16 sample value:
// Round((sample-128)*8/qf0), with the luma center already subtracted
// for chroma tables (they encode sample-128 directly).
func flatDCFix(first int32, centered bool, qf0 float64) int {
	v := float64(first) / (1 << lumaFixShift)
	if !centered {
		v -= 128
	}
	return int(math.Round(v * 8 / qf0))
}

// quantQShift is the fixed-point quantizer reciprocal scale. 40 bits
// keeps the smallest reciprocal (quality 0, largest divisor) at ~2^10
// so rounding error stays far below half a quantizer step, while the
// largest product (|coef| ~2^30 x reciprocal ~2^21) fits int64.
const quantQShift = 40

// quantizeIntBlock runs the fixed-point DCT and quantizes into q,
// returning the DC and the non-zero AC count. The quantizer is pure
// integer: multiply by the 40-bit reciprocal, add half, arithmetic
// shift — round-half-up, pinned by the frozen reference copy.
func quantizeIntBlock(blk *[64]int32, q *[64]int32, pq *planeQuant) (dc, nz int) {
	intFdctBlock(blk)
	const half = int64(1) << (quantQShift - 1)
	dc = pq.quantDC(blk[0])
	for i := 1; i < 64; i++ {
		c := blk[zigzag[i]]
		if zb := pq.zb[i]; c <= zb && c >= -zb {
			q[i] = 0
			continue
		}
		v := (int64(c)*pq.invQ[i] + half) >> quantQShift
		q[i] = int32(v)
		if v != 0 {
			nz++
		}
	}
	return dc, nz
}
