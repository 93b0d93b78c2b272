package imagecodec

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"

	"sonic/internal/parallel"
)

// SIC bitstream v2 is a codec-aware entropy stage over the same quantized
// coefficients as v1. Where v1 ran generic DEFLATE at DefaultCompression
// over a (varint dcDelta, (runByte, varint value)*, 0xFF) token stream,
// v2 restructures the tokens so the stream is already close to its
// entropy before flate sees it, then runs a fast flate level:
//
//	header:  "SIC2" | W u32 BE | H u32 BE | quality u8
//	body:    3 plane segments (Y, Cb, Cr), each
//	         uvarint(compressedLen) | flate(packed plane tokens)
//
// Packed plane grammar, in block scan order:
//
//	0x00..0xEF  run of (tag+1) flat blocks whose DC equals the previous
//	            block's DC (the dominant symbol on web rasters: flat
//	            background continuing at the same value)
//	0xF0        long flat run: uvarint(n) blocks, same-DC flat
//	0xF1        one flat block with a DC step: varint(dcDelta)
//	0xF2        coded block: varint(dcDelta) then AC tokens
//
// AC tokens for a coded block (zigzag indices 1..63):
//
//	0x00..0xDF  packed (run, value): run = b/14 in 0..15, value from
//	            b%14 in {-7..-1, +1..+7} — one byte for the overwhelming
//	            majority of (short run, small value) pairs v1 spent a
//	            run byte plus a varint on
//	0xFD        escape: uvarint(run), varint(value)
//	0xFE        end of block
//
// A block whose quantized ACs are all zero is flat *for entropy
// purposes* regardless of how it was loaded: the decoder reconstructs a
// DC-only block as a constant fill either way, so v2 folds those blocks
// into the flat-run alphabet. The quantized coefficients are the ones v1
// carried — the bump changed the entropy stage only — and v1 itself is
// retired: DecodeSIC rejects its version byte.
const sicMagicV2 = "SIC2"

const (
	v2TagRunMax  = 0xEF // inline flat-run tag: run length = tag+1 (1..240)
	v2TagLongRun = 0xF0
	v2TagFlatDC  = 0xF1
	v2TagCoded   = 0xF2

	v2ACEscape = 0xFD
	v2ACEnd    = 0xFE

	v2ACMaxRun = 15 // max zero-run in a packed AC byte
	v2ACVals   = 14 // packed values per run: -7..-1, +1..+7
)

// sicV2FlateLevel is the flate level for the per-plane streams. The
// packed token layout has already collapsed the long flat runs that
// DefaultCompression spent its window on, so a fast level recovers
// nearly all of the ratio at a fraction of the cost (measured on the
// corpus probe page; see DESIGN.md §5c).
const sicV2FlateLevel = 2

// appendUvarint appends an unsigned varint in binary.PutUvarint layout.
func appendUvarint(dst []byte, u uint64) []byte {
	for u >= 0x80 {
		dst = append(dst, byte(u)|0x80)
		u >>= 7
	}
	return append(dst, byte(u))
}

// readUvarint reads an unsigned varint, mirroring readVarint's error
// behavior (io.EOF at a token boundary, io.ErrUnexpectedEOF mid-varint).
func (c *byteCursor) readUvarint() (uint64, error) {
	var u uint64
	var shift uint
	for n := 0; ; n++ {
		if c.i >= len(c.b) {
			if n > 0 {
				return 0, io.ErrUnexpectedEOF
			}
			return 0, io.EOF
		}
		b := c.b[c.i]
		c.i++
		if b < 0x80 {
			if n == 9 && b > 1 {
				return 0, errVarintOverflow
			}
			return u | uint64(b)<<shift, nil
		}
		if n == 9 {
			return 0, errVarintOverflow
		}
		u |= uint64(b&0x7f) << shift
		shift += 7
	}
}

// v2Emitter carries one plane's serial emission state: the DC prediction
// chain and the pending same-DC flat run.
type v2Emitter struct {
	dst    []byte
	prevDC int
	run    int
}

// flushRun emits the pending flat run, if any.
func (e *v2Emitter) flushRun() {
	if e.run == 0 {
		return
	}
	if e.run <= v2TagRunMax+1 {
		e.dst = append(e.dst, byte(e.run-1))
	} else {
		e.dst = append(e.dst, v2TagLongRun)
		e.dst = appendUvarint(e.dst, uint64(e.run))
	}
	e.run = 0
}

// emitFlat emits one flat (DC-only) block.
func (e *v2Emitter) emitFlat(dc int) {
	if dc == e.prevDC {
		e.run++
		return
	}
	e.flushRun()
	e.dst = append(e.dst, v2TagFlatDC)
	e.dst = appendVarint(e.dst, dc-e.prevDC)
	e.prevDC = dc
}

// appendACv2 renders q's AC coefficients (zigzag 1..63) as packed v2
// AC tokens, including the end-of-block marker. Shared by emitCoded and
// the glyph cache's pre-rendered token path — the bytes must match.
func appendACv2(dst []byte, q *[64]int32) []byte {
	run := 0
	for i := 1; i < 64; i++ {
		v := q[i]
		if v == 0 {
			run++
			continue
		}
		if run <= v2ACMaxRun && v >= -7 && v <= 7 {
			vi := int(v) + 7
			if v > 0 {
				vi = int(v) + 6
			}
			dst = append(dst, byte(run*v2ACVals+vi))
		} else {
			dst = append(dst, v2ACEscape)
			dst = appendUvarint(dst, uint64(run))
			dst = appendVarint(dst, int(v))
		}
		run = 0
	}
	return append(dst, v2ACEnd)
}

// emitCoded emits one block with at least one non-zero AC coefficient.
func (e *v2Emitter) emitCoded(dc int, q *[64]int32) {
	e.flushRun()
	e.dst = append(e.dst, v2TagCoded)
	e.dst = appendVarint(e.dst, dc-e.prevDC)
	e.prevDC = dc
	e.dst = appendACv2(e.dst, q)
}

// emitCodedAC emits one coded block whose AC tokens are already
// rendered (the glyph cache path); only the DC delta is block-specific.
func (e *v2Emitter) emitCodedAC(dc int, ac []byte) {
	e.flushRun()
	e.dst = append(e.dst, v2TagCoded)
	e.dst = appendVarint(e.dst, dc-e.prevDC)
	e.prevDC = dc
	e.dst = append(e.dst, ac...)
}

// emitBlock emits one quantized block: blocks with no surviving AC energy
// join the flat-run alphabet, everything else is coded.
func (e *v2Emitter) emitBlock(b *sicBlock) {
	switch {
	case b.mv != nil && b.mv.nz > 0:
		e.emitCodedAC(int(b.mv.q[0]), b.mv.ac)
	case b.mv != nil:
		e.emitFlat(int(b.mv.q[0]))
	case b.flat:
		e.emitFlat(int(b.q[0]))
	default:
		e.emitCoded(int(b.q[0]), &b.q)
	}
}

// quantizeBlock is the encoder's per-block stage after loading: a flat
// block quantizes its DC directly (first is its sample value), anything
// else runs the fixed-point DCT and quantizer.
func quantizeBlock(b *sicBlock, blk *[64]int32, first int32, flat, centered bool, dupRows uint8, pq *planeQuant, memo *flatMemo) {
	b.mv = nil
	if flat {
		b.flat, b.q[0] = true, memo.flatDC(first, centered, pq.qf0)
		return
	}
	dc, nz := quantizeIntBlock(blk, &b.q, pq, dupRows)
	b.flat, b.q[0] = nz == 0, int32(dc)
}

// encodeLumaTokensV2 appends the luma plane's packed v2 token stream to
// dst, one band of blocks at a time: workers load (straight from the RGB
// raster, so no float plane is built), classify and quantize the band,
// then the emitter walks it in scan order.
func encodeLumaTokensV2(dst []byte, r *Raster, qt *[64]int, quality, workers int) []byte {
	bw, bh := (r.W+7)/8, (r.H+7)/8
	pq := newPlaneQuant(qt, quality)
	e := v2Emitter{dst: dst}
	bp := getBlocks(bandRows * bw)
	var band []sicBlock
	by0 := 0
	quantize := func(lo, hi int) {
		var blk [64]int32
		var info intLoadInfo
		var memo flatMemo
		bx, by := lo%bw, by0+lo/bw
		for i := lo; i < hi; i++ {
			loadLumaInt(r, &blk, &info, bx, by)
			if info.two {
				band[i].mv = quantizeTwoValued(&blk, &info, &pq)
			} else {
				quantizeBlock(&band[i], &blk, info.first, info.flat, false, info.dupRows, &pq, &memo)
			}
			if bx++; bx == bw {
				bx, by = 0, by+1
			}
		}
	}
	for ; by0 < bh; by0 += bandRows {
		band = (*bp)[:min(bandRows, bh-by0)*bw]
		parallel.For(workers, len(band), minChunkBlocks, quantize)
		for i := range band {
			e.emitBlock(&band[i])
		}
	}
	putBlocks(bp)
	e.flushRun()
	return e.dst
}

// encodeChromaTokensPairV2 appends the Cb and Cr token streams to cbDst
// and crDst. The planes share their source quads, so one load per block
// position fills a Cb band and a Cr band together.
func encodeChromaTokensPairV2(cbDst, crDst []byte, r *Raster, qt *[64]int, quality, workers int) ([]byte, []byte) {
	bw, bh := ((r.W+1)/2+7)/8, ((r.H+1)/2+7)/8
	pq := newPlaneQuant(qt, quality)
	cbE, crE := v2Emitter{dst: cbDst}, v2Emitter{dst: crDst}
	bp := getBlocks(2 * bandRows * bw)
	var cbBand, crBand []sicBlock
	by0 := 0
	quantize := func(lo, hi int) {
		var cbBlk, crBlk [64]int32
		var cbMemo, crMemo flatMemo
		bx, by := lo%bw, by0+lo/bw
		for i := lo; i < hi; i++ {
			fCb, flatCb, fCr, flatCr := loadChromaPairInt(r, &cbBlk, &crBlk, bx, by)
			quantizeBlock(&cbBand[i], &cbBlk, fCb, flatCb, true, 0, &pq, &cbMemo)
			quantizeBlock(&crBand[i], &crBlk, fCr, flatCr, true, 0, &pq, &crMemo)
			if bx++; bx == bw {
				bx, by = 0, by+1
			}
		}
	}
	for ; by0 < bh; by0 += bandRows {
		n := min(bandRows, bh-by0) * bw
		cbBand, crBand = (*bp)[:n], (*bp)[n:2*n]
		parallel.For(workers, n, minChunkBlocks, quantize)
		for i := range cbBand {
			cbE.emitBlock(&cbBand[i])
		}
		for i := range crBand {
			crE.emitBlock(&crBand[i])
		}
	}
	putBlocks(bp)
	cbE.flushRun()
	crE.flushRun()
	return cbE.dst, crE.dst
}

// v2FlateWriterPool recycles DEFLATE compressors for the per-plane v2
// streams (their window state is a few hundred kB per instance); Reset
// re-targets one at a new output.
var v2FlateWriterPool = sync.Pool{New: func() any {
	fw, _ := flate.NewWriter(io.Discard, sicV2FlateLevel)
	return fw
}}

// sliceWriter adapts a pooled byte slice to io.Writer for flate.
type sliceWriter struct{ b []byte }

func (w *sliceWriter) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

// deflatePlaneV2 compresses one plane's packed tokens into dst.
func deflatePlaneV2(dst, tokens []byte) ([]byte, error) {
	sw := &sliceWriter{b: dst}
	fw := v2FlateWriterPool.Get().(*flate.Writer)
	defer v2FlateWriterPool.Put(fw)
	fw.Reset(sw)
	if _, err := fw.Write(tokens); err != nil {
		return nil, err
	}
	if err := fw.Close(); err != nil {
		return nil, err
	}
	return sw.b, nil
}

// encodeSICV2 is the v2 encoder behind EncodeSICWorkers: the three
// planes' token streams (Y, then Cb and Cr together), then their flate
// segments, one plane per worker.
func encodeSICV2(r *Raster, quality, workers int) ([]byte, error) {
	lumaQT := quantTable(lumaQBase, quality)
	chromaQT := quantTable(chromaQBase, quality)

	var tok, comp [3]*[]byte
	for i := range tok {
		tok[i], comp[i] = getBytes(), getBytes()
	}
	defer func() {
		for i := range tok {
			putBytes(tok[i])
			putBytes(comp[i])
		}
	}()
	*tok[0] = encodeLumaTokensV2((*tok[0])[:0], r, &lumaQT, quality, workers)
	*tok[1], *tok[2] = encodeChromaTokensPairV2((*tok[1])[:0], (*tok[2])[:0], r, &chromaQT, quality, workers)
	var errs [3]error
	parallel.For(workers, len(tok), 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			*comp[i], errs[i] = deflatePlaneV2((*comp[i])[:0], *tok[i])
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	var hdr [13]byte
	copy(hdr[0:4], sicMagicV2)
	binary.BigEndian.PutUint32(hdr[4:8], uint32(r.W))
	binary.BigEndian.PutUint32(hdr[8:12], uint32(r.H))
	hdr[12] = byte(quality)
	total := len(hdr)
	for _, c := range comp {
		total += uvarintLen(uint64(len(*c))) + len(*c)
	}
	out := make([]byte, 0, total)
	out = append(out, hdr[:]...)
	for _, c := range comp {
		out = appendUvarint(out, uint64(len(*c)))
		out = append(out, *c...)
	}
	return out, nil
}

// uvarintLen reports the encoded size of appendUvarint(u).
func uvarintLen(u uint64) int {
	n := 1
	for u >= 0x80 {
		u >>= 7
		n++
	}
	return n
}

var (
	errV2Tag    = errors.New("imagecodec: invalid SICv2 block tag")
	errV2ACByte = errors.New("imagecodec: invalid SICv2 AC byte")
	errV2Run    = errors.New("imagecodec: SICv2 flat run overruns plane")
	errV2Extra  = errors.New("imagecodec: trailing bytes after SICv2 plane")
)

// parseACv2 unwinds one coded block's AC tokens into q (zigzag order,
// zero on entry), returning the non-zero count.
func parseACv2(c *byteCursor, q *[64]int32) (int, error) {
	idx := 1
	nz := 0
	for {
		b, err := c.readByte()
		if err != nil {
			return 0, fmt.Errorf("imagecodec: truncated AC: %w", err)
		}
		switch {
		case b <= 0xDF:
			idx += int(b) / v2ACVals
			if idx > 63 {
				return 0, errors.New("imagecodec: AC index overflow")
			}
			vi := int(b) % v2ACVals
			v := vi - 7
			if vi >= 7 {
				v = vi - 6
			}
			q[idx] = int32(v)
			idx++
			nz++
		case b == v2ACEscape:
			run, err := c.readUvarint()
			if err != nil {
				return 0, fmt.Errorf("imagecodec: truncated AC run: %w", err)
			}
			v, err := c.readVarint()
			if err != nil {
				return 0, fmt.Errorf("imagecodec: truncated AC value: %w", err)
			}
			if run > 63 {
				return 0, errors.New("imagecodec: AC index overflow")
			}
			idx += int(run)
			if idx > 63 {
				return 0, errors.New("imagecodec: AC index overflow")
			}
			q[idx] = int32(v)
			if v != 0 {
				nz++
			}
			idx++
		case b == v2ACEnd:
			return nz, nil
		default:
			return 0, errV2ACByte
		}
	}
}

// decodePlaneV2 reverses the encoder over one plane's inflated token
// buffer. The serial parse fills a band of blocks; each full band, and
// the last one, goes to the workers to dequantize, inverse transform and
// store, every block into its own pixel region. A flat run repeats the
// previous DC, so it costs its blocks a DC store each and no arithmetic.
// The returned plane comes from planePool; on an error it goes back.
func decodePlaneV2(c *byteCursor, w, h int, qt *[64]int, workers int) (_ *plane, err error) {
	bw, bh := (w+7)/8, (h+7)/8
	nblocks := bw * bh
	p := getPlane(w, h)
	defer func() {
		if err != nil {
			putPlane(p)
		}
	}()
	bp := getBlocks(min(bandRows, bh) * bw)
	defer putBlocks(bp)
	band := *bp
	// The workers learn where the band sits through cur, which the parse
	// loop moves down the plane: one allocation per plane, not per band.
	cur := &struct {
		qz   [64]int // qt in zigzag order
		base int     // plane index of band[0]
	}{}
	for i := range cur.qz {
		cur.qz[i] = qt[zigzag[i]]
	}
	store := func(lo, hi int) {
		var blk [64]float64
		qz := &cur.qz
		bx, by := (cur.base+lo)%bw, (cur.base+lo)/bw
		flatDC, flatVal := 0, float64(128) // the fill for a DC of 0
		for i := lo; i < hi; i++ {
			if b := &band[i]; b.flat {
				if dc := int(b.q[0]); dc != flatDC {
					flatDC, flatVal = dc, float64(dc*qz[0])/8+128
				}
				storeFlat(p, flatVal, bx, by)
			} else {
				blk[0] = float64(int(b.q[0]) * qz[0])
				for k := 1; k < 64; k++ {
					if b.q[k] != 0 {
						blk[zigzag[k]] = float64(int(b.q[k]) * qz[k])
					}
				}
				idctBlock(&blk)
				storeBlock(p, &blk, bx, by)
				blk = [64]float64{}
			}
			if bx++; bx == bw {
				bx, by = 0, by+1
			}
		}
	}
	next := 0 // band slot of block bi
	prevDC := 0
	run := 0 // blocks of the current flat run still to place
	for bi := 0; bi < nblocks; bi++ {
		if next == len(band) {
			parallel.For(workers, len(band), minChunkBlocks, store)
			cur.base, next = bi, 0
		}
		b := &band[next]
		next++
		if run > 0 {
			b.flat, b.q[0] = true, int32(prevDC)
			run--
			continue
		}
		tag, err := c.readByte()
		if err != nil {
			return nil, fmt.Errorf("imagecodec: truncated block tag: %w", err)
		}
		switch {
		case tag <= v2TagRunMax, tag == v2TagLongRun:
			n := int(tag) + 1
			if tag == v2TagLongRun {
				u, err := c.readUvarint()
				if err != nil {
					return nil, fmt.Errorf("imagecodec: truncated run length: %w", err)
				}
				if u == 0 || u > uint64(nblocks) {
					return nil, errV2Run
				}
				n = int(u)
			}
			if bi+n > nblocks {
				return nil, errV2Run
			}
			b.flat, b.q[0] = true, int32(prevDC)
			run = n - 1
		case tag == v2TagFlatDC:
			d, err := c.readVarint()
			if err != nil {
				return nil, fmt.Errorf("imagecodec: truncated DC: %w", err)
			}
			prevDC += d
			b.flat, b.q[0] = true, int32(prevDC)
		case tag == v2TagCoded:
			d, err := c.readVarint()
			if err != nil {
				return nil, fmt.Errorf("imagecodec: truncated DC: %w", err)
			}
			prevDC += d
			b.q = [64]int32{}
			b.q[0] = int32(prevDC)
			nz, err := parseACv2(c, &b.q)
			if err != nil {
				return nil, err
			}
			b.flat = nz == 0
		default:
			return nil, errV2Tag
		}
	}
	if c.i != len(c.b) {
		return nil, errV2Extra
	}
	parallel.For(workers, next, minChunkBlocks, store)
	return p, nil
}

type flateResetReader interface {
	io.ReadCloser
	flate.Resetter
}

var flateReaderPool = sync.Pool{New: func() any {
	return flate.NewReader(bytes.NewReader(nil)).(flateResetReader)
}}

// inflatePlaneV2 inflates one plane segment into *tp, reusing its
// capacity.
func inflatePlaneV2(tp *[]byte, comp []byte) error {
	fr := flateReaderPool.Get().(flateResetReader)
	defer flateReaderPool.Put(fr)
	if err := fr.Reset(bytes.NewReader(comp), nil); err != nil {
		return fmt.Errorf("imagecodec: flate: %w", err)
	}
	tokens := (*tp)[:0]
	var err error
	for err == nil {
		if len(tokens) == cap(tokens) {
			tokens = append(tokens, 0)[:len(tokens)]
		}
		var n int
		n, err = fr.Read(tokens[len(tokens):cap(tokens)])
		tokens = tokens[:len(tokens)+n]
	}
	*tp = tokens
	if err != io.EOF {
		return fmt.Errorf("imagecodec: flate: %w", err)
	}
	return nil
}

// decodeSICV2 is the v2 body behind DecodeSICWorkers: three
// length-prefixed per-plane flate segments, inflated in turn into one
// pooled token buffer, packed-token plane decode, shared color
// reassembly.
func decodeSICV2(data []byte, w, h, quality, workers int) (*Raster, error) {
	lumaQT := quantTable(lumaQBase, quality)
	chromaQT := quantTable(chromaQBase, quality)
	cw, ch := (w+1)/2, (h+1)/2
	body := &byteCursor{b: data}
	var planes [3]*plane
	defer func() {
		for _, p := range planes {
			putPlane(p)
		}
	}()
	tp := getBytes()
	defer putBytes(tp)
	dims := [3][2]int{{w, h}, {cw, ch}, {cw, ch}}
	qts := [3]*[64]int{&lumaQT, &chromaQT, &chromaQT}
	for pi := 0; pi < 3; pi++ {
		clen, err := body.readUvarint()
		if err != nil {
			return nil, fmt.Errorf("imagecodec: truncated plane length: %w", err)
		}
		if clen > uint64(len(body.b)-body.i) {
			return nil, errors.New("imagecodec: SICv2 plane length overruns stream")
		}
		comp := body.b[body.i : body.i+int(clen)]
		body.i += int(clen)
		if err := inflatePlaneV2(tp, comp); err != nil {
			return nil, err
		}
		planes[pi], err = decodePlaneV2(&byteCursor{b: *tp}, dims[pi][0], dims[pi][1], qts[pi], workers)
		if err != nil {
			return nil, err
		}
	}
	return fromYCbCr(planes[0], planes[1], planes[2], workers), nil
}
