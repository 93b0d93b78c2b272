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

// emitQuantized routes one quantized block: blocks with no surviving AC
// energy join the flat-run alphabet, everything else is coded.
func (e *v2Emitter) emitQuantized(q *[64]int32) {
	for i := 1; i < 64; i++ {
		if q[i] != 0 {
			e.emitCoded(int(q[0]), q)
			return
		}
	}
	e.emitFlat(int(q[0]))
}

// encodePlaneTokensV2 appends one plane's packed v2 token stream to dst.
// Per-block arithmetic (load, flatness, DCT, quantize) is byte-for-byte
// the code v1 ran; only the emission alphabet differs. With workers > 1
// and enough blocks the compute stage runs data-parallel first, exactly
// like v1's split, so the stream is identical for every worker count.
func encodePlaneTokensV2(dst []byte, src blockSource, qt *[64]int, quality, workers int) []byte {
	w, h := src.dims()
	bw := (w + 7) / 8
	bh := (h + 7) / 8
	pq := newPlaneQuant(qt, quality)
	e := v2Emitter{dst: dst}
	if workers > 1 && bw*bh >= minParallelBlocks {
		blocks := getBlocks(bw * bh)
		quantizeInto(blocks, src, &pq, bw, workers)
		for bi := range blocks {
			b := &blocks[bi]
			if b.flat {
				e.emitFlat(int(b.q[0]))
				continue
			}
			e.emitQuantized(&b.q)
		}
		putBlocks(blocks)
		e.flushRun()
		return e.dst
	}
	var iblk [64]int32
	var q [64]int32
	var info intLoadInfo
	lastFlatI, lastFlatIDC, haveFlatI := int32(0), 0, false
	for by := 0; by < bh; by++ {
		for bx := 0; bx < bw; bx++ {
			src.loadInt(&iblk, &info, bx, by)
			if info.flat {
				if !haveFlatI || info.first != lastFlatI {
					lastFlatI = info.first
					lastFlatIDC = flatDCFix(info.first, info.centered, pq.qf0)
					haveFlatI = true
				}
				e.emitFlat(lastFlatIDC)
				continue
			}
			if info.two {
				v := quantizeTwoValued(&iblk, &info, &pq)
				if v.nz == 0 {
					e.emitFlat(int(v.q[0]))
					continue
				}
				e.emitCodedAC(int(v.q[0]), v.ac)
				continue
			}
			dc, nz := quantizeIntBlock(&iblk, &q, &pq, info.dupRows)
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

// encodeChromaTokensV2 is the fused Cb+Cr emitter: one pass over the
// shared source quads, one v2Emitter per plane.
func encodeChromaTokensV2(cbDst, crDst []byte, r *Raster, qt *[64]int, quality int) ([]byte, []byte) {
	cw, ch := (r.W+1)/2, (r.H+1)/2
	bw := (cw + 7) / 8
	bh := (ch + 7) / 8
	pq := newPlaneQuant(qt, quality)
	var cbIBlk, crIBlk [64]int32
	var q [64]int32
	cbE := v2Emitter{dst: cbDst}
	crE := v2Emitter{dst: crDst}
	type flatMemoI struct {
		last int32
		dc   int
		have bool
	}
	var cbMemoI, crMemoI flatMemoI
	emitInt := func(e *v2Emitter, blk *[64]int32, first int32, flat bool, memo *flatMemoI) {
		if flat {
			if !memo.have || first != memo.last {
				memo.last = first
				memo.dc = flatDCFix(first, true, pq.qf0)
				memo.have = true
			}
			e.emitFlat(memo.dc)
			return
		}
		dc, nz := quantizeIntBlock(blk, &q, &pq, 0)
		if nz == 0 {
			e.emitFlat(dc)
			return
		}
		e.emitCoded(dc, &q)
	}
	for by := 0; by < bh; by++ {
		for bx := 0; bx < bw; bx++ {
			fCb, flatCb, fCr, flatCr := loadChromaPairInt(r, &cbIBlk, &crIBlk, bx, by)
			emitInt(&cbE, &cbIBlk, fCb, flatCb, &cbMemoI)
			emitInt(&crE, &crIBlk, fCr, flatCr, &crMemoI)
		}
	}
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
	fw.Reset(sw)
	_, werr := fw.Write(tokens)
	cerr := fw.Close()
	v2FlateWriterPool.Put(fw)
	if werr != nil {
		return nil, werr
	}
	if cerr != nil {
		return nil, cerr
	}
	return sw.b, nil
}

// encodeSICV2 is the v2 encoder behind EncodeSICWorkers. Emission and
// per-plane compression run on the caller's goroutine when workers <= 1;
// otherwise the chroma planes emit and compress on their own goroutines
// while luma keeps the parallel quantize stage, mirroring v1's split.
func encodeSICV2(r *Raster, quality, workers int) ([]byte, error) {
	lumaQT := quantTable(lumaQBase, quality)
	chromaQT := quantTable(chromaQBase, quality)

	yTokP, cbTokP, crTokP := getBytes(), getBytes(), getBytes()
	yCompP, cbCompP, crCompP := getBytes(), getBytes(), getBytes()
	yTok, cbTok, crTok := (*yTokP)[:0], (*cbTokP)[:0], (*crTokP)[:0]
	yComp, cbComp, crComp := (*yCompP)[:0], (*cbCompP)[:0], (*crCompP)[:0]
	release := func() {
		*yTokP, *cbTokP, *crTokP = yTok, cbTok, crTok
		*yCompP, *cbCompP, *crCompP = yComp, cbComp, crComp
		putBytes(yTokP)
		putBytes(cbTokP)
		putBytes(crTokP)
		putBytes(yCompP)
		putBytes(cbCompP)
		putBytes(crCompP)
	}

	var yErr, cbErr, crErr error
	if workers <= 1 {
		yTok = encodePlaneTokensV2(yTok, lumaSource{r}, &lumaQT, quality, 1)
		cbTok, crTok = encodeChromaTokensV2(cbTok, crTok, r, &chromaQT, quality)
		yComp, yErr = deflatePlaneV2(yComp, yTok)
		if yErr == nil {
			cbComp, cbErr = deflatePlaneV2(cbComp, cbTok)
		}
		if yErr == nil && cbErr == nil {
			crComp, crErr = deflatePlaneV2(crComp, crTok)
		}
	} else {
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			cbTok = encodePlaneTokensV2(cbTok, chromaSource{r: r}, &chromaQT, quality, 1)
			cbComp, cbErr = deflatePlaneV2(cbComp, cbTok)
		}()
		go func() {
			defer wg.Done()
			crTok = encodePlaneTokensV2(crTok, chromaSource{r: r, cr: true}, &chromaQT, quality, 1)
			crComp, crErr = deflatePlaneV2(crComp, crTok)
		}()
		yTok = encodePlaneTokensV2(yTok, lumaSource{r}, &lumaQT, quality, workers)
		yComp, yErr = deflatePlaneV2(yComp, yTok)
		wg.Wait()
	}
	if yErr != nil || cbErr != nil || crErr != nil {
		release()
		if yErr != nil {
			return nil, yErr
		}
		if cbErr != nil {
			return nil, cbErr
		}
		return nil, crErr
	}

	var hdr [13]byte
	copy(hdr[0:4], sicMagicV2)
	binary.BigEndian.PutUint32(hdr[4:8], uint32(r.W))
	binary.BigEndian.PutUint32(hdr[8:12], uint32(r.H))
	hdr[12] = byte(quality)
	total := len(hdr)
	for _, comp := range [3][]byte{yComp, cbComp, crComp} {
		total += uvarintLen(uint64(len(comp))) + len(comp)
	}
	out := make([]byte, 0, total)
	out = append(out, hdr[:]...)
	for _, comp := range [3][]byte{yComp, cbComp, crComp} {
		out = appendUvarint(out, uint64(len(comp)))
		out = append(out, comp...)
	}
	release()
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

// dequantStoreBlocks runs the data-parallel back half of plane decoding
// — dequantize, inverse DCT, store — over parsed blocks. Each block
// writes a disjoint pixel region, so reconstruction is identical for any
// worker count.
func dequantStoreBlocks(p *plane, blocks []sicBlock, bw int, qt *[64]int, qz *[64]int, workers int) {
	parallel.For(workers, len(blocks), 1, func(lo, hi int) {
		var blk [64]float64
		for bi := lo; bi < hi; bi++ {
			by, bx := bi/bw, bi%bw
			b := &blocks[bi]
			if b.flat {
				storeFlat(p, float64(int(b.q[0])*qt[0])/8+128, bx, by)
				continue
			}
			for i := 0; i < 64; i++ {
				blk[zigzag[i]] = float64(int(b.q[i]) * qz[i])
			}
			idctBlock(&blk)
			storeBlock(p, &blk, bx, by)
		}
	})
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

// decodePlaneV2 reverses encodePlaneTokensV2 over one plane's inflated
// token buffer. The fused serial path dequantizes straight into one
// scratch block; with workers > 1 the serial parse fills a block buffer
// whose dequantize/IDCT/store stage runs data-parallel. Flat runs repeat
// the previous DC, so a run costs one storeFlat per block and no
// arithmetic. The returned plane comes from planePool.
func decodePlaneV2(c *byteCursor, w, h int, qt *[64]int, workers int) (*plane, error) {
	bw := (w + 7) / 8
	bh := (h + 7) / 8
	nblocks := bw * bh
	var qz [64]int
	for i := 0; i < 64; i++ {
		qz[i] = qt[zigzag[i]]
	}
	p := getPlane(w, h)
	fail := func(err error) (*plane, error) {
		putPlane(p)
		return nil, err
	}
	if workers > 1 && nblocks >= minParallelBlocks {
		blocks := getBlocks(nblocks)
		prevDC := 0
		bi := 0
		for bi < nblocks {
			tag, err := c.readByte()
			if err != nil {
				putBlocks(blocks)
				return fail(fmt.Errorf("imagecodec: truncated block tag: %w", err))
			}
			switch {
			case tag <= v2TagRunMax, tag == v2TagLongRun:
				n := int(tag) + 1
				if tag == v2TagLongRun {
					u, err := c.readUvarint()
					if err != nil {
						putBlocks(blocks)
						return fail(fmt.Errorf("imagecodec: truncated run length: %w", err))
					}
					if u == 0 || u > uint64(nblocks) {
						putBlocks(blocks)
						return fail(errV2Run)
					}
					n = int(u)
				}
				if bi+n > nblocks {
					putBlocks(blocks)
					return fail(errV2Run)
				}
				for ; n > 0; n-- {
					b := &blocks[bi]
					b.flat = true
					b.q[0] = int32(prevDC)
					bi++
				}
			case tag == v2TagFlatDC:
				d, err := c.readVarint()
				if err != nil {
					putBlocks(blocks)
					return fail(fmt.Errorf("imagecodec: truncated DC: %w", err))
				}
				prevDC += d
				b := &blocks[bi]
				b.flat = true
				b.q[0] = int32(prevDC)
				bi++
			case tag == v2TagCoded:
				d, err := c.readVarint()
				if err != nil {
					putBlocks(blocks)
					return fail(fmt.Errorf("imagecodec: truncated DC: %w", err))
				}
				prevDC += d
				b := &blocks[bi]
				b.q = [64]int32{}
				b.q[0] = int32(prevDC)
				nz, err := parseACv2(c, &b.q)
				if err != nil {
					putBlocks(blocks)
					return fail(err)
				}
				b.flat = nz == 0
				bi++
			default:
				putBlocks(blocks)
				return fail(errV2Tag)
			}
		}
		if c.i != len(c.b) {
			putBlocks(blocks)
			return fail(errV2Extra)
		}
		dequantStoreBlocks(p, blocks, bw, qt, &qz, workers)
		putBlocks(blocks)
		return p, nil
	}
	var blk [64]float64
	prevDC := 0
	// flatVal memoizes the constant fill for the current DC (dc=0 -> 128).
	flatVal := float64(128)
	flatDC := 0
	bi := 0
	for bi < nblocks {
		tag, err := c.readByte()
		if err != nil {
			return fail(fmt.Errorf("imagecodec: truncated block tag: %w", err))
		}
		switch {
		case tag <= v2TagRunMax, tag == v2TagLongRun:
			n := int(tag) + 1
			if tag == v2TagLongRun {
				u, err := c.readUvarint()
				if err != nil {
					return fail(fmt.Errorf("imagecodec: truncated run length: %w", err))
				}
				if u == 0 || u > uint64(nblocks) {
					return fail(errV2Run)
				}
				n = int(u)
			}
			if bi+n > nblocks {
				return fail(errV2Run)
			}
			if prevDC != flatDC {
				flatDC = prevDC
				flatVal = float64(flatDC*qt[0])/8 + 128
			}
			for ; n > 0; n-- {
				storeFlat(p, flatVal, bi%bw, bi/bw)
				bi++
			}
		case tag == v2TagFlatDC:
			d, err := c.readVarint()
			if err != nil {
				return fail(fmt.Errorf("imagecodec: truncated DC: %w", err))
			}
			prevDC += d
			if prevDC != flatDC {
				flatDC = prevDC
				flatVal = float64(flatDC*qt[0])/8 + 128
			}
			storeFlat(p, flatVal, bi%bw, bi/bw)
			bi++
		case tag == v2TagCoded:
			d, err := c.readVarint()
			if err != nil {
				return fail(fmt.Errorf("imagecodec: truncated DC: %w", err))
			}
			prevDC += d
			var q [64]int32
			nz, err := parseACv2(c, &q)
			if err != nil {
				return fail(err)
			}
			if nz == 0 {
				if prevDC != flatDC {
					flatDC = prevDC
					flatVal = float64(flatDC*qt[0])/8 + 128
				}
				storeFlat(p, flatVal, bi%bw, bi/bw)
				bi++
				continue
			}
			blk[0] = float64(prevDC * qz[0])
			for i := 1; i < 64; i++ {
				if q[i] != 0 {
					blk[zigzag[i]] = float64(int(q[i]) * qz[i])
				}
			}
			idctBlock(&blk)
			storeBlock(p, &blk, bi%bw, bi/bw)
			blk = [64]float64{}
			bi++
		default:
			return fail(errV2Tag)
		}
	}
	if c.i != len(c.b) {
		return fail(errV2Extra)
	}
	return p, nil
}

type flateResetReader interface {
	io.ReadCloser
	flate.Resetter
}

var flateReaderPool = sync.Pool{New: func() any {
	return flate.NewReader(bytes.NewReader(nil)).(flateResetReader)
}}

// inflatePlaneV2 inflates one plane segment into a pooled buffer.
func inflatePlaneV2(comp []byte) (*[]byte, error) {
	fr := flateReaderPool.Get().(flateResetReader)
	if err := fr.Reset(bytes.NewReader(comp), nil); err != nil {
		flateReaderPool.Put(fr)
		return nil, fmt.Errorf("imagecodec: flate: %w", err)
	}
	tp := getBytes()
	tokens := (*tp)[:0]
	var rerr error
	for {
		if len(tokens) == cap(tokens) {
			tokens = append(tokens, 0)[:len(tokens)]
		}
		n, err := fr.Read(tokens[len(tokens):cap(tokens)])
		tokens = tokens[:len(tokens)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			rerr = err
			break
		}
	}
	flateReaderPool.Put(fr)
	*tp = tokens
	if rerr != nil {
		putBytes(tp)
		return nil, fmt.Errorf("imagecodec: flate: %w", rerr)
	}
	return tp, nil
}

// decodeSICV2 is the v2 body behind DecodeSICWorkers: three
// length-prefixed per-plane flate segments, packed-token plane decode,
// shared color reassembly.
func decodeSICV2(data []byte, w, h, quality, workers int) (*Raster, error) {
	lumaQT := quantTable(lumaQBase, quality)
	chromaQT := quantTable(chromaQBase, quality)
	cw, ch := (w+1)/2, (h+1)/2
	body := &byteCursor{b: data}
	var planes [3]*plane
	dims := [3][2]int{{w, h}, {cw, ch}, {cw, ch}}
	qts := [3]*[64]int{&lumaQT, &chromaQT, &chromaQT}
	for pi := 0; pi < 3; pi++ {
		clen, err := body.readUvarint()
		if err != nil {
			for _, p := range planes {
				putPlane(p)
			}
			return nil, fmt.Errorf("imagecodec: truncated plane length: %w", err)
		}
		if clen > uint64(len(body.b)-body.i) {
			for _, p := range planes {
				putPlane(p)
			}
			return nil, errors.New("imagecodec: SICv2 plane length overruns stream")
		}
		comp := body.b[body.i : body.i+int(clen)]
		body.i += int(clen)
		tp, err := inflatePlaneV2(comp)
		if err != nil {
			for _, p := range planes {
				putPlane(p)
			}
			return nil, err
		}
		c := &byteCursor{b: *tp}
		planes[pi], err = decodePlaneV2(c, dims[pi][0], dims[pi][1], qts[pi], workers)
		putBytes(tp)
		if err != nil {
			for _, p := range planes {
				putPlane(p)
			}
			return nil, err
		}
	}
	out := fromYCbCr(planes[0], planes[1], planes[2], workers)
	for _, p := range planes {
		putPlane(p)
	}
	return out, nil
}
