package imagecodec

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"

	"sonic/internal/parallel"
)

// SIC bitstream v2 is a codec-aware entropy stage over the quantized
// coefficients: the tokens are packed so the stream is already close to
// its entropy before flate sees it, then each plane is deflated:
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
//	            majority of (run, value) pairs
//	0xFD        escape: uvarint(run), varint(value)
//	0xFE        end of block
//
// A block whose quantized ACs are all zero is flat *for entropy
// purposes* regardless of how it was loaded: the decoder reconstructs a
// DC-only block as a constant fill either way, so v2 folds those blocks
// into the flat-run alphabet. v2 is the only version DecodeSIC reads: it
// rejects the retired v1 version byte.
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

// sicV2FlateLevel is the flate level for the per-plane streams. It is
// an encoder choice, not part of the format: any level inflates to the
// same tokens, so the decoder reads every level's streams alike. Measured
// on 20 corpus pages at Q10, one core, same token bytes:
//
//	level  SIC bytes   vs 2   deflate/page  inflate/page
//	2      2 810 708   1.000   5.9 ms        2.65 ms
//	5      2 361 133   0.840  10.1 ms        2.33 ms
//	6      2 318 906   0.825  11.6 ms        2.35 ms
//	9      2 281 752   0.812  15.5 ms        2.29 ms
//
// Level 6 is the knee: 17.5 % fewer bytes on air than level 2, where
// level 9 buys 1.3 points more for a third more deflate time than 6.
const sicV2FlateLevel = 6

// appendUvarint appends an unsigned varint in binary.PutUvarint layout.
func appendUvarint(dst []byte, u uint64) []byte {
	for u >= 0x80 {
		dst = append(dst, byte(u)|0x80)
		u >>= 7
	}
	return append(dst, byte(u))
}

// readUvarint reads an unsigned varint, mirroring binary.ReadUvarint's
// error behavior (io.EOF at a token boundary, io.ErrUnexpectedEOF
// mid-varint).
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
// block quantizes its DC directly (info.first is its sample value), a
// block whose statistics prove it DC-only quantizes its sum, and
// anything else runs the fixed-point DCT and quantizer.
func quantizeBlock(b *sicBlock, blk *[64]int32, info *intLoadInfo, centered bool, pq *planeQuant) {
	b.mv = nil
	switch {
	case info.flat:
		b.flat, b.q[0] = true, int32(flatDCFix(info.first, centered, pq.qf0))
	case pq.dcOnly(&info.st):
		b.flat, b.q[0] = true, int32(pq.quantDC(info.st.sum))
	default:
		dc, nz := quantizeIntBlock(blk, &b.q, pq)
		b.flat, b.q[0] = nz == 0, int32(dc)
	}
}

// encodeTokensV2 appends the Y, Cb and Cr planes' packed v2 token
// streams to y, cb and cr, one band of bandRows luma block rows at a
// time. The workers take a band in macro rows: two luma block rows and
// the chroma block row under them, which cover the same 16 pixel rows.
// They load each block straight from the RGB raster (no float plane is
// built), classify it and quantize it; the chroma load reads the classes
// the macro row's luma loads left in their blocks, and Cb and Cr share
// their source quads, so one load fills both. Then the emitters walk the
// band in scan order, one plane after another.
func encodeTokensV2(y, cb, cr []byte, r *Raster, quality, workers int) ([]byte, []byte, []byte) {
	lumaQT, chromaQT := quantTable(lumaQBase, quality), quantTable(chromaQBase, quality)
	lq, cq := newPlaneQuant(&lumaQT, quality), newPlaneQuant(&chromaQT, quality)
	bw, bh := (r.W+7)/8, (r.H+7)/8
	cbw, cbh := ((r.W+1)/2+7)/8, ((r.H+1)/2+7)/8
	ye, cbe, cre := v2Emitter{dst: y}, v2Emitter{dst: cb}, v2Emitter{dst: cr}
	const bandMacroRows = bandRows / 2
	bp := getBlocks(bandRows*bw + 2*bandMacroRows*cbw)
	var yBand, cbBand, crBand []sicBlock
	m0 := 0 // the band's first macro row
	quantize := func(lo, hi int) {
		var blk, crBlk [64]int32
		var info, crInfo intLoadInfo
		for m := lo; m < hi; m++ {
			by0 := 2 * (m0 + m)
			for by := by0; by < min(by0+2, bh); by++ {
				row := yBand[(by-2*m0)*bw:][:bw]
				for bx := range row {
					b := &row[bx]
					loadLumaInt(r, &blk, &info, bx, by)
					b.class = info.class
					if info.two {
						quantizeTwoValued(b, &blk, &info, &lq)
					} else {
						quantizeBlock(b, &blk, &info, false, &lq)
					}
				}
			}
			// A region's quadrants are the luma blocks of this macro row
			// under it; past the raster's edge the last real column and
			// row stand in for the missing ones.
			top := yBand[2*m*bw:][:bw]
			bottom := top
			if (2*m+2)*bw <= len(yBand) {
				bottom = yBand[(2*m+1)*bw:][:bw]
			}
			for bx := 0; bx < cbw; bx++ {
				lx, rx := 2*bx, min(2*bx+1, bw-1)
				q := [4]blockClass{top[lx].class, top[rx].class, bottom[lx].class, bottom[rx].class}
				i := m*cbw + bx
				loadChromaPairInt(r, &blk, &crBlk, &info, &crInfo, bx, m0+m, &q)
				quantizeBlock(&cbBand[i], &blk, &info, true, &cq)
				quantizeBlock(&crBand[i], &crBlk, &crInfo, true, &cq)
			}
		}
	}
	// A macro row is worth a goroutine only with minChunkBlocks blocks.
	minChunk := (minChunkBlocks + 2*bw + cbw - 1) / (2*bw + cbw)
	for ; m0 < cbh; m0 += bandMacroRows {
		n := min(bandMacroRows, cbh-m0)
		nY, nC := min(bandRows, bh-2*m0)*bw, n*cbw
		yBand, cbBand, crBand = (*bp)[:nY], (*bp)[nY:nY+nC], (*bp)[nY+nC:nY+2*nC]
		parallel.For(workers, n, minChunk, quantize)
		for i := range yBand {
			ye.emitBlock(&yBand[i])
		}
		for i := range cbBand {
			cbe.emitBlock(&cbBand[i])
		}
		for i := range crBand {
			cre.emitBlock(&crBand[i])
		}
	}
	putBlocks(bp)
	ye.flushRun()
	cbe.flushRun()
	cre.flushRun()
	return ye.dst, cbe.dst, cre.dst
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
// planes' token streams, then their flate segments, one plane per
// worker.
func encodeSICV2(r *Raster, quality, workers int) ([]byte, error) {
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
	*tok[0], *tok[1], *tok[2] = encodeTokensV2((*tok[0])[:0], (*tok[1])[:0], (*tok[2])[:0], r, quality, workers)
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

// decBlock is one parsed block of a decode band: a constant fill (flat,
// the DC in q[0]), a block whose samples the plane's memo holds (memo >=
// 0), or coefficients for the workers to transform (q, zigzag order).
type decBlock struct {
	flat bool
	memo int32
	q    [64]int32
}

// maxBlockV2 is the most token bytes one block can take: its tag, a
// 10-byte DC varint, 63 AC escapes of a byte and two 10-byte varints
// each, and the end byte.
const maxBlockV2 = 1 + 10 + 63*(1+10+10) + 1

// planeDecoder is one plane's serial parse, whose state carries from
// band to band: the token cursor, the DC prediction chain, the pending
// flat run and the memo of the plane's distinct coded blocks. The
// cursor's buffer holds the tokens inflated so far; the parse inflates
// more as it reads, so a segment is inflated only as far as its blocks
// parse, and a stream that fails early costs what it parsed, not what
// its segments would inflate to.
type planeDecoder struct {
	c       byteCursor
	seg     bytes.Reader     // the segment's flate stream
	zr      flateResetReader // inflates seg
	more    bool             // zr has not reached the segment's end
	bw      int              // blocks per block row
	nblocks int
	bi      int // blocks parsed so far
	prevDC  int
	run     int     // blocks of the current flat run still to place
	qz      [64]int // the quant table in zigzag order
	memo    blockMemo
}

// start points d at a w x h plane whose tokens are the flate segment
// comp, coded under quant table qt, keeping the storage of its token
// buffer, inflater and memo.
func (d *planeDecoder) start(comp []byte, w, h int, qt *[64]int) error {
	d.seg.Reset(comp)
	if d.zr == nil {
		d.zr = flate.NewReader(&d.seg).(flateResetReader)
	} else if err := d.zr.Reset(&d.seg, nil); err != nil {
		return fmt.Errorf("imagecodec: flate: %w", err)
	}
	d.c = byteCursor{b: d.c.b[:0]}
	d.more = true
	d.bw = (w + 7) / 8
	d.nblocks = d.bw * ((h + 7) / 8)
	d.bi, d.prevDC, d.run = 0, 0, 0
	for i := range d.qz {
		d.qz[i] = qt[zigzag[i]]
	}
	clear(d.memo.slots[:])
	d.memo.entries = d.memo.entries[:0]
	return nil
}

// fill inflates until need tokens are buffered past the cursor or the
// segment has ended. Doubling the buffer keeps the garbage a cold decode
// leaves behind under the size of what it inflated.
func (d *planeDecoder) fill(need int) error {
	for d.more && len(d.c.b)-d.c.i < need {
		if len(d.c.b) == cap(d.c.b) {
			d.c.b = slices.Grow(d.c.b, max(len(d.c.b), 4<<10))
		}
		n, err := d.zr.Read(d.c.b[len(d.c.b):cap(d.c.b)])
		d.c.b = d.c.b[:len(d.c.b)+n]
		if err == io.EOF {
			d.more = false
		} else if err != nil {
			return fmt.Errorf("imagecodec: flate: %w", err)
		}
	}
	return nil
}

// parse reverses the encoder over the plane's next len(band) blocks. A
// flat run repeats the previous DC, so it costs its blocks a DC store
// each; a coded block the memo has seen costs an index.
func (d *planeDecoder) parse(band []decBlock) error {
	for i := range band {
		b := &band[i]
		b.memo = -1
		if d.run > 0 {
			b.flat, b.q[0] = true, int32(d.prevDC)
			d.run--
			continue
		}
		if len(d.c.b)-d.c.i < maxBlockV2 {
			if err := d.fill(maxBlockV2); err != nil {
				return err
			}
		}
		tag, err := d.c.readByte()
		if err != nil {
			return fmt.Errorf("imagecodec: truncated block tag: %w", err)
		}
		switch {
		case tag <= v2TagRunMax, tag == v2TagLongRun:
			n := int(tag) + 1
			if tag == v2TagLongRun {
				u, err := d.c.readUvarint()
				if err != nil {
					return fmt.Errorf("imagecodec: truncated run length: %w", err)
				}
				if u == 0 || u > uint64(d.nblocks) {
					return errV2Run
				}
				n = int(u)
			}
			if d.bi+i+n > d.nblocks {
				return errV2Run
			}
			b.flat, b.q[0] = true, int32(d.prevDC)
			d.run = n - 1
		case tag == v2TagFlatDC:
			dc, err := d.c.readVarint()
			if err != nil {
				return fmt.Errorf("imagecodec: truncated DC: %w", err)
			}
			d.prevDC += dc
			b.flat, b.q[0] = true, int32(d.prevDC)
		case tag == v2TagCoded:
			dc, err := d.c.readVarint()
			if err != nil {
				return fmt.Errorf("imagecodec: truncated DC: %w", err)
			}
			d.prevDC += dc
			b.q = [64]int32{}
			b.q[0] = int32(d.prevDC)
			ac := d.c.i
			nz, err := parseACv2(&d.c, &b.q)
			if err != nil {
				return err
			}
			b.flat = nz == 0
			if !b.flat {
				b.memo = d.memo.lookup(d.c.b, memoKey{b.q[0], ac, d.c.i}, &b.q, &d.qz)
			}
		default:
			return errV2Tag
		}
	}
	d.bi += len(band)
	return nil
}

// Block memo geometry: the most distinct coded blocks one plane keeps,
// its open-addressed table (twice that, a power of two) and the longest
// probe a lookup walks before giving up.
const (
	memoCap    = 4096
	memoSlots  = 2 * memoCap
	memoProbes = 8
	memoChunk  = 256 // entries per samples allocation
)

// memoKey names a coded block: its DC and the span [ac, end) of its AC
// token bytes in the plane's token buffer.
type memoKey struct {
	dc      int32
	ac, end int
}

// memoEntry is one distinct coded block the plane has seen; held marks
// the entries whose samples the memo holds.
type memoEntry struct {
	memoKey
	held bool
}

// blockMemo holds the reconstructed samples of one plane's repeated
// coded blocks for one decode call. A coded block's samples are a pure
// function of its DC, its AC token bytes and the plane's quant table, so
// a block whose DC and AC bytes repeat an earlier block's copies that
// block's samples instead of being transformed again; text glyphs make
// most coded blocks on a page repeats. A block seen once is left to the
// workers and only remembered; its first repeat is transformed into the
// memo during the parse, so content that never repeats (a photo) keeps
// its transforms on the workers. The memo keeps at most memoCap entries
// and a lookup probes at most memoProbes slots, so a stream built to
// defeat it costs the transforms it would have cost anyway.
type blockMemo struct {
	slots   [memoSlots]int32 // entry index + 1; 0 is an empty slot
	entries []memoEntry
	// chunks hold the held entries' samples, centered as storeBlock
	// writes them, memoChunk entries per allocation so growth copies
	// nothing.
	chunks []*[memoChunk][64]float64
}

// samples returns entry i's samples.
func (m *blockMemo) samples(i int32) *[64]float64 {
	return &m.chunks[i/memoChunk][i%memoChunk]
}

// lookup returns the index of the held samples for the coded block k of
// tokens, whose coefficients are q, transforming them into the memo on
// the block's first repeat; it returns -1 when the block is to be
// transformed in place.
func (m *blockMemo) lookup(tokens []byte, k memoKey, q *[64]int32, qz *[64]int) int32 {
	const fnvPrime = 1099511628211
	ac := tokens[k.ac:k.end]
	h := uint64(14695981039346656037)
	for i := 0; i < 32; i += 8 {
		h = (h ^ uint64(byte(k.dc>>i))) * fnvPrime
	}
	for _, c := range ac {
		h = (h ^ uint64(c)) * fnvPrime
	}
	for p := uint64(0); p < memoProbes; p++ {
		s := &m.slots[(h+p)&(memoSlots-1)]
		if *s == 0 {
			if len(m.entries) < memoCap {
				m.entries = append(m.entries, memoEntry{memoKey: k})
				*s = int32(len(m.entries))
			}
			return -1
		}
		i := *s - 1
		e := &m.entries[i]
		if e.dc != k.dc || !bytes.Equal(tokens[e.ac:e.end], ac) {
			continue
		}
		if !e.held {
			for int(i/memoChunk) >= len(m.chunks) {
				m.chunks = append(m.chunks, new([memoChunk][64]float64))
			}
			reconstructBlock(m.samples(i), q, qz)
			e.held = true
		}
		return i
	}
	return -1
}

// reconstructBlock dequantizes q (zigzag order) with qz, inverse
// transforms it and centers it back to 0..255, into dst.
func reconstructBlock(dst *[64]float64, q *[64]int32, qz *[64]int) {
	*dst = [64]float64{}
	dst[0] = float64(int(q[0]) * qz[0])
	for k := 1; k < 64; k++ {
		if q[k] != 0 {
			dst[zigzag[k]] = float64(int(q[k]) * qz[k])
		}
	}
	idctBlock(dst)
	for i := range dst {
		dst[i] += 128
	}
}

// storeBlocks writes a run of parsed blocks, starting at block row by0
// of plane p, into p.
func storeBlocks(p *plane, blocks []decBlock, d *planeDecoder, by0 int) {
	var blk [64]float64
	bx, by := 0, by0
	for i := range blocks {
		switch b := &blocks[i]; {
		case b.flat:
			storeFlat(p, float64(int(b.q[0])*d.qz[0])/8+128, bx, by)
		case b.memo >= 0:
			storeBlock(p, d.memo.samples(b.memo), bx, by)
		default:
			reconstructBlock(&blk, &b.q, &d.qz)
			storeBlock(p, &blk, bx, by)
		}
		if bx++; bx == d.bw {
			bx, by = 0, by+1
		}
	}
}

// sicDecoder walks a page one band at a time: the three planes' parses
// fill the band's blocks, then the workers store them into band-sized
// sample scratch and convert the band's rows into the output raster.
type sicDecoder struct {
	planes  [3]planeDecoder // Y, Cb, Cr
	blocks  [3][]decBlock   // the band's parsed blocks, per plane
	bands   [3]plane        // the band's samples, per plane
	pix     []byte          // the band's rows of the output raster
	blkBuf  []decBlock      // backs blocks
	sampBuf []float64       // backs bands
}

// decoderPool recycles decoders with their scratch, memos, token
// buffers and flate readers. Blocks and samples are not zeroed on reuse:
// the parse writes every block field the store reads, and a band's
// blocks store every sample its conversion reads.
var decoderPool = sync.Pool{New: func() any { return new(sicDecoder) }}

// Decode bands: a band is bandRows luma block rows and the bandRows/2
// chroma block rows under them; the workers split it into macro rows of
// two luma block rows and one chroma block row, which cover the same 16
// pixel rows.
const (
	bandPixRows  = 8 * bandRows
	macroPixRows = 16
)

// render stores macro rows [lo, hi) of the band and converts their
// pixel rows to RGB.
func (s *sicDecoder) render(lo, hi int) {
	for pi := range s.planes {
		d := &s.planes[pi]
		rows := 1 // block rows per macro row
		if pi == 0 {
			rows = 2
		}
		n := len(s.blocks[pi]) / d.bw
		r0, r1 := min(lo*rows, n), min(hi*rows, n)
		storeBlocks(&s.bands[pi], s.blocks[pi][r0*d.bw:r1*d.bw], d, r0)
	}
	toRGBRows(&s.bands[0], &s.bands[1], &s.bands[2], s.pix, lo*macroPixRows, min(hi*macroPixRows, s.bands[0].h))
}

type flateResetReader interface {
	io.ReadCloser
	flate.Resetter
}

// decodeSICV2 is the v2 body behind DecodeSICWorkers. The page is
// decoded one band at a time, each of the three length-prefixed
// per-plane flate segments inflated as its band's parse reads it (a
// full page's tokens are about a megabyte), so no page-sized float plane
// is ever built and the raster is the only page-sized allocation.
func decodeSICV2(data []byte, w, h, quality, workers int) (*Raster, error) {
	lumaQT := quantTable(lumaQBase, quality)
	chromaQT := quantTable(chromaQBase, quality)
	cw := (w + 1) / 2
	s := decoderPool.Get().(*sicDecoder)
	defer func() {
		// Drop the reference into the raster before the decoder waits
		// in the pool.
		s.pix = nil
		decoderPool.Put(s)
	}()
	body := byteCursor{b: data}
	for pi := range s.planes {
		clen, err := body.readUvarint()
		if err != nil {
			return nil, fmt.Errorf("imagecodec: truncated plane length: %w", err)
		}
		if clen > uint64(len(body.b)-body.i) {
			return nil, errors.New("imagecodec: SICv2 plane length overruns stream")
		}
		comp := body.b[body.i : body.i+int(clen)]
		body.i += int(clen)
		pw, ph, qt := w, h, &lumaQT
		if pi > 0 {
			pw, ph, qt = cw, (h+1)/2, &chromaQT
		}
		if err := s.planes[pi].start(comp, pw, ph, qt); err != nil {
			return nil, err
		}
	}
	bwY, bwC := s.planes[0].bw, s.planes[1].bw
	s.blkBuf = slices.Grow(s.blkBuf[:0], bandRows*(bwY+bwC))[:bandRows*(bwY+bwC)]
	s.sampBuf = slices.Grow(s.sampBuf[:0], bandPixRows*(w+cw))[:bandPixRows*(w+cw)]
	// A macro row is worth a goroutine only with minChunkBlocks blocks.
	perMacro := 2*bwY + 2*bwC
	minChunk := (minChunkBlocks + perMacro - 1) / perMacro
	render := s.render

	var out *Raster
	for y0 := 0; y0 < h; y0 += bandPixRows {
		bh := min(bandPixRows, h-y0)
		ch := (bh + 1) / 2
		f := s.sampBuf
		s.bands[0] = plane{w: w, h: bh, pix: f[:w*bh]}
		s.bands[1] = plane{w: cw, h: ch, pix: f[w*bh : w*bh+cw*ch]}
		s.bands[2] = plane{w: cw, h: ch, pix: f[w*bh+cw*ch : w*bh+2*cw*ch]}
		nY, nC := bwY*((bh+7)/8), bwC*((ch+7)/8)
		b := s.blkBuf
		s.blocks = [3][]decBlock{b[:nY], b[nY : nY+nC], b[nY+nC : nY+2*nC]}
		for pi := range s.planes {
			if err := s.planes[pi].parse(s.blocks[pi]); err != nil {
				return nil, err
			}
		}
		if out == nil {
			out = NewBlackRaster(w, h)
		}
		s.pix = out.Pix[3*w*y0 : 3*w*(y0+bh)]
		parallel.For(workers, (bh+macroPixRows-1)/macroPixRows, minChunk, render)
	}
	for pi := range s.planes {
		d := &s.planes[pi]
		if err := d.fill(1); err != nil {
			return nil, err
		}
		if d.c.i != len(d.c.b) {
			return nil, errV2Extra
		}
	}
	return out, nil
}
