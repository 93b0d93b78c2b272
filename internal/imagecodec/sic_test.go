package imagecodec

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// testPage builds a webpage-like raster: white background, colored header
// band, text-like speckle rows, and an image-like noisy block.
func testPage(w, h int, seed int64) *Raster {
	rng := rand.New(rand.NewSource(seed))
	r := whiteRaster(w, h)
	r.FillRect(0, 0, w, h/10, RGB{30, 60, 160}) // header
	// "Text" rows: dark pixels scattered on white.
	for y := h / 8; y < h/2; y += 3 {
		for x := 8; x < w-8; x++ {
			if rng.Float64() < 0.25 {
				r.Set(x, y, RGB{20, 20, 20})
			}
		}
	}
	// "Image": smooth gradient + noise block.
	for y := h / 2; y < h*9/10; y++ {
		for x := w / 4; x < w*3/4; x++ {
			v := uint8((x * 255 / w) & 0xFF)
			n := uint8(rng.Intn(24))
			r.Set(x, y, RGB{v, n + 100, uint8(y * 255 / h)})
		}
	}
	return r
}

func mse(a, b *Raster) float64 {
	var acc float64
	for i := range a.Pix {
		d := float64(a.Pix[i]) - float64(b.Pix[i])
		acc += d * d
	}
	return acc / float64(len(a.Pix))
}

func psnr(a, b *Raster) float64 {
	m := mse(a, b)
	if m == 0 {
		return math.Inf(1)
	}
	return 10 * math.Log10(255*255/m)
}

func TestSICRejectsBadInput(t *testing.T) {
	if _, err := EncodeSIC(nil, 50); err == nil {
		t.Error("nil raster should fail")
	}
	if _, err := EncodeSIC(&Raster{}, 50); err == nil {
		t.Error("empty raster should fail")
	}
	if _, err := EncodeSIC(whiteRaster(4, 4), 96); err == nil {
		t.Error("quality > 95 should fail")
	}
	if _, err := EncodeSIC(whiteRaster(4, 4), -1); err == nil {
		t.Error("negative quality should fail")
	}
	if _, err := DecodeSIC([]byte("XXXX")); err == nil {
		t.Error("short stream should fail")
	}
	if _, err := DecodeSIC(append([]byte("SIC1"), make([]byte, 20)...)); err == nil {
		t.Error("zero-dimension stream should fail")
	}
}

func TestSICRoundTripQuality(t *testing.T) {
	src := testPage(160, 160, 1)
	for _, q := range []int{10, 50, 90} {
		enc, err := EncodeSIC(src, q)
		if err != nil {
			t.Fatalf("q=%d: %v", q, err)
		}
		dec, err := DecodeSIC(enc)
		if err != nil {
			t.Fatalf("q=%d: %v", q, err)
		}
		if dec.W != src.W || dec.H != src.H {
			t.Fatalf("q=%d: dims %dx%d", q, dec.W, dec.H)
		}
		p := psnr(src, dec)
		minPSNR := map[int]float64{10: 18, 50: 24, 90: 30}[q]
		if p < minPSNR {
			t.Errorf("q=%d: PSNR %.1f dB below %g", q, p, minPSNR)
		}
	}
}

func TestSICQualityMonotonicity(t *testing.T) {
	// Higher quality => larger file and better PSNR (Figure 4(b)'s axis).
	src := testPage(160, 240, 2)
	var prevSize int
	var prevPSNR float64
	for _, q := range []int{10, 50, 90} {
		enc, err := EncodeSIC(src, q)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := DecodeSIC(enc)
		if err != nil {
			t.Fatal(err)
		}
		p := psnr(src, dec)
		if prevSize > 0 {
			if len(enc) <= prevSize {
				t.Errorf("q=%d size %d not > previous %d", q, len(enc), prevSize)
			}
			if p <= prevPSNR {
				t.Errorf("q=%d PSNR %.1f not > previous %.1f", q, p, prevPSNR)
			}
		}
		prevSize, prevPSNR = len(enc), p
	}
}

func TestSICCompressesFlatContent(t *testing.T) {
	// A mostly-flat page must compress far below raw size (the 10x
	// compression claim from §3.2 depends on this).
	src := whiteRaster(320, 320)
	src.FillRect(0, 0, 320, 40, RGB{40, 80, 200})
	enc, err := EncodeSIC(src, 10)
	if err != nil {
		t.Fatal(err)
	}
	raw := 3 * 320 * 320
	if len(enc)*20 > raw {
		t.Errorf("flat page: %d bytes, want <5%% of raw %d", len(enc), raw)
	}
}

func TestSICNonMultipleOf8Dims(t *testing.T) {
	src := testPage(37, 53, 3)
	enc, err := EncodeSIC(src, 75)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeSIC(enc)
	if err != nil {
		t.Fatal(err)
	}
	if dec.W != 37 || dec.H != 53 {
		t.Fatalf("dims %dx%d", dec.W, dec.H)
	}
	if p := psnr(src, dec); p < 24 {
		t.Errorf("PSNR %.1f at q75", p)
	}
}

// flatRunStream builds the smallest well-formed SIC stream for a w x h
// raster: each plane is one long flat-run tag, so the stream is a few
// dozen bytes whatever size its header claims.
func flatRunStream(tb testing.TB, w, h int) []byte {
	tb.Helper()
	out := []byte(sicMagicV2)
	out = binary.BigEndian.AppendUint32(out, uint32(w))
	out = binary.BigEndian.AppendUint32(out, uint32(h))
	out = append(out, 10)
	cw, ch := (w+1)/2, (h+1)/2
	for _, d := range [3][2]int{{w, h}, {cw, ch}, {cw, ch}} {
		blocks := ((d[0] + 7) / 8) * ((d[1] + 7) / 8)
		comp, err := refV2Deflate(appendUvarint([]byte{v2TagLongRun}, uint64(blocks)))
		if err != nil {
			tb.Fatal(err)
		}
		out = appendUvarint(out, uint64(len(comp)))
		out = append(out, comp...)
	}
	return out
}

// TestSICDecodeRefusesOversizeRasters: the phone decodes bytes from the
// air, so a forged header must fail closed before the decoder sizes
// anything from it. Before the PageWidth x MaxPageHeight bound, the
// 49-byte 32768x32768 stream killed the process (runtime: out of memory
// in getPlane) and the 46-byte 8192x8192 one decoded after allocating
// 1.28 GB.
func TestSICDecodeRefusesOversizeRasters(t *testing.T) {
	for _, c := range []struct {
		w, h int
		ok   bool
	}{
		{1 << 15, 1 << 15, false},
		{8192, 8192, false},
		{PageWidth, MaxPageHeight + 1, false},
		{PageWidth + 1, MaxPageHeight, false},
		{2 * PageWidth, 64, true}, // the bound is on the pixel count, not the width
		{64, 48, true},
	} {
		data := flatRunStream(t, c.w, c.h)
		for _, wk := range []int{1, 3} {
			img, err := DecodeSICWorkers(data, wk)
			if c.ok != (err == nil) {
				t.Fatalf("%dx%d (%d bytes, workers=%d): err = %v, want ok=%v", c.w, c.h, len(data), wk, err, c.ok)
			}
			if c.ok && (img.W != c.w || img.H != c.h) {
				t.Fatalf("%dx%d: decoded %dx%d", c.w, c.h, img.W, img.H)
			}
		}
	}
}

// flateBombStream is a w x h stream whose luma segment inflates to n
// one-block run tags and whose chroma segments are empty: about 1 KB
// per MiB of tokens, which the parse rejects at the first band's Cb tag.
func flateBombStream(tb testing.TB, w, h, n int) []byte {
	tb.Helper()
	var luma bytes.Buffer
	fw, err := flate.NewWriter(&luma, flate.BestCompression)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := fw.Write(make([]byte, n)); err != nil {
		tb.Fatal(err)
	}
	if err := fw.Close(); err != nil {
		tb.Fatal(err)
	}
	empty, err := refV2Deflate(nil)
	if err != nil {
		tb.Fatal(err)
	}
	out := []byte(sicMagicV2)
	out = binary.BigEndian.AppendUint32(out, uint32(w))
	out = binary.BigEndian.AppendUint32(out, uint32(h))
	out = append(out, 10)
	for _, comp := range [][]byte{luma.Bytes(), empty, empty} {
		out = appendUvarint(out, uint64(len(comp)))
		out = append(out, comp...)
	}
	return out
}

// TestSICFlateBombAllocation: a segment is inflated only as far as the
// parse reads it, so what a malformed stream costs does not grow with
// what its segments would inflate to. Inflating whole planes before the
// parse, a 16 KB bomb allocated 57 MB and a 65 KB one 135 MB, only to
// fail at the first band. Both now stay under the declared raster's
// w*h/2 bytes (a sixth of the raster), well below the ~35 MB a real
// decode of it needs.
func TestSICFlateBombAllocation(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation changes what is allocated")
	}
	const w, h = PageWidth, MaxPageHeight
	var got [2]uint64
	for i, n := range []int{16 << 20, 64 << 20} {
		data := flateBombStream(t, w, h, n)
		runtime.GC()
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := DecodeSICWorkers(data, 1)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%d-byte bomb decoded", len(data))
		}
		got[i] = after.TotalAlloc - before.TotalAlloc
		t.Logf("%d MiB of tokens in %d bytes: %.2f MB allocated (%v)", n>>20, len(data), float64(got[i])/1e6, err)
		if limit := uint64(w * h / 2); got[i] > limit {
			t.Errorf("%d-byte bomb allocated %d bytes, want <= w*h/2 = %d", len(data), got[i], limit)
		}
	}
	if got[1] > got[0] {
		t.Errorf("the 64 MiB bomb allocated %d bytes, more than the 16 MiB one's %d", got[1], got[0])
	}
}

func TestSICTruncatedStream(t *testing.T) {
	enc, err := EncodeSIC(testPage(64, 64, 4), 50)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeSIC(enc[:len(enc)/2]); err == nil {
		t.Error("truncated stream should fail")
	}
}

// fdctBlock applies the separable 2-D forward DCT to an 8x8 block — the
// inverse of idctBlock, which is all the decoder needs; the encoder runs
// the integer AAN transform instead.
func fdctBlock(b *[64]float64) {
	var row [8]float64
	for y := 0; y < 8; y++ {
		copy(row[:], b[y*8:y*8+8])
		fdct8(&row)
		copy(b[y*8:y*8+8], row[:])
	}
	for x := 0; x < 8; x++ {
		for y := 0; y < 8; y++ {
			row[y] = b[y*8+x]
		}
		fdct8(&row)
		for y := 0; y < 8; y++ {
			b[y*8+x] = row[y]
		}
	}
}

func TestDCTRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var blk, orig [64]float64
	for i := range blk {
		blk[i] = rng.Float64()*255 - 128
		orig[i] = blk[i]
	}
	fdctBlock(&blk)
	idctBlock(&blk)
	for i := range blk {
		if math.Abs(blk[i]-orig[i]) > 1e-9 {
			t.Fatalf("DCT round trip error at %d: %g vs %g", i, blk[i], orig[i])
		}
	}
}

func TestDCTEnergyCompaction(t *testing.T) {
	// A constant block concentrates all energy in DC.
	var blk [64]float64
	for i := range blk {
		blk[i] = 100
	}
	fdctBlock(&blk)
	if math.Abs(blk[0]-800) > 1e-9 { // 100 * 8 (orthonormal 2-D: 100*sqrt(64))
		t.Errorf("DC = %g, want 800", blk[0])
	}
	for i := 1; i < 64; i++ {
		if math.Abs(blk[i]) > 1e-9 {
			t.Errorf("AC[%d] = %g, want 0", i, blk[i])
		}
	}
}

func TestQuantTableScaling(t *testing.T) {
	q10 := quantTable(lumaQBase, 10)
	q90 := quantTable(lumaQBase, 90)
	for i := range q10 {
		if q10[i] < q90[i] {
			t.Fatalf("q10 table entry %d (%d) smaller than q90 (%d)", i, q10[i], q90[i])
		}
		if q10[i] < 1 || q10[i] > 255 {
			t.Fatalf("table entry out of range: %d", q10[i])
		}
	}
}

func TestVarintRoundTrip(t *testing.T) {
	for _, v := range []int{0, 1, -1, 127, -128, 300, -300, 1 << 20, -(1 << 20)} {
		buf := appendVarint(nil, v)
		c := &byteCursor{b: buf}
		got, err := c.readVarint()
		if err != nil || got != v {
			t.Errorf("varint %d -> %d, %v", v, got, err)
		}
	}
}

func BenchmarkSICEncodeQ10(b *testing.B) {
	src := testPage(PageWidth, 400, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EncodeSIC(src, 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSICDecodeQ10(b *testing.B) {
	enc, _ := EncodeSIC(testPage(PageWidth, 400, 1), 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeSIC(enc); err != nil {
			b.Fatal(err)
		}
	}
}
