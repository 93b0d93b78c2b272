package imagecodec

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
)

// The decoder walks a page in bands of bandRows luma block rows (and
// half as many chroma block rows), carries each plane's parse state
// across them, and transforms a repeated coded block once. These pins
// put the seams where they break: dimensions on both sides of a band
// edge, flat runs that cross one, and coded blocks the block memo must
// tell apart or may share.

// seamRaster is a page in miniature whose coded blocks repeat: a small
// alphabet of 8x8 glyphs tiled on the block grid, a colored bar across
// the first band edge, and a noisy patch that never repeats.
func seamRaster(w, h int) *Raster {
	rng := rand.New(rand.NewSource(int64(w*h + 1)))
	var glyphs [3][64]bool
	for g := range glyphs {
		for i := range glyphs[g] {
			glyphs[g][i] = rng.Intn(3) == 0
		}
	}
	r := NewRaster(w, h)
	r.FillRect(0, 100, w, 60, RGB{200, 40, 90})
	for cy := 0; cy*8 < h; cy++ {
		for cx := 0; cx*8 < w; cx++ {
			g := (cx*7 + cy*3) % 5
			if g >= len(glyphs) || (cy*8 >= 100 && cy*8 < 160) {
				continue
			}
			for i, on := range glyphs[g] {
				if on {
					r.Set(cx*8+i%8, cy*8+i/8, RGB{20, 20, 20})
				}
			}
		}
	}
	for y := h / 2; y < h/2+20 && y < h; y++ {
		for x := 0; x < w/3; x++ {
			r.Set(x, y, RGB{uint8(rng.Intn(256)), uint8(rng.Intn(256)), uint8(rng.Intn(256))})
		}
	}
	return r
}

// seamTokens is one hand-built plane of n blocks whose decode band holds
// bandBlocks of them (n > bandBlocks+4): coded blocks that repeat, that
// share AC tokens under other DCs and that code the same coefficients in
// escape form, a flat run across the first band edge (inline when it
// fits), a coded block past it repeating one from before it, a run of
// coded blocks that differ only in DC, and a long run to the end.
func seamTokens(n, bandBlocks int) []byte {
	var q [64]int32
	q[1], q[2], q[5], q[9], q[40] = 3, -2, 1, -7, 2
	packed := appendACv2(nil, &q)
	var escaped []byte
	run := 0
	for i := 1; i < 64; i++ {
		if q[i] == 0 {
			run++
			continue
		}
		escaped = append(escaped, v2ACEscape)
		escaped = appendUvarint(escaped, uint64(run))
		escaped = appendVarint(escaped, int(q[i]))
		run = 0
	}
	escaped = append(escaped, v2ACEnd)
	var t []byte
	coded := func(dcDelta int, ac []byte) {
		t = append(t, v2TagCoded)
		t = appendVarint(t, dcDelta)
		t = append(t, ac...)
	}
	coded(5, packed)   // block 0, DC 5: first sight
	coded(0, packed)   // 1: its first repeat
	coded(3, packed)   // 2: the same AC tokens under DC 8
	coded(-3, escaped) // 3: block 0's coefficients, escape form
	coded(0, packed)   // 4: a repeat of a held block
	t = append(t, v2TagFlatDC)
	t = appendVarint(t, 7) // 5: flat at DC 12
	if flat := bandBlocks + 2 - 6; flat <= v2TagRunMax+1 {
		t = append(t, byte(flat-1))
	} else {
		t = append(t, v2TagLongRun)
		t = appendUvarint(t, uint64(flat))
	}
	coded(-7, packed) // bandBlocks+2, DC 5: past the edge, held before it
	coded(1, packed)  // bandBlocks+3, DC 6
	// Up to 240 more DCs under the same AC tokens, twice over: enough
	// keys that memo probes meet entries of other DCs.
	ramp := min(240, (n-bandBlocks-5)/2)
	dc := 6
	for range 2 {
		for i := range ramp {
			coded(i-120-dc, packed)
			dc = i - 120
		}
	}
	t = append(t, v2TagLongRun)
	return appendUvarint(t, uint64(n-bandBlocks-4-2*ramp))
}

// sicStream frames three planes' tokens as a v2 stream.
func sicStream(tb testing.TB, w, h, quality int, planes [3][]byte) []byte {
	tb.Helper()
	out := []byte(sicMagicV2)
	out = binary.BigEndian.AppendUint32(out, uint32(w))
	out = binary.BigEndian.AppendUint32(out, uint32(h))
	out = append(out, byte(quality))
	for _, tok := range planes {
		comp, err := refV2Deflate(tok)
		if err != nil {
			tb.Fatal(err)
		}
		out = appendUvarint(out, uint64(len(comp)))
		out = append(out, comp...)
	}
	return out
}

// seamStreams is the band-seam stream set: the encoder's output for
// seamRaster at every height and width around a band edge, and
// hand-built streams whose runs cross band edges in every plane.
func seamStreams(tb testing.TB) map[string][]byte {
	tb.Helper()
	streams := map[string][]byte{}
	for _, h := range []int{1, 127, 128, 129, 255, 257} {
		for _, w := range []int{1, 7, 9, 1079} {
			enc, err := EncodeSIC(seamRaster(w, h), 50)
			if err != nil {
				tb.Fatal(err)
			}
			streams[fmt.Sprintf("encoded_%dx%d", w, h)] = enc
		}
	}
	for _, d := range [][2]int{{24, 300}, {1079, 257}} {
		w, h := d[0], d[1]
		bw, bh := (w+7)/8, (h+7)/8
		cbw, cbh := ((w+1)/2+7)/8, ((h+1)/2+7)/8
		luma := seamTokens(bw*bh, bandRows*bw)
		chroma := seamTokens(cbw*cbh, bandRows/2*cbw)
		streams[fmt.Sprintf("handbuilt_%dx%d", w, h)] = sicStream(tb, w, h, 50, [3][]byte{luma, chroma, chroma})
	}
	return streams
}

func TestSICDecodeBandsMatchReference(t *testing.T) {
	for name, data := range seamStreams(t) {
		want, err := refDecodeSICv2(data)
		if err != nil {
			t.Fatalf("%s: reference decode: %v", name, err)
		}
		for _, wk := range []int{1, 2, 3} {
			got, err := DecodeSICWorkers(data, wk)
			if err != nil {
				t.Fatalf("%s (workers=%d): %v", name, wk, err)
			}
			if got.W != want.W || got.H != want.H || !bytes.Equal(got.Pix, want.Pix) {
				t.Fatalf("%s (workers=%d): decoded pixels differ from reference", name, wk)
			}
		}
	}
}
