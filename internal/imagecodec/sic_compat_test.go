package imagecodec

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Bitstream compatibility suite. testdata/sic_v2 holds golden bitstreams
// of the live format (one per equivalence raster × quality) with the raw
// RGB pixels each must decode to, produced by the frozen v2 reference
// when it deflated at flate level 2. The encoder has since moved to
// level 6 (sicV2FlateLevel), an encoder-only choice the format does not
// record, so these streams are now also the fixture for streams aired
// before that change: the live decoder must keep reading them. The
// margin cells, added after the move, are at level 6. Only emitted
// generations are decoded: v1, which no encoder has emitted since the
// v2 bump and nothing persists, is rejected by the version gate like any
// unknown byte. Regenerating rewrites the streams at the reference's
// current level and drops the level-2 fixture, so do it only after a
// deliberate format change, alongside its version bump:
//
//	SIC_GOLDEN_REGEN=1 go test ./internal/imagecodec -run TestSICGolden
//
// To add the cells of a new equivalence raster alone, regenerate and
// then restore the tracked files (git checkout internal/imagecodec/testdata).

var goldenQualities = []int{0, 10, 50, 95}

// goldenStream returns the checked-in paths for one (raster, quality)
// cell.
func goldenStream(name string, q int) (sicPath, pixPath string) {
	dir := filepath.Join("testdata", "sic_v2")
	return filepath.Join(dir, fmt.Sprintf("%s_q%d.sic", name, q)),
		filepath.Join(dir, fmt.Sprintf("%s_q%d.pix", name, q))
}

// regenGolden rewrites the golden set from the frozen reference codec
// pair, never from the live one.
func regenGolden(t *testing.T) {
	t.Helper()
	if err := os.MkdirAll(filepath.Join("testdata", "sic_v2"), 0o755); err != nil {
		t.Fatal(err)
	}
	for name, src := range equivRasters() {
		for _, q := range goldenQualities {
			blob, err := refEncodeSICv2(src, q)
			if err != nil {
				t.Fatalf("%s q=%d: encode: %v", name, q, err)
			}
			pix, err := refDecodeSICv2(blob)
			if err != nil {
				t.Fatalf("%s q=%d: decode: %v", name, q, err)
			}
			sicPath, pixPath := goldenStream(name, q)
			if err := os.WriteFile(sicPath, blob, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(pixPath, pix.Pix, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	t.Log("regenerated testdata/sic_v2")
}

// regenFuzzCorpus writes the FuzzSICDecode seed corpus in Go's corpus
// file format: an intact stream plus the mutations most likely to probe
// the version gate and framing, so a CI fuzz smoke starts from a real
// bitstream rather than rediscovering the header.
func regenFuzzCorpus(t *testing.T) {
	t.Helper()
	dir := filepath.Join("testdata", "fuzz", "FuzzSICDecode")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	sicPath, _ := goldenStream("odd", 10)
	blob, err := os.ReadFile(sicPath)
	if err != nil {
		t.Fatal(err)
	}
	mut := bytes.Clone(blob)
	mut[3] = '9'
	entries := map[string][]byte{
		"v2_odd_q10":    blob,
		"v2_truncated":  blob[:len(blob)/3],
		"v2_badversion": mut,
	}
	for name, data := range entries {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("regenerated %s (%d entries)", dir, len(entries))
}

// TestSICGoldenStreams decodes every checked-in stream through the live
// decoder (at one worker and at four) and demands the exact golden pixels.
func TestSICGoldenStreams(t *testing.T) {
	if os.Getenv("SIC_GOLDEN_REGEN") != "" {
		regenGolden(t)
		regenFuzzCorpus(t)
	}
	for name := range equivRasters() {
		for _, q := range goldenQualities {
			sicPath, pixPath := goldenStream(name, q)
			blob, err := os.ReadFile(sicPath)
			if err != nil {
				t.Fatalf("golden stream missing (run SIC_GOLDEN_REGEN=1 after a format change): %v", err)
			}
			wantPix, err := os.ReadFile(pixPath)
			if err != nil {
				t.Fatal(err)
			}
			if blob[3] != '2' {
				t.Fatalf("%s: version byte %q, want '2'", sicPath, blob[3])
			}
			for _, wk := range []int{1, 4} {
				r, err := DecodeSICWorkers(blob, wk)
				if err != nil {
					t.Fatalf("%s (workers=%d): decode: %v", sicPath, wk, err)
				}
				if len(r.Pix) != 3*r.W*r.H {
					t.Fatalf("%s: inconsistent raster %dx%d with %d pixel bytes", sicPath, r.W, r.H, len(r.Pix))
				}
				if !bytes.Equal(r.Pix, wantPix) {
					t.Fatalf("%s (workers=%d): decoded pixels differ from golden", sicPath, wk)
				}
			}
		}
	}
}

// TestSICFlateLevelIsEncoderOnly deflates the reference token planes of
// every golden cell at each flate level 1–9 and demands the golden
// pixels from the live decoder (one worker and four) and from
// refDecodeSICv2 alike: the level changes the bytes on air, never what
// they decode to, so the encoder may move it without a version bump.
func TestSICFlateLevelIsEncoderOnly(t *testing.T) {
	for name, src := range equivRasters() {
		for _, q := range goldenQualities {
			_, pixPath := goldenStream(name, q)
			wantPix, err := os.ReadFile(pixPath)
			if err != nil {
				t.Fatal(err)
			}
			sizes := map[int]bool{}
			for level := 1; level <= 9; level++ {
				blob, err := refEncodeSICv2Level(src, q, level)
				if err != nil {
					t.Fatalf("%s q=%d level=%d: encode: %v", name, q, level, err)
				}
				sizes[len(blob)] = true
				ref, err := refDecodeSICv2(blob)
				if err != nil {
					t.Fatalf("%s q=%d level=%d: ref decode: %v", name, q, level, err)
				}
				if !bytes.Equal(ref.Pix, wantPix) {
					t.Fatalf("%s q=%d level=%d: reference pixels differ from golden", name, q, level)
				}
				for _, wk := range []int{1, 4} {
					r, err := DecodeSICWorkers(blob, wk)
					if err != nil {
						t.Fatalf("%s q=%d level=%d (workers=%d): decode: %v", name, q, level, wk, err)
					}
					if !bytes.Equal(r.Pix, wantPix) {
						t.Fatalf("%s q=%d level=%d (workers=%d): decoded pixels differ from golden", name, q, level, wk)
					}
				}
			}
			if name == "page" && len(sizes) < 2 {
				t.Fatalf("%s q=%d: every level gave the same stream size; the levels were not exercised", name, q)
			}
		}
	}
}

// TestSICVersionByteValidation pins the decoder's version gate: only the
// emitted generation byte '2' is accepted, and everything else — the
// retired '1' included — fails closed up front with the
// unsupported-version error rather than being parsed as some other
// generation's body.
func TestSICVersionByteValidation(t *testing.T) {
	src := equivRasters()["noise"]
	enc, err := EncodeSIC(src, 50)
	if err != nil {
		t.Fatal(err)
	}
	if enc[3] != '2' {
		t.Fatalf("current encoder emitted version byte %q, want '2'", enc[3])
	}
	for _, bad := range []byte{'0', '1', '3', 'A', 0x00, 0xFF} {
		mut := bytes.Clone(enc)
		mut[3] = bad
		for _, wk := range []int{1, 3} {
			if _, err := DecodeSICWorkers(mut, wk); err == nil {
				t.Fatalf("version byte %#x (workers=%d): decode accepted an unknown generation", bad, wk)
			} else if !strings.Contains(err.Error(), "version") {
				t.Fatalf("version byte %#x (workers=%d): error %q does not name the version gate", bad, wk, err)
			}
		}
	}
}

// FuzzSICDecode throws arbitrary bytes at the SIC decoder. The seed
// corpus is golden streams of the live format at two qualities, the
// band-seam streams (seamStreams) plus degenerate headers (a bare v1 header among them: the retired
// generation must fail closed, and a forged 32768x32768 header must be
// refused before anything is sized from it). The decoder must never
// panic, must return consistent raster geometry on success, must give
// the same verdict and pixels at one worker and at three, and must agree
// with the frozen reference decoder on both — the fuzzer doubles as a
// differential harness against refDecodeSICv2. The reference accepts
// rasters larger than the largest page, which the live decoder refuses;
// those inputs are only checked for the refusal.
func FuzzSICDecode(f *testing.F) {
	for _, q := range []int{10, 50} {
		for name := range equivRasters() {
			sicPath, _ := goldenStream(name, q)
			if blob, err := os.ReadFile(sicPath); err == nil {
				f.Add(blob)
			}
		}
	}
	for _, data := range seamStreams(f) {
		f.Add(data)
	}
	f.Add([]byte{})
	f.Add([]byte("SIC1"))
	f.Add([]byte("SIC2\x00\x00\x00\x01\x00\x00\x00\x01\x0a"))
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	f.Add(flatRunStream(f, 1<<15, 1<<15))
	f.Add(flateBombStream(f, PageWidth, MaxPageHeight, 16<<20))

	f.Fuzz(func(t *testing.T, data []byte) {
		one, err1 := DecodeSICWorkers(data, 1)
		if err1 == nil {
			if one == nil {
				t.Fatal("nil raster with nil error")
			}
			if len(one.Pix) != 3*one.W*one.H || one.W <= 0 || one.H <= 0 {
				t.Fatalf("inconsistent raster %dx%d with %d pixel bytes", one.W, one.H, len(one.Pix))
			}
		}
		three, err3 := DecodeSICWorkers(data, 3)
		if (err1 == nil) != (err3 == nil) {
			t.Fatalf("decoders at 1 and 3 workers disagree on validity: %v vs %v", err1, err3)
		}
		if err1 == nil && !bytes.Equal(one.Pix, three.Pix) {
			t.Fatal("decoders at 1 and 3 workers produced different pixels")
		}
		if len(data) >= 13 {
			w, h := binary.BigEndian.Uint32(data[4:8]), binary.BigEndian.Uint32(data[8:12])
			if uint64(w)*uint64(h) > PageWidth*MaxPageHeight {
				if err1 == nil {
					t.Fatalf("accepted a %dx%d raster, larger than the largest page", w, h)
				}
				return
			}
		}
		ref, rerr := refDecodeSICv2(data)
		if (err1 == nil) != (rerr == nil) {
			t.Fatalf("live and reference decoders disagree on validity: %v vs %v", err1, rerr)
		}
		if err1 == nil && (ref.W != one.W || ref.H != one.H || !bytes.Equal(ref.Pix, one.Pix)) {
			t.Fatal("live decoder's pixels differ from the reference decoder's")
		}
	})
}

// FuzzSICEncodeMatchesReference is the encoder's differential harness:
// a small raster the fuzzer draws, at a quality it picks, must encode to
// the frozen reference encoder's bytes at one worker and at three. In
// gradient mode each pixel is a per-channel gradient plus the fuzzer's
// data shifted right by grain%8, so a large shift keeps blocks to the
// low ranges where the DC-only bound decides, and a small one gives the
// transform real work; every block it makes has three or more triples.
// In tile mode (tilePalette) data paints each 8x8 tile as one of the
// classes the loaders tell apart: solid, two triples, two gray triples,
// three or more gray levels, or colour. The seeds are low-range content
// around the DC-only bound, and tiled rasters whose widths leave a
// chroma edge column over 8 pixels (width = 8 mod 16), as a 1080-wide
// page does.
func FuzzSICEncodeMatchesReference(f *testing.F) {
	grainSeed := rand.New(rand.NewSource(5))
	grainBytes := make([]byte, 97)
	for i := range grainBytes {
		grainBytes[i] = byte(grainSeed.Intn(256))
	}
	f.Add(uint8(47), uint8(33), uint8(10), uint8(5), false, grainBytes)
	f.Add(uint8(40), uint8(40), uint8(0), uint8(4), false, grainBytes)
	f.Add(uint8(17), uint8(9), uint8(50), uint8(6), false, grainBytes[:13])
	f.Add(uint8(31), uint8(24), uint8(10), uint8(7), false, []byte(nil))
	f.Add(uint8(1), uint8(1), uint8(95), uint8(0), false, []byte{200})
	// A 40x40 raster is 5x5 tiles: four interior 16x16 regions, and an
	// edge column and row 8 pixels deep. tiled sets the listed tiles' d
	// and leaves the rest solid white.
	tiled := func(set map[int]byte) []byte {
		data := make([]byte, 2*25)
		for t, d := range set {
			data[2*t] = d
		}
		return data
	}
	// One solid colour (120) quadrant in each position, an edge region
	// half colour, a corner of a colour per pixel (4).
	f.Add(uint8(39), uint8(39), uint8(10), uint8(0), true, tiled(map[int]byte{6: 120, 7: 120, 11: 120, 12: 120, 19: 120, 24: 4}))
	// Two-triple tiles of colour over white (26) and white over colour
	// (96), each the only non-white quadrant of its region.
	f.Add(uint8(39), uint8(39), uint8(50), uint8(0), true, tiled(map[int]byte{0: 26, 3: 96, 11: 96, 18: 26}))
	// Three gray levels in each quadrant position, untinted (3) and
	// tinted (0x80), beside two gray triples (2).
	f.Add(uint8(39), uint8(39), uint8(50), uint8(0), true, tiled(map[int]byte{0: 3, 3: 0x80, 15: 0x80, 12: 3, 18: 3, 2: 2}))
	// A 36-pixel-wide raster: the last tile column is a partial luma
	// block, here white with colour under a mask (96), beside white.
	f.Add(uint8(35), uint8(39), uint8(10), uint8(0), true, tiled(map[int]byte{4: 96, 14: 96, 24: 96}))
	f.Add(uint8(23), uint8(47), uint8(10), uint8(3), true, grainBytes)
	f.Add(uint8(39), uint8(31), uint8(0), uint8(1), true, []byte(nil))

	f.Fuzz(func(t *testing.T, w, h, quality, grain uint8, tiles bool, data []byte) {
		r := whiteRaster(1+int(w)%48, 1+int(h)%48)
		if tiles {
			tilePalette(r, grain, data)
		} else {
			for i := range r.Pix {
				x, y, c := i/3%r.W, i/3/r.W, i%3
				v := 40 + (c+1)*x + (3-c)*y
				if len(data) > 0 {
					v += int(data[i%len(data)] >> (grain % 8))
				}
				r.Pix[i] = byte(min(v, 255))
			}
		}
		q := int(quality) % (MaxQuality + 1)
		want, err := refEncodeSICv2(r, q)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 3} {
			got, err := EncodeSICWorkers(r, q, workers)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%dx%d q=%d workers=%d tiles=%v: bytes differ from the reference encoder", r.W, r.H, q, workers, tiles)
			}
		}
	})
}

// tilePalette paints r one 8x8 tile at a time in row-major tile order,
// each tile from two bytes of data in turn, d and e (a fixed sequence
// when data is empty). d%5 picks the tile's class: solid, two triples
// under a mask, two gray triples under a mask, three gray levels (its
// last row red when d >= 0x80, so a gray scan fails late), or a colour
// per pixel. Solid and two-triple tiles take their triples from a
// four-entry palette (d>>3&3 and d>>5&3; grain tints its one colour), so
// neighbouring tiles often share a triple; e seeds the gray levels, the
// mask and the colours.
func tilePalette(r *Raster, grain uint8, data []byte) {
	palette := [4]RGB{{255, 255, 255}, {0, 0, 0}, {128, 128, 128}, {200, 40 + grain, 90}}
	gray := func(v byte) RGB { return RGB{v, v, v} }
	t := 0
	for ty := 0; ty < r.H; ty += 8 {
		for tx := 0; tx < r.W; tx += 8 {
			d, e := byte(37*t), byte(101*t)
			if len(data) > 0 {
				d, e = data[2*t%len(data)], data[(2*t+1)%len(data)]
			}
			t++
			a, b := palette[d>>3&3], palette[d>>5&3]
			for y := ty; y < min(ty+8, r.H); y++ {
				for x := tx; x < min(tx+8, r.W); x++ {
					i := uint32(8*(y-ty) + x - tx)
					hash := (uint32(e)+1)*2654435761 ^ (i+1)*40503
					hash ^= hash >> 13
					p := a
					switch d % 5 {
					case 1:
						if hash&1 != 0 {
							p = b
						}
					case 2:
						p = gray(e ^ byte(hash&1)<<7)
					case 3:
						p = gray(e + 85*byte(hash%3))
						if d >= 0x80 && y == ty+7 {
							p = RGB{200, 0, 0}
						}
					case 4:
						p = RGB{byte(hash), byte(hash >> 8), byte(hash >> 16)}
					}
					r.Set(x, y, p)
				}
			}
		}
	}
}
