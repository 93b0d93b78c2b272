package imagecodec

import (
	"math/rand"
	"testing"
)

// benchRaster builds a webpage-like raster: large flat regions with
// blocks of text-like detail and a photo-like gradient band.
func benchRaster(w, h int, seed int64) *Raster {
	rng := rand.New(rand.NewSource(seed))
	r := whiteRaster(w, h)
	r.Fill(RGB{255, 255, 255})
	// Nav bar.
	r.FillRect(0, 0, w, 40, RGB{30, 60, 120})
	// Text-like noise blocks.
	for b := 0; b < 12; b++ {
		x0, y0 := rng.Intn(w/2), 60+rng.Intn(h-120)
		for y := y0; y < y0+24 && y < h; y++ {
			for x := x0; x < x0+w/3 && x < w; x++ {
				if rng.Intn(3) == 0 {
					r.Set(x, y, RGB{20, 20, 20})
				}
			}
		}
	}
	// Photo-like gradient band.
	for y := h / 2; y < h/2+100 && y < h; y++ {
		for x := 0; x < w; x++ {
			r.Set(x, y, RGB{uint8(x * 255 / w), uint8(y % 256), 128})
		}
	}
	return r
}

func BenchmarkEncodeSIC(b *testing.B) {
	img := benchRaster(640, 960, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EncodeSIC(img, 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeSIC(b *testing.B) {
	img := benchRaster(640, 960, 1)
	enc, err := EncodeSIC(img, 10)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeSIC(enc); err != nil {
			b.Fatal(err)
		}
	}
}
