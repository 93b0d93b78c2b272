package imagecodec

import (
	"bytes"
	"image/png"
	"math/rand"
	"testing"
)

func TestRasterBasics(t *testing.T) {
	r := NewRaster(10, 5)
	if r.At(0, 0) != (RGB{255, 255, 255}) {
		t.Error("new raster should be white")
	}
	r.Set(3, 2, RGB{1, 2, 3})
	if r.At(3, 2) != (RGB{1, 2, 3}) {
		t.Error("Set/At mismatch")
	}
	// Out of bounds is safe.
	r.Set(-1, 0, RGB{9, 9, 9})
	r.Set(10, 0, RGB{9, 9, 9})
	if r.At(-1, 0) != (RGB{}) || r.At(0, 99) != (RGB{}) {
		t.Error("out-of-bounds At should be black")
	}
	if !r.In(9, 4) || r.In(10, 4) || r.In(0, -1) {
		t.Error("In() wrong")
	}
}

func TestRasterFillAndRect(t *testing.T) {
	r := NewRaster(8, 8)
	r.Fill(RGB{10, 20, 30})
	if r.At(7, 7) != (RGB{10, 20, 30}) {
		t.Error("Fill failed")
	}
	r.FillRect(2, 2, 3, 3, RGB{200, 0, 0})
	if r.At(2, 2) != (RGB{200, 0, 0}) || r.At(4, 4) != (RGB{200, 0, 0}) {
		t.Error("FillRect interior wrong")
	}
	if r.At(5, 5) != (RGB{10, 20, 30}) {
		t.Error("FillRect overflowed")
	}
	// Clipped rect must not panic.
	r.FillRect(-5, -5, 100, 100, RGB{1, 1, 1})
	if r.At(0, 0) != (RGB{1, 1, 1}) {
		t.Error("clipped FillRect missed in-bounds region")
	}
}

func TestRasterCloneEqualCrop(t *testing.T) {
	r := NewRaster(4, 6)
	r.Set(1, 5, RGB{5, 5, 5})
	c := r.Clone()
	if !r.Equal(c) {
		t.Error("clone not equal")
	}
	c.Set(0, 0, RGB{1, 1, 1})
	if r.Equal(c) {
		t.Error("Equal missed difference")
	}
	cropped := r.Crop(3)
	if cropped.W != 4 || cropped.H != 3 {
		t.Errorf("crop dims %dx%d", cropped.W, cropped.H)
	}
	if !r.Crop(100).Equal(r) {
		t.Error("crop beyond height should be identity")
	}
	if r.Crop(-1).H != 0 {
		t.Error("negative crop should be empty")
	}
}

func TestResizeNearest(t *testing.T) {
	r := NewRaster(4, 4)
	r.FillRect(0, 0, 2, 2, RGB{100, 0, 0})
	half := r.ResizeNearest(0.5)
	if half.W != 2 || half.H != 2 {
		t.Fatalf("dims %dx%d", half.W, half.H)
	}
	if half.At(0, 0) != (RGB{100, 0, 0}) {
		t.Error("top-left quadrant color lost")
	}
	if half.At(1, 1) != (RGB{255, 255, 255}) {
		t.Error("bottom-right quadrant color lost")
	}
	dbl := r.ResizeNearest(2.0)
	if dbl.W != 8 || dbl.H != 8 {
		t.Fatalf("dims %dx%d", dbl.W, dbl.H)
	}
	if dbl.At(3, 3) != (RGB{100, 0, 0}) || dbl.At(4, 4) != (RGB{255, 255, 255}) {
		t.Error("upscale wrong")
	}
	if r.ResizeNearest(0).W != 0 {
		t.Error("zero factor should be empty")
	}
	// The paper's scaling factor: phone width / 1080.
	page := NewRaster(PageWidth, 100)
	phone := page.ResizeNearest(720.0 / PageWidth)
	if phone.W != 720 {
		t.Errorf("scaled width = %d, want 720", phone.W)
	}
}

// refResizeNearest is ResizeNearest's per-pixel body as it stood before
// the column index table, frozen as the reference the live resize must
// match byte for byte.
func refResizeNearest(r *Raster, factor float64) *Raster {
	if factor <= 0 {
		return &Raster{}
	}
	nw := int(float64(r.W)*factor + 0.5)
	nh := int(float64(r.H)*factor + 0.5)
	if nw < 1 {
		nw = 1
	}
	if nh < 1 {
		nh = 1
	}
	out := NewBlackRaster(nw, nh)
	for y := 0; y < nh; y++ {
		sy := int(float64(y) / factor)
		if sy >= r.H {
			sy = r.H - 1
		}
		for x := 0; x < nw; x++ {
			sx := int(float64(x) / factor)
			if sx >= r.W {
				sx = r.W - 1
			}
			out.Set(x, y, r.At(sx, sy))
		}
	}
	return out
}

// TestResizeNearestMatchesReference pins the index-table resize to the
// frozen per-pixel one: the client's screen widths over a page, exact
// and fractional factors both ways, and degenerate 1-pixel rasters.
func TestResizeNearestMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	noise := func(w, h int) *Raster {
		r := NewRaster(w, h)
		rng.Read(r.Pix)
		return r
	}
	rasters := map[string]*Raster{
		"page": testPage(PageWidth, 300, 9),
		"odd":  noise(37, 53),
		"1x1":  noise(1, 1),
		"1xN":  noise(1, 41),
		"Nx1":  noise(41, 1),
		"0x0":  {},
	}
	factors := []float64{720.0 / PageWidth, 540.0 / PageWidth, 480.0 / PageWidth, 1, 2, 0.5, 0.013, 0}
	for name, r := range rasters {
		for _, f := range factors {
			got, want := r.ResizeNearest(f), refResizeNearest(r, f)
			if got.W != want.W || got.H != want.H || !bytes.Equal(got.Pix, want.Pix) {
				t.Errorf("%s x %g: %dx%d differs from the reference's %dx%d", name, f, got.W, got.H, want.W, want.H)
			}
		}
	}
}

func TestPNGRoundTrip(t *testing.T) {
	r := NewRaster(20, 10)
	r.FillRect(5, 2, 10, 6, RGB{12, 200, 99})
	var buf bytes.Buffer
	if err := r.WritePNG(&buf); err != nil {
		t.Fatal(err)
	}
	img, err := png.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if b := img.Bounds(); b.Dx() != r.W || b.Dy() != r.H {
		t.Fatalf("PNG is %dx%d, want %dx%d", b.Dx(), b.Dy(), r.W, r.H)
	}
	for y := 0; y < r.H; y++ {
		for x := 0; x < r.W; x++ {
			cr, cg, cb, _ := img.At(x, y).RGBA()
			if got := (RGB{uint8(cr >> 8), uint8(cg >> 8), uint8(cb >> 8)}); got != r.At(x, y) {
				t.Fatalf("pixel (%d,%d) = %v, want %v", x, y, got, r.At(x, y))
			}
		}
	}
}

func TestLuma(t *testing.T) {
	r := NewRaster(1, 1)
	r.Set(0, 0, RGB{255, 255, 255})
	if l := r.Luma(0, 0); l < 254 || l > 256 {
		t.Errorf("white luma = %g", l)
	}
	r.Set(0, 0, RGB{})
	if l := r.Luma(0, 0); l != 0 {
		t.Errorf("black luma = %g", l)
	}
}
