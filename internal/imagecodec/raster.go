// Package imagecodec provides SONIC's image substrate: the Raster pixel
// buffer that rendered webpages are drawn into, the SIC lossy codec (a
// WebP stand-in with the same 0-95 quality knob, built from 8x8 DCT +
// quality-scaled quantization + DEFLATE entropy coding).
//
// The paper captures pages as WebP at quality 10, 1080 px wide, cropped to
// at most 10k px tall (§3.2). The standard library has no WebP codec, so
// SIC substitutes for it: same control surface, same qualitative
// rate-quality curve (see DESIGN.md for the substitution record).
package imagecodec

import (
	"errors"
	"image"
	"image/color"
	"image/png"
	"io"
)

// Standard SONIC page geometry (§3.2).
const (
	// PageWidth is the fixed rendering width in pixels.
	PageWidth = 1080
	// MaxPageHeight is the pixel-height crop limit ("PH:10k").
	MaxPageHeight = 10000
)

// RGB is one pixel.
type RGB struct{ R, G, B uint8 }

// Raster is a dense RGB image. Pixels are stored row-major, 3 bytes per
// pixel. The zero value is an empty image; use NewBlackRaster.
type Raster struct {
	W, H int
	Pix  []byte // len == 3*W*H
}

// NewBlackRaster allocates a W×H raster filled with black.
func NewBlackRaster(w, h int) *Raster {
	return &Raster{W: w, H: h, Pix: make([]byte, 3*w*h)}
}

// In reports whether (x, y) lies inside the raster.
func (r *Raster) In(x, y int) bool {
	return x >= 0 && x < r.W && y >= 0 && y < r.H
}

// At returns the pixel at (x, y); out-of-bounds reads return black.
func (r *Raster) At(x, y int) RGB {
	if !r.In(x, y) {
		return RGB{}
	}
	i := 3 * (y*r.W + x)
	return RGB{r.Pix[i], r.Pix[i+1], r.Pix[i+2]}
}

// Set writes the pixel at (x, y); out-of-bounds writes are ignored.
func (r *Raster) Set(x, y int, c RGB) {
	if !r.In(x, y) {
		return
	}
	i := 3 * (y*r.W + x)
	r.Pix[i], r.Pix[i+1], r.Pix[i+2] = c.R, c.G, c.B
}

// Fill paints the whole raster with c.
func (r *Raster) Fill(c RGB) {
	if len(r.Pix) == 0 {
		return
	}
	fillRGB(r.Pix, c)
}

// fillRGB stamps the 3-byte pattern c across p (len(p) divisible by 3)
// by seeding one pixel and doubling the filled prefix with copy.
func fillRGB(p []byte, c RGB) {
	p[0], p[1], p[2] = c.R, c.G, c.B
	for n := 3; n < len(p); n *= 2 {
		copy(p[n:], p[:n])
	}
}

// FillRect paints the rectangle [x0,x0+w)×[y0,y0+h), clipped to bounds.
// The first covered row is stamped once and row-copied downward, so the
// cost is one pattern fill plus h-1 memmoves instead of w*h bounds-checked
// pixel stores.
func (r *Raster) FillRect(x0, y0, w, h int, c RGB) {
	x1, y1 := x0+w, y0+h
	if x0 < 0 {
		x0 = 0
	}
	if y0 < 0 {
		y0 = 0
	}
	if x1 > r.W {
		x1 = r.W
	}
	if y1 > r.H {
		y1 = r.H
	}
	if x0 >= x1 || y0 >= y1 {
		return
	}
	rowLen := 3 * (x1 - x0)
	first := r.Pix[3*(y0*r.W+x0) : 3*(y0*r.W+x0)+rowLen]
	fillRGB(first, c)
	for y := y0 + 1; y < y1; y++ {
		i := 3 * (y*r.W + x0)
		copy(r.Pix[i:i+rowLen], first)
	}
}

// Clone returns a deep copy.
func (r *Raster) Clone() *Raster {
	out := &Raster{W: r.W, H: r.H, Pix: make([]byte, len(r.Pix))}
	copy(out.Pix, r.Pix)
	return out
}

// Crop returns a copy of the rows [0, h); h is clamped to the raster
// height. This implements the paper's pixel-height crop (PH:10k).
func (r *Raster) Crop(h int) *Raster {
	if h >= r.H {
		return r.Clone()
	}
	if h < 0 {
		h = 0
	}
	out := &Raster{W: r.W, H: h, Pix: make([]byte, 3*r.W*h)}
	copy(out.Pix, r.Pix[:3*r.W*h])
	return out
}

// ResizeNearest scales the raster by factor using nearest-neighbor
// sampling — the client-side "scaling factor" resize from §3.2 (screen
// width / 1080 applied to both axes). Output pixel (x, y) copies source
// pixel (x/factor, y/factor), truncated and clamped to the raster; a
// factor that is not positive gives an empty raster.
func (r *Raster) ResizeNearest(factor float64) *Raster {
	if !(factor > 0) {
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
	if r.W < 1 || r.H < 1 {
		return out
	}
	// The source byte offset of every output column, computed once.
	cols := make([]int, nw)
	for x := range cols {
		cols[x] = 3 * min(int(float64(x)/factor), r.W-1)
	}
	prev := -1
	for y := 0; y < nh; y++ {
		sy := min(int(float64(y)/factor), r.H-1)
		orow := out.Pix[3*y*nw : 3*(y+1)*nw]
		if sy == prev {
			copy(orow, out.Pix[3*(y-1)*nw:3*y*nw])
			continue
		}
		prev = sy
		srow := r.Pix[3*sy*r.W : 3*(sy+1)*r.W]
		for x, o := range cols {
			orow[3*x], orow[3*x+1], orow[3*x+2] = srow[o], srow[o+1], srow[o+2]
		}
	}
	return out
}

// Equal reports pixel-exact equality.
func (r *Raster) Equal(o *Raster) bool {
	if r.W != o.W || r.H != o.H {
		return false
	}
	for i := range r.Pix {
		if r.Pix[i] != o.Pix[i] {
			return false
		}
	}
	return true
}

// Luma returns the Rec.601 luma of the pixel at (x, y) in [0,255].
func (r *Raster) Luma(x, y int) float64 {
	c := r.At(x, y)
	return 0.299*float64(c.R) + 0.587*float64(c.G) + 0.114*float64(c.B)
}

// WritePNG encodes the raster as PNG (for the Figure 1 style visual
// artifacts the examples produce).
func (r *Raster) WritePNG(w io.Writer) error {
	img := image.NewRGBA(image.Rect(0, 0, r.W, r.H))
	for y := 0; y < r.H; y++ {
		for x := 0; x < r.W; x++ {
			c := r.At(x, y)
			img.Set(x, y, color.RGBA{c.R, c.G, c.B, 255})
		}
	}
	return png.Encode(w, img)
}

// ErrEmptyRaster is returned by codecs asked to encode a degenerate image.
var ErrEmptyRaster = errors.New("imagecodec: empty raster")
