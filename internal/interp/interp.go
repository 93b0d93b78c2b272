// Package interp implements SONIC's loss-recovery stage (§3.3): missing
// pixels left by lost frames are replaced via nearest-neighbor value
// interpolation, prioritizing the left neighbor "given that the webpage
// consists mostly of text read from left to right". It also provides the
// text/content damage scores that drive the simulated user study for
// Figure 5.
package interp

import (
	"math"
	"math/rand"

	"sonic/internal/imagecodec"
)

// Interpolate fills missing pixels of r in place. missing is row-major,
// len == W*H, true meaning the pixel was lost. Priority order per the
// paper: left neighbor first; then above, right, below; isolated pixels
// fall back to black. Filled pixels can seed fills to their right, so a
// lost vertical strip heals from its left edge outward.
func Interpolate(r *imagecodec.Raster, missing []bool) {
	if len(missing) != r.W*r.H {
		return
	}
	filled := make([]bool, len(missing))
	// Left-to-right pass: left priority (already-filled pixels count).
	for y := 0; y < r.H; y++ {
		for x := 0; x < r.W; x++ {
			i := y*r.W + x
			if !missing[i] {
				continue
			}
			if x > 0 && (!missing[i-1] || filled[i-1]) {
				r.Set(x, y, r.At(x-1, y))
				filled[i] = true
			}
		}
	}
	// Remaining holes: above, then right, then below.
	for y := 0; y < r.H; y++ {
		for x := 0; x < r.W; x++ {
			i := y*r.W + x
			if !missing[i] || filled[i] {
				continue
			}
			switch {
			case y > 0 && (!missing[i-r.W] || filled[i-r.W]):
				r.Set(x, y, r.At(x, y-1))
			case x < r.W-1 && !missing[i+1]:
				r.Set(x, y, r.At(x+1, y))
			case y < r.H-1 && !missing[i+r.W]:
				r.Set(x, y, r.At(x, y+1))
			}
			filled[i] = true
		}
	}
}

// DamageReport quantifies visual damage after loss (and optional
// interpolation), split the way Figure 5's two questions split user
// perception: text rows versus the whole page.
type DamageReport struct {
	// PixelLossRate is the fraction of pixels originally missing.
	PixelLossRate float64
	// OverallDamage is mean |luma error| / 255 over all pixels.
	OverallDamage float64
	// TextDamage is mean |luma error| / 255 over text rows only.
	TextDamage float64
}

// Damage compares the reconstructed raster against the original.
// textRow(y) classifies rows (webrender.Rendered.TextRow); pass nil to
// treat no rows as text.
func Damage(orig, recon *imagecodec.Raster, missing []bool, textRow func(int) bool) DamageReport {
	var rep DamageReport
	if orig.W != recon.W || orig.H != recon.H {
		rep.OverallDamage = 1
		rep.TextDamage = 1
		return rep
	}
	var lost, all, textN float64
	var sumAll, sumText float64
	for y := 0; y < orig.H; y++ {
		isText := textRow != nil && textRow(y)
		for x := 0; x < orig.W; x++ {
			i := y*orig.W + x
			d := math.Abs(orig.Luma(x, y)-recon.Luma(x, y)) / 255
			sumAll += d
			all++
			if isText {
				sumText += d
				textN++
			}
			if missing != nil && i < len(missing) && missing[i] {
				lost++
			}
		}
	}
	if all > 0 {
		rep.OverallDamage = sumAll / all
		rep.PixelLossRate = lost / all
	}
	if textN > 0 {
		rep.TextDamage = sumText / textN
	}
	return rep
}

// InterpolateTopPriority is the ablation variant of Interpolate that
// prioritizes the pixel above instead of the left neighbor — what the
// paper argues against for left-to-right text (§3.3).
func InterpolateTopPriority(r *imagecodec.Raster, missing []bool) {
	if len(missing) != r.W*r.H {
		return
	}
	filled := make([]bool, len(missing))
	for y := 0; y < r.H; y++ {
		for x := 0; x < r.W; x++ {
			i := y*r.W + x
			if !missing[i] {
				continue
			}
			if y > 0 && (!missing[i-r.W] || filled[i-r.W]) {
				r.Set(x, y, r.At(x, y-1))
				filled[i] = true
			}
		}
	}
	for y := 0; y < r.H; y++ {
		for x := 0; x < r.W; x++ {
			i := y*r.W + x
			if !missing[i] || filled[i] {
				continue
			}
			switch {
			case x > 0 && (!missing[i-1] || filled[i-1]):
				r.Set(x, y, r.At(x-1, y))
			case x < r.W-1 && !missing[i+1]:
				r.Set(x, y, r.At(x+1, y))
			case y < r.H-1 && !missing[i+r.W]:
				r.Set(x, y, r.At(x, y+1))
			}
			filled[i] = true
		}
	}
}

// SyntheticLossRows is the row-major ablation counterpart of
// SyntheticLoss: losses arrive as horizontal runs (what a row-chunked
// partitioning would produce) instead of the paper's vertical strips.
func SyntheticLossRows(src *imagecodec.Raster, lossRate float64, runLen int, rng *rand.Rand) (*imagecodec.Raster, []bool) {
	out := src.Clone()
	missing := make([]bool, src.W*src.H)
	if lossRate <= 0 || runLen < 1 {
		return out, missing
	}
	totalPx := src.W * src.H
	targetLost := int(lossRate * float64(totalPx))
	lost := 0
	for lost < targetLost {
		x0 := rng.Intn(src.W)
		y := rng.Intn(src.H)
		for dx := 0; dx < runLen && x0+dx < src.W; dx++ {
			i := y*src.W + x0 + dx
			if missing[i] {
				continue
			}
			missing[i] = true
			out.Set(x0+dx, y, imagecodec.RGB{})
			lost++
		}
	}
	return out, missing
}

// SyntheticLoss knocks out pixels to emulate lost frames the way the
// paper's user study did (§4): losses arrive as vertical runs (the shape
// a lost 100-byte frame leaves in a 1-px partition), at the requested
// rate. It returns the damaged raster (missing pixels black) and the
// missing mask.
func SyntheticLoss(src *imagecodec.Raster, lossRate float64, runLen int, rng *rand.Rand) (*imagecodec.Raster, []bool) {
	out := src.Clone()
	missing := make([]bool, src.W*src.H)
	if lossRate <= 0 || runLen < 1 {
		return out, missing
	}
	totalPx := src.W * src.H
	targetLost := int(lossRate * float64(totalPx))
	lost := 0
	for lost < targetLost {
		x := rng.Intn(src.W)
		y0 := rng.Intn(src.H)
		for dy := 0; dy < runLen && y0+dy < src.H; dy++ {
			i := (y0+dy)*src.W + x
			if missing[i] {
				continue
			}
			missing[i] = true
			out.Set(x, y0+dy, imagecodec.RGB{})
			lost++
		}
	}
	return out, missing
}
