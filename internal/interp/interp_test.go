package interp

import (
	"math"
	"math/rand"
	"testing"

	"sonic/internal/imagecodec"
)

// whiteRaster is a w×h raster filled with white, a page's background.
func whiteRaster(w, h int) *imagecodec.Raster {
	r := imagecodec.NewBlackRaster(w, h)
	r.Fill(imagecodec.RGB{R: 255, G: 255, B: 255})
	return r
}

func TestInterpolateLeftPriority(t *testing.T) {
	r := imagecodec.NewBlackRaster(4, 1)
	r.Set(0, 0, imagecodec.RGB{R: 10, G: 10, B: 10})
	r.Set(2, 0, imagecodec.RGB{R: 200, G: 200, B: 200})
	r.Set(3, 0, imagecodec.RGB{R: 250, G: 250, B: 250})
	missing := []bool{false, true, false, false}
	Interpolate(r, missing)
	// Pixel 1 must copy its LEFT neighbor (10), not the right one (200).
	if r.At(1, 0) != (imagecodec.RGB{R: 10, G: 10, B: 10}) {
		t.Errorf("left priority violated: got %+v", r.At(1, 0))
	}
}

func TestInterpolateStripHealsFromLeft(t *testing.T) {
	// A whole lost column strip copies the column to its left.
	r := whiteRaster(5, 5)
	for y := 0; y < 5; y++ {
		r.Set(1, y, imagecodec.RGB{R: 42, G: 42, B: 42})
	}
	missing := make([]bool, 25)
	for y := 0; y < 5; y++ {
		missing[y*5+2] = true
		missing[y*5+3] = true
		r.Set(2, y, imagecodec.RGB{})
		r.Set(3, y, imagecodec.RGB{})
	}
	Interpolate(r, missing)
	for y := 0; y < 5; y++ {
		if r.At(2, y) != (imagecodec.RGB{R: 42, G: 42, B: 42}) {
			t.Fatalf("col 2 row %d = %+v", y, r.At(2, y))
		}
		if r.At(3, y) != (imagecodec.RGB{R: 42, G: 42, B: 42}) {
			t.Fatalf("col 3 (cascade) row %d = %+v", y, r.At(3, y))
		}
	}
}

func TestInterpolateLeftEdgeUsesOtherNeighbors(t *testing.T) {
	r := whiteRaster(3, 3)
	r.Fill(imagecodec.RGB{R: 9, G: 9, B: 9})
	missing := make([]bool, 9)
	missing[3] = true // (0,1): no left neighbor
	r.Set(0, 1, imagecodec.RGB{})
	Interpolate(r, missing)
	if r.At(0, 1) != (imagecodec.RGB{R: 9, G: 9, B: 9}) {
		t.Errorf("edge pixel not healed: %+v", r.At(0, 1))
	}
}

func TestInterpolateBadMaskIsNoop(t *testing.T) {
	r := whiteRaster(2, 2)
	before := r.Clone()
	Interpolate(r, make([]bool, 3)) // wrong length
	if !r.Equal(before) {
		t.Error("wrong-length mask should be ignored")
	}
}

func TestSyntheticLossRate(t *testing.T) {
	src := whiteRaster(100, 100)
	rng := rand.New(rand.NewSource(1))
	for _, rate := range []float64{0.05, 0.10, 0.20, 0.50} {
		_, missing := SyntheticLoss(src, rate, 20, rng)
		lost := 0
		for _, m := range missing {
			if m {
				lost++
			}
		}
		got := float64(lost) / float64(len(missing))
		if math.Abs(got-rate) > 0.02 {
			t.Errorf("rate %.2f: achieved %.3f", rate, got)
		}
	}
	// Zero rate leaves the image intact.
	out, missing := SyntheticLoss(src, 0, 20, rng)
	if !out.Equal(src) {
		t.Error("zero loss should be identity")
	}
	for _, m := range missing {
		if m {
			t.Fatal("zero loss should have empty mask")
		}
	}
}

func TestSyntheticLossVerticalRuns(t *testing.T) {
	src := whiteRaster(50, 200)
	rng := rand.New(rand.NewSource(2))
	_, missing := SyntheticLoss(src, 0.05, 40, rng)
	// Count vertical adjacency: most missing pixels should have a missing
	// vertical neighbor (runs), not be isolated.
	adjacent, total := 0, 0
	for y := 0; y < 200; y++ {
		for x := 0; x < 50; x++ {
			if !missing[y*50+x] {
				continue
			}
			total++
			if (y > 0 && missing[(y-1)*50+x]) || (y < 199 && missing[(y+1)*50+x]) {
				adjacent++
			}
		}
	}
	if total == 0 || float64(adjacent)/float64(total) < 0.9 {
		t.Errorf("losses not run-shaped: %d/%d adjacent", adjacent, total)
	}
}

func TestInterpolationReducesDamage(t *testing.T) {
	// The paper's core claim (Fig. 1, Fig. 5): interpolation makes lossy
	// pages substantially closer to the original.
	src := whiteRaster(120, 120)
	// Textured content so interpolation has something to recover.
	for y := 0; y < 120; y++ {
		for x := 0; x < 120; x++ {
			if (x/10+y/10)%2 == 0 {
				src.Set(x, y, imagecodec.RGB{R: 220, G: 220, B: 220})
			} else {
				src.Set(x, y, imagecodec.RGB{R: 40, G: 80, B: 160})
			}
		}
	}
	rng := rand.New(rand.NewSource(3))
	damaged, missing := SyntheticLoss(src, 0.10, 30, rng)
	rawRep := Damage(src, damaged, missing, nil)
	healed := damaged.Clone()
	Interpolate(healed, missing)
	healedRep := Damage(src, healed, missing, nil)
	if healedRep.OverallDamage >= rawRep.OverallDamage/2 {
		t.Errorf("interpolation too weak: raw %.4f healed %.4f",
			rawRep.OverallDamage, healedRep.OverallDamage)
	}
	if rawRep.PixelLossRate < 0.08 || rawRep.PixelLossRate > 0.12 {
		t.Errorf("PixelLossRate = %g", rawRep.PixelLossRate)
	}
}

func TestDamageTextVsOverall(t *testing.T) {
	src := whiteRaster(10, 10)
	recon := src.Clone()
	// Damage only rows 0-4; call those the "text" rows.
	for y := 0; y < 5; y++ {
		for x := 0; x < 10; x++ {
			recon.Set(x, y, imagecodec.RGB{})
		}
	}
	rep := Damage(src, recon, nil, func(y int) bool { return y < 5 })
	if rep.TextDamage <= rep.OverallDamage {
		t.Errorf("text damage %.3f should exceed overall %.3f",
			rep.TextDamage, rep.OverallDamage)
	}
	mismatch := Damage(src, whiteRaster(3, 3), nil, nil)
	if mismatch.OverallDamage != 1 {
		t.Error("size mismatch should report full damage")
	}
}

func BenchmarkInterpolate10pct(b *testing.B) {
	src := whiteRaster(imagecodec.PageWidth, 1000)
	rng := rand.New(rand.NewSource(1))
	damaged, missing := SyntheticLoss(src, 0.10, 30, rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		work := damaged.Clone()
		Interpolate(work, missing)
	}
}
