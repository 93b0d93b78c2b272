// Package userstudy simulates the paper's readability study (§4, Fig. 5):
// 151 participants each rate 20 of 400 screenshots (top 50 pages × loss
// rates {5,10,20,50}% × {with, without} pixel interpolation) on two 0-10
// Likert questions — (a) content understanding and (b) text readability.
// Human raters are replaced by a perception model mapping measured image
// damage to ratings, with per-participant noise; the paper-visible
// outputs (median rating per page, boxplots per condition) are computed
// the same way.
package userstudy

import (
	"math"
	"math/rand"

	"sonic/internal/corpus"
	"sonic/internal/interp"
	"sonic/internal/stats"
	"sonic/internal/webrender"
)

// The paper's study geometry.
const (
	DefaultPages        = 50
	DefaultParticipants = 151
	RatingsPerUser      = 20
	MinRatingsPerShot   = 7
)

// LossRates studied in the paper.
var LossRates = []float64{0.05, 0.10, 0.20, 0.50}

// Condition identifies one experimental cell.
type Condition struct {
	LossRate float64
	Interp   bool
}

// Screenshot is one of the study's stimuli with measured damage.
type Screenshot struct {
	Cond   Condition
	Damage interp.DamageReport
}

// Perception model. Two effects are calibrated against Figure 5's
// medians:
//
//  1. Residual pixel damage lowers ratings roughly exponentially in the
//     square root of the damage (humans are sub-linear in error energy).
//  2. Interpolated pages read better than their damage suggests but not
//     as well as pristine ones — viewers still notice the smeared
//     strips. The "excess" term charges for loss that interpolation
//     visually hid: raw pages (damage ~= 0.7 x loss rate) pay nothing,
//     healed pages pay proportionally to the hidden loss.
//
// The resulting medians land where the paper puts them: interpolation is
// worth >= 1 point at every loss rate, content@20%+interp ~= 7, and text
// readability trails content understanding.
const (
	contentBeta      = 1.5
	textBeta         = 1.7
	contentPenalty   = 3.2
	textPenalty      = 3.4
	rawDamagePerLoss = 0.7 // measured: raw luma damage per unit loss rate
)

// hiddenLoss estimates how much pixel loss the reconstruction visually
// concealed (zero for un-interpolated pages).
func hiddenLoss(lossRate, damage float64) float64 {
	h := lossRate - damage/rawDamagePerLoss
	if h < 0 {
		return 0
	}
	return h
}

// RateContent maps damage to the question-a (content understanding)
// model rating.
func RateContent(d interp.DamageReport) float64 {
	base := 10 * math.Exp(-contentBeta*math.Sqrt(d.OverallDamage))
	pen := contentPenalty * math.Sqrt(hiddenLoss(d.PixelLossRate, d.OverallDamage))
	return clampRating(base - pen)
}

// RateText maps damage to the question-b (text readability) model rating.
func RateText(d interp.DamageReport) float64 {
	base := 10 * math.Exp(-textBeta*math.Sqrt(d.TextDamage))
	pen := textPenalty * math.Sqrt(hiddenLoss(d.PixelLossRate, d.TextDamage))
	return clampRating(base - pen)
}

func clampRating(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 10 {
		return 10
	}
	return v
}

// BuildScreenshots renders nPages corpus pages (cropped study viewports
// of viewH pixels for tractability), applies each condition's synthetic
// loss (vertical runs, the shape lost frames leave), interpolates where
// the condition says so, and measures damage.
func BuildScreenshots(nPages, viewH int, seed int64) []Screenshot {
	refs := corpus.Pages()
	if nPages > len(refs) {
		nPages = len(refs)
	}
	rng := rand.New(rand.NewSource(seed))
	var shots []Screenshot
	for i := 0; i < nPages; i++ {
		rendered := webrender.Render(corpus.Generate(refs[i], 0))
		img := rendered.Image.Crop(viewH)
		for _, lr := range LossRates {
			for _, useInterp := range []bool{false, true} {
				damaged, missing := interp.SyntheticLoss(img, lr, 40, rng)
				if useInterp {
					interp.Interpolate(damaged, missing)
				}
				rep := interp.Damage(img, damaged, missing, rendered.TextRow)
				shots = append(shots, Screenshot{
					Cond:   Condition{LossRate: lr, Interp: useInterp},
					Damage: rep,
				})
			}
		}
	}
	return shots
}

// StudyResult aggregates the simulated panel.
type StudyResult struct {
	// MediansContent[cond] and MediansText[cond] hold the per-page median
	// ratings (one value per page) for each condition.
	MediansContent map[Condition][]float64
	MediansText    map[Condition][]float64
	TotalRatings   int
}

// Run simulates the panel: participants are assigned random screenshots
// (each ends up with >= MinRatingsPerShot ratings as in the paper), rate
// through the perception model plus personal noise, and medians are
// taken per screenshot.
func Run(shots []Screenshot, participants int, seed int64) *StudyResult {
	rng := rand.New(rand.NewSource(seed))
	perShotContent := make([][]float64, len(shots))
	perShotText := make([][]float64, len(shots))

	total := 0
	// Round-robin assignment guarantees coverage; random order per user.
	shotIdx := rng.Perm(len(shots))
	cursor := 0
	for u := 0; u < participants; u++ {
		// Personal bias and noisiness.
		bias := rng.NormFloat64() * 0.5
		noise := 0.6 + 0.4*rng.Float64()
		for k := 0; k < RatingsPerUser; k++ {
			si := shotIdx[cursor%len(shotIdx)]
			cursor++
			s := shots[si]
			rc := clampRating(RateContent(s.Damage) + bias + noise*rng.NormFloat64())
			rt := clampRating(RateText(s.Damage) + bias + noise*rng.NormFloat64())
			perShotContent[si] = append(perShotContent[si], rc)
			perShotText[si] = append(perShotText[si], rt)
			total++
		}
	}

	res := &StudyResult{
		MediansContent: make(map[Condition][]float64),
		MediansText:    make(map[Condition][]float64),
		TotalRatings:   total,
	}
	for i, s := range shots {
		if len(perShotContent[i]) == 0 {
			continue
		}
		res.MediansContent[s.Cond] = append(res.MediansContent[s.Cond],
			stats.Median(perShotContent[i]))
		res.MediansText[s.Cond] = append(res.MediansText[s.Cond],
			stats.Median(perShotText[i]))
	}
	return res
}
