package userstudy

import (
	"testing"

	"sonic/internal/interp"
	"sonic/internal/stats"
)

// buildSmall renders a reduced study (pages and viewport shrunk for test
// speed; the harness runs the full 50-page geometry).
func buildSmall(t *testing.T) []Screenshot {
	t.Helper()
	shots := BuildScreenshots(6, 1500, 42)
	if len(shots) != 6*len(LossRates)*2 {
		t.Fatalf("built %d screenshots", len(shots))
	}
	return shots
}

func TestScreenshotDamageStructure(t *testing.T) {
	shots := buildSmall(t)
	for _, s := range shots {
		if s.Damage.PixelLossRate < s.Cond.LossRate-0.03 ||
			s.Damage.PixelLossRate > s.Cond.LossRate+0.03 {
			t.Errorf("cond %.2f: pixel loss %.3f", s.Cond.LossRate, s.Damage.PixelLossRate)
		}
		if s.Cond.Interp && s.Damage.OverallDamage > 0.2 {
			t.Errorf("interp damage %.3f suspiciously high", s.Damage.OverallDamage)
		}
	}
}

func TestInterpolationReducesMeasuredDamage(t *testing.T) {
	shots := buildSmall(t)
	byCond := map[Condition]float64{}
	for _, s := range shots {
		byCond[s.Cond] += s.Damage.OverallDamage
	}
	for _, lr := range LossRates {
		raw := byCond[Condition{lr, false}]
		healed := byCond[Condition{lr, true}]
		if healed >= raw {
			t.Errorf("loss %.0f%%: interp damage %.3f !< raw %.3f", lr*100, healed, raw)
		}
	}
}

func TestFig5Shape(t *testing.T) {
	shots := buildSmall(t)
	res := Run(shots, DefaultParticipants, 7)
	med := func(c Condition, content bool) float64 {
		if content {
			return stats.Median(res.MediansContent[c])
		}
		return stats.Median(res.MediansText[c])
	}

	// 1. Interpolation buys at least ~1 point at every loss rate (paper:
	// "improving the rating by at least one point regardless of the loss
	// rate").
	for _, lr := range LossRates {
		gain := med(Condition{lr, true}, true) - med(Condition{lr, false}, true)
		if gain < 0.8 {
			t.Errorf("loss %.0f%%: content gain %.2f < 1", lr*100, gain)
		}
		tgain := med(Condition{lr, true}, false) - med(Condition{lr, false}, false)
		if tgain < 0.8 {
			t.Errorf("loss %.0f%%: text gain %.2f < 1", lr*100, tgain)
		}
	}

	// 2. Content at 20% loss with interpolation ~= 7 ("somewhat clear").
	c20 := med(Condition{0.20, true}, true)
	if c20 < 6 || c20 > 8.5 {
		t.Errorf("content@20%%+interp median = %.2f, want ~7", c20)
	}

	// 3. Ratings fall with loss rate.
	for _, useInterp := range []bool{false, true} {
		prev := 11.0
		for _, lr := range LossRates {
			m := med(Condition{lr, useInterp}, true)
			if m >= prev {
				t.Errorf("interp=%v: rating not decreasing at %.0f%%", useInterp, lr*100)
			}
			prev = m
		}
	}

	// 4. Text readability is more loss-sensitive than content
	// understanding at high loss.
	for _, lr := range []float64{0.20, 0.50} {
		c := med(Condition{lr, false}, true)
		x := med(Condition{lr, false}, false)
		if x > c+0.3 {
			t.Errorf("loss %.0f%%: text %.2f should not exceed content %.2f", lr*100, x, c)
		}
	}
}

func TestRunCoverage(t *testing.T) {
	shots := buildSmall(t)
	res := Run(shots, DefaultParticipants, 8)
	if res.TotalRatings != DefaultParticipants*RatingsPerUser {
		t.Errorf("total ratings = %d", res.TotalRatings)
	}
	// Every condition present with one median per page.
	for _, lr := range LossRates {
		for _, ip := range []bool{false, true} {
			c := Condition{lr, ip}
			if len(res.MediansContent[c]) != 6 {
				t.Errorf("condition %v has %d page medians", c, len(res.MediansContent[c]))
			}
		}
	}
	if DefaultParticipants*RatingsPerUser/len(shots) < MinRatingsPerShot {
		t.Error("study sizing violates the >=7 ratings/screenshot property")
	}
}

func TestRatingModelBounds(t *testing.T) {
	if RateContent(damageOf(0, 0)) != 10 {
		t.Error("zero damage should rate 10")
	}
	if r := RateContent(damageOf(1, 1)); r < 0 || r > 3 {
		t.Errorf("total damage rates %.2f", r)
	}
	if RateText(damageOf(0.1, 0.5)) >= RateText(damageOf(0.1, 0.1)) {
		t.Error("text rating must fall with text damage")
	}
}

func damageOf(overall, text float64) interp.DamageReport {
	return interp.DamageReport{OverallDamage: overall, TextDamage: text}
}
