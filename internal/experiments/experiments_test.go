package experiments

import (
	"strings"
	"testing"

	"sonic/internal/core"
	"sonic/internal/corpus"
	"sonic/internal/server"
	"sonic/internal/stats"
	"sonic/internal/userstudy"
)

func TestFig4aShapeReduced(t *testing.T) {
	if testing.Short() {
		t.Skip("DSP-heavy")
	}
	if raceEnabled {
		t.Skip("single-threaded DSP, too slow under -race")
	}
	pts, err := RunFig4a(Fig4aConfig{Trials: 4, FramesPerTrial: 12, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != len(Fig4aDistances) {
		t.Fatalf("%d points", len(pts))
	}
	byLabel := map[string]float64{}
	for _, p := range pts {
		byLabel[p.Label] = stats.Median(p.Losses)
	}
	// Paper shape: cable lossless, 1.1m total loss, 1m in between.
	if byLabel["Cable"] != 0 {
		t.Errorf("cable median = %g", byLabel["Cable"])
	}
	if byLabel["1.1m"] < 80 {
		t.Errorf("1.1m median = %g, want ~100", byLabel["1.1m"])
	}
	if byLabel["1m"] >= byLabel["1.1m"] {
		t.Errorf("1m (%g) should lose less than 1.1m (%g)", byLabel["1m"], byLabel["1.1m"])
	}
	var sb strings.Builder
	PrintFig4a(&sb, pts)
	if !strings.Contains(sb.String(), "Cable") {
		t.Error("print missing rows")
	}
}

func TestFig4bShapeReduced(t *testing.T) {
	pages := 8
	if raceEnabled {
		pages = 3 // image pipeline is ~15x slower under -race
	}
	res, err := RunFig4b(pages)
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range SizeConfigs {
		if len(res.Sizes[sc.Label]) != pages {
			t.Fatalf("config %s has %d sizes", sc.Label, len(res.Sizes[sc.Label]))
		}
	}
	q10 := stats.Median(res.Sizes["Q:10,PH:10k"])
	q50 := stats.Median(res.Sizes["Q:50,PH:10k"])
	q90 := stats.Median(res.Sizes["Q:90,PH:10k"])
	q10n := stats.Median(res.Sizes["Q:10,PH:None"])
	// Paper shape: monotone with quality; crop saves bytes; Q10 mostly
	// under 200 KB.
	if !(q10 < q50 && q50 < q90) {
		t.Errorf("quality ordering broken: %g %g %g", q10, q50, q90)
	}
	if q10n < q10 {
		t.Errorf("uncropped (%g) should not be smaller than cropped (%g)", q10n, q10)
	}
	if q10 > 200*1024 {
		t.Errorf("Q10 median %g KB, paper says mostly <200 KB", q10/1024)
	}
	var sb strings.Builder
	PrintFig4b(&sb, res)
	if !strings.Contains(sb.String(), "Q:90,PH:10k") {
		t.Error("print missing configs")
	}
}

// TestPageSizes pins the simulators' size source to the server: a
// page's size is the marshaled bundle RenderPage returns at hour 0, at
// every hour, and an ExtendCorpus variant has its base page's size.
func TestPageSizes(t *testing.T) {
	n := 8
	if raceEnabled {
		n = 3 // image pipeline is ~15x slower under -race
	}
	pages := corpus.Pages()[:n]
	variant := pages[0]
	variant.URL += "?v=1"
	size, err := PageSizes(append(pages[:n:n], variant))
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := core.NewPipeline(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := server.DefaultConfig()
	srv := server.New(cfg, pipe)
	for _, ref := range pages {
		b, err := srv.RenderPage(ref.URL, cfg.Epoch)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := size(ref, 0), len(core.MarshalBundle(b)); got != want {
			t.Errorf("%s: size %d, server airs %d", ref.URL, got, want)
		}
		if size(ref, 30) != size(ref, 0) {
			t.Errorf("%s: size moved with the hour", ref.URL)
		}
	}
	if size(variant, 0) != size(pages[0], 0) {
		t.Errorf("variant size %d, base %d", size(variant, 0), size(pages[0], 0))
	}
}

func TestFig4cShape(t *testing.T) {
	// The mean hour-0 bundle, so the test renders nothing.
	size := func(corpus.PageRef, int) int { return 149 << 10 }
	curves, err := RunFig4c(48, size)
	if err != nil {
		t.Fatal(err)
	}
	if len(curves) != 4 {
		t.Fatalf("%d curves", len(curves))
	}
	s10 := curves[0].Result.Summarize()
	s40 := curves[2].Result.Summarize()
	if s10.ZeroFraction > 0.15 {
		t.Errorf("1 frequency idle %.2f, want rarely zero", s10.ZeroFraction)
	}
	if s40.ZeroFraction < 0.3 {
		t.Errorf("4 frequencies idle %.2f, want mostly drained", s40.ZeroFraction)
	}
	// N:200 on 2 frequencies backs up more than N:100 on 2.
	if curves[3].Result.Summarize().MeanBytes <= curves[1].Result.Summarize().MeanBytes {
		t.Error("N:200 should carry more backlog than N:100")
	}
	var sb strings.Builder
	PrintFig4c(&sb, curves)
	if !strings.Contains(sb.String(), "Rate:10kbps") {
		t.Error("print missing curves")
	}
}

func TestRSSISweepBands(t *testing.T) {
	if testing.Short() {
		t.Skip("DSP-heavy")
	}
	if raceEnabled {
		t.Skip("single-threaded DSP, too slow under -race")
	}
	pts, err := RunRSSISweep(3, 10, 4)
	if err != nil {
		t.Fatal(err)
	}
	got := map[float64]float64{}
	for _, p := range pts {
		got[p.RSSI] = stats.Median(p.Losses)
	}
	// Paper: no losses -65..-85; total loss below -90.
	for _, rssi := range []float64{-65, -70, -75, -80, -85} {
		if got[rssi] != 0 {
			t.Errorf("loss at %g dB = %g, want 0", rssi, got[rssi])
		}
	}
	if got[-95] < 70 {
		t.Errorf("loss at -95 dB = %g, want near-total", got[-95])
	}
	var sb strings.Builder
	PrintRSSISweep(&sb, pts)
	if !strings.Contains(sb.String(), "-90") {
		t.Error("print missing rows")
	}
}

func TestRateClaims(t *testing.T) {
	r, err := RunRate(32 * 1024)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's 10 kbps is the FEC-coded transport rate.
	if r.TransportBps < 9500 || r.TransportBps > 10600 {
		t.Errorf("transport rate = %.0f bps, want ~10kbps", r.TransportBps)
	}
	if r.MeasuredBps > r.NetBps*1.02 || r.MeasuredBps < r.NetBps*0.9 {
		t.Errorf("measured %.0f vs theoretical net %.0f", r.MeasuredBps, r.NetBps)
	}
	if r.MultiFreq2xBps != 2*r.MeasuredBps {
		t.Error("multi-frequency scaling wrong")
	}
	var sb strings.Builder
	PrintRate(&sb, r)
	if !strings.Contains(sb.String(), "10kbps") {
		t.Error("print missing claim")
	}
}

// TestBaselineFSKRowPinned pins the §2 table's FSK row exactly, as
// sonic-bench -exp baseline prints it: 7 framing bytes around 1024
// payload bytes at 128 bps, plus one bit of silence either side.
func TestBaselineFSKRowPinned(t *testing.T) {
	r, err := RunBaseline(1024)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Rows[0]; got.Seconds != 64.453125 || got.GoodputBps != 127.10012121212121 {
		t.Errorf("FSK row = %.17g s, %.17g bps; want 64.453125 s, 127.10012121212121 bps", got.Seconds, got.GoodputBps)
	}
}

func TestBaselineOrdering(t *testing.T) {
	r, err := RunBaseline(1024)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("%d rows", len(r.Rows))
	}
	fsk := r.Rows[0].GoodputBps
	sonic92 := r.Rows[2].GoodputBps
	cable := r.Rows[3].GoodputBps
	if cable <= sonic92 {
		t.Errorf("cable-64k (%.0f) should beat the air profile (%.0f)", cable, sonic92)
	}
	if fsk > 130 {
		t.Errorf("FSK goodput %.0f bps, should be GGwave-class (~128)", fsk)
	}
	if sonic92 < 20*fsk {
		t.Errorf("OFDM (%.0f) should be >20x FSK (%.0f)", sonic92, fsk)
	}
	var sb strings.Builder
	PrintBaseline(&sb, r)
	if !strings.Contains(sb.String(), "GGwave") {
		t.Error("print missing baseline")
	}
}

func TestCompressionClaim(t *testing.T) {
	pages := 6
	if raceEnabled {
		pages = 2 // image pipeline is ~15x slower under -race
	}
	r, err := RunCompression(pages)
	if err != nil {
		t.Fatal(err)
	}
	med := stats.Median(r.Ratios)
	// Paper: "about 10x compression" (2 MB page -> a few hundred KB).
	if med < 5 || med > 40 {
		t.Errorf("median compression ratio = %.1f, want order-10x", med)
	}
	var sb strings.Builder
	PrintCompression(&sb, r)
	if sb.Len() == 0 {
		t.Error("empty print")
	}
}

func TestAblationFECOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("DSP-heavy")
	}
	if raceEnabled {
		t.Skip("single-threaded DSP, too slow under -race")
	}
	rows, err := RunAblationFEC(16, 10, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("%d variants", len(rows))
	}
	paper := rows[0].Loss
	noFEC := rows[4].Loss
	if paper > noFEC {
		t.Errorf("paper stack loss %.2f worse than no FEC %.2f", paper, noFEC)
	}
	if noFEC < 0.5 {
		t.Errorf("no-FEC loss %.2f at 16dB: channel too easy to discriminate", noFEC)
	}
}

func TestAblationInterleaver(t *testing.T) {
	rows, err := RunAblationInterleaver(64, 4, 30, 6)
	if err != nil {
		t.Fatal(err)
	}
	if rows[1].Loss > rows[0].Loss {
		t.Errorf("interleaver made bursts worse: %.2f vs %.2f", rows[1].Loss, rows[0].Loss)
	}
	if rows[0].Loss == 0 {
		t.Error("burst channel should break un-interleaved RS sometimes")
	}
}

func TestAblationPartitioning(t *testing.T) {
	rows, err := RunAblationPartitioning(0.10, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	// The paper's combination (vertical strips + left-first) should beat
	// the worst combination.
	worst := 0.0
	for _, r := range rows {
		if r.Loss > worst {
			worst = r.Loss
		}
	}
	if rows[0].Loss >= worst && worst > rows[0].Loss {
		t.Errorf("paper combination not competitive: %v", rows)
	}
	var sb strings.Builder
	PrintAblation(&sb, "t", rows)
	if !strings.Contains(sb.String(), "paper") {
		t.Error("print missing variants")
	}
}

func TestFig1Metrics(t *testing.T) {
	r := RunFig1(1000, 8)
	if r.RawDamage.PixelLossRate < 0.08 || r.RawDamage.PixelLossRate > 0.12 {
		t.Errorf("pixel loss = %g, want ~0.10", r.RawDamage.PixelLossRate)
	}
	if r.HealedDamage.OverallDamage >= r.RawDamage.OverallDamage {
		t.Error("interpolation did not reduce damage")
	}
	if r.Original.Equal(r.Lossy) {
		t.Error("lossy panel identical to original")
	}
	var sb strings.Builder
	PrintFig1(&sb, r)
	if !strings.Contains(sb.String(), "interp") {
		t.Error("print missing panel")
	}
}

func TestFig5Reduced(t *testing.T) {
	res := RunFig5(Fig5Config{Pages: 4, ViewportH: 1000, Seed: 9})
	cond := userstudy.Condition{LossRate: 0.20, Interp: true}
	med := stats.Median(res.MediansContent[cond])
	if med < 5.5 || med > 9 {
		t.Errorf("content@20%%+interp = %.2f, want ~7", med)
	}
	var sb strings.Builder
	PrintFig5(&sb, res)
	if !strings.Contains(sb.String(), "with-interp") {
		t.Error("print missing conditions")
	}
}
