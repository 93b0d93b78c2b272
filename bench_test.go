package sonic

// One benchmark per table/figure of the paper's evaluation, plus the
// ablation benches DESIGN.md calls out. Each bench runs a reduced-scale
// version of the corresponding experiment (cmd/sonic-bench runs the full
// geometry) and reports the headline number via b.ReportMetric so
// `go test -bench` output doubles as a mini reproduction report.

import (
	"sync"
	"testing"

	"sonic/internal/broadcast"
	"sonic/internal/corpus"
	"sonic/internal/experiments"
	"sonic/internal/stats"
	"sonic/internal/userstudy"
)

// BenchmarkFig1LossVisual regenerates Figure 1's panels and reports the
// damage interpolation removes.
func BenchmarkFig1LossVisual(b *testing.B) {
	var raw, healed float64
	for i := 0; i < b.N; i++ {
		r := experiments.RunFig1(1200, int64(i)+1)
		raw = r.RawDamage.OverallDamage
		healed = r.HealedDamage.OverallDamage
	}
	b.ReportMetric(raw*100, "rawDamage%")
	b.ReportMetric(healed*100, "healedDamage%")
}

// BenchmarkFig4aFrameLossVsDistance runs the distance sweep through the
// real modem+FM+acoustic chain and reports the 1m median loss.
func BenchmarkFig4aFrameLossVsDistance(b *testing.B) {
	var median1m float64
	for i := 0; i < b.N; i++ {
		pts, err := experiments.RunFig4a(experiments.Fig4aConfig{
			Trials: 4, FramesPerTrial: 12, Seed: int64(i) + 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range pts {
			if p.Label == "1m" {
				median1m = stats.Median(p.Losses)
			}
		}
	}
	b.ReportMetric(median1m, "1mMedianLoss%")
}

// BenchmarkFig4bSizeCDF encodes a corpus sample under the four
// quality/crop configurations and reports the Q10/PH10k median.
func BenchmarkFig4bSizeCDF(b *testing.B) {
	var medianKB float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig4b(8)
		if err != nil {
			b.Fatal(err)
		}
		medianKB = stats.Median(res.Sizes["Q:10,PH:10k"]) / 1024
	}
	b.ReportMetric(medianKB, "q10MedianKB")
}

// pageSizes renders the corpus's hour-0 bundles once for the benchmarks
// that simulate airtime.
var pageSizes = sync.OnceValues(func() (broadcast.SizeFunc, error) {
	return experiments.PageSizes(corpus.Pages())
})

// BenchmarkFig4cBacklog simulates the backlog curves and reports the
// 10 kbps (one frequency) idle fraction (the paper's "rarely reaches
// zero").
func BenchmarkFig4cBacklog(b *testing.B) {
	size, err := pageSizes()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var idle10 float64
	for i := 0; i < b.N; i++ {
		curves, err := experiments.RunFig4c(48, size)
		if err != nil {
			b.Fatal(err)
		}
		idle10 = curves[0].Result.Summarize().ZeroFraction * 100
	}
	b.ReportMetric(idle10, "10kbpsIdle%")
}

// BenchmarkRSSISweep probes the RSSI bands and reports loss at the
// paper's -85..-90 dB fluctuation band.
func BenchmarkRSSISweep(b *testing.B) {
	var at90 float64
	for i := 0; i < b.N; i++ {
		pts, err := experiments.RunRSSISweep(3, 10, int64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range pts {
			if p.RSSI == -90 {
				at90 = stats.Median(p.Losses)
			}
		}
	}
	b.ReportMetric(at90, "lossAt-90dB%")
}

// BenchmarkFig5UserStudy runs the simulated rating panel and reports the
// content-understanding median at 20% loss with interpolation (the
// paper's "median content readability score of 7").
func BenchmarkFig5UserStudy(b *testing.B) {
	var c20 float64
	for i := 0; i < b.N; i++ {
		res := experiments.RunFig5(experiments.Fig5Config{
			Pages: 6, ViewportH: 1200, Seed: int64(i) + 1,
		})
		c20 = stats.Median(res.MediansContent[userstudy.Condition{LossRate: 0.20, Interp: true}])
	}
	b.ReportMetric(c20, "content@20%+interp")
}

// BenchmarkSonic92Goodput reports the profile's rates (§3.3: 10 kbps).
func BenchmarkSonic92Goodput(b *testing.B) {
	var transport, net float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunRate(32 * 1024)
		if err != nil {
			b.Fatal(err)
		}
		transport, net = r.TransportBps, r.MeasuredBps
	}
	b.ReportMetric(transport/1000, "transport_kbps")
	b.ReportMetric(net/1000, "net_kbps")
}

// BenchmarkFSKBaselineGoodput reports the GGwave-class baseline gap.
func BenchmarkFSKBaselineGoodput(b *testing.B) {
	var fsk, ofdm float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunBaseline(1024)
		if err != nil {
			b.Fatal(err)
		}
		fsk = r.Rows[0].GoodputBps
		ofdm = r.Rows[len(r.Rows)-1].GoodputBps
	}
	b.ReportMetric(fsk, "fsk_bps")
	b.ReportMetric(ofdm/fsk, "ofdm_speedup_x")
}

// BenchmarkCompressionRatio reports the §3.2 ~10x page compression claim.
func BenchmarkCompressionRatio(b *testing.B) {
	var median float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunCompression(6)
		if err != nil {
			b.Fatal(err)
		}
		median = stats.Median(r.Ratios)
	}
	b.ReportMetric(median, "weight/encoded_x")
}

// BenchmarkAblationInnerFEC compares v29/v27/none at an SNR where the
// inner code is what saves frames.
func BenchmarkAblationInnerFEC(b *testing.B) {
	var v29, none float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunAblationFEC(16, 10, 3, int64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
		v29 = rows[0].Loss
		none = rows[4].Loss
	}
	b.ReportMetric(v29*100, "rs8+v29_loss%")
	b.ReportMetric(none*100, "noFEC_loss%")
}

// BenchmarkAblationOuterRS isolates the outer code's contribution.
func BenchmarkAblationOuterRS(b *testing.B) {
	var with, without float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunAblationFEC(16, 10, 3, int64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
		with = rows[0].Loss    // rs8+v29
		without = rows[3].Loss // v29 only
	}
	b.ReportMetric(with*100, "rs8+v29_loss%")
	b.ReportMetric(without*100, "v29only_loss%")
}

// BenchmarkAblationInterleaver shows burst-error spreading.
func BenchmarkAblationInterleaver(b *testing.B) {
	var without, with float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunAblationInterleaver(64, 4, 20, int64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
		without, with = rows[0].Loss, rows[1].Loss
	}
	b.ReportMetric(without*100, "noInterleave_fail%")
	b.ReportMetric(with*100, "interleave_fail%")
}

// BenchmarkAblationConstellation sweeps modulation order at fixed SNR.
func BenchmarkAblationConstellation(b *testing.B) {
	var qpsk, qam256 float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunAblationConstellation(22, 10, int64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
		qpsk = rows[0].Loss
		qam256 = rows[len(rows)-1].Loss
	}
	b.ReportMetric(qpsk*100, "QPSK_loss%")
	b.ReportMetric(qam256*100, "256QAM_loss%")
}

// BenchmarkAblationPartitioning compares the paper's vertical-strip,
// left-first design against row chunking and top-first priority.
func BenchmarkAblationPartitioning(b *testing.B) {
	var paper, rowTop float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunAblationPartitioning(0.10, int64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
		paper = rows[0].Loss
		rowTop = rows[3].Loss
	}
	b.ReportMetric(paper*1000, "paperDamage_permille")
	b.ReportMetric(rowTop*1000, "rowTopDamage_permille")
}

// BenchmarkAblationInterpPriority isolates left-first vs top-first on
// the paper's vertical-strip losses.
func BenchmarkAblationInterpPriority(b *testing.B) {
	var left, top float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunAblationPartitioning(0.10, int64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
		left, top = rows[0].Loss, rows[1].Loss
	}
	b.ReportMetric(left*1000, "leftFirst_permille")
	b.ReportMetric(top*1000, "topFirst_permille")
}

// BenchmarkAblationCarousel reports the scheduling-policy gain for the
// preemptive-push rotation.
func BenchmarkAblationCarousel(b *testing.B) {
	size, err := pageSizes()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var flat, sqrtW float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunAblationCarousel(size)
		if err != nil {
			b.Fatal(err)
		}
		flat, sqrtW = rows[0].Loss, rows[1].Loss
	}
	b.ReportMetric(flat, "flatWait_s")
	b.ReportMetric(sqrtW, "sqrtWait_s")
}

// BenchmarkEndToEndPageBroadcast times the full pipeline for one page
// over a clean FM link (the system's fundamental operation).
func BenchmarkEndToEndPageBroadcast(b *testing.B) {
	pipe, err := NewPipeline(DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	rendered := RenderPage(GeneratePage("khabar.pk/", 0))
	rendered.Image = rendered.Image.Crop(600)
	bundle, err := BundlePage(rendered, 10)
	if err != nil {
		b.Fatal(err)
	}
	link := Chain{NewFMLink(-70), NewCableLink()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		audio, err := pipe.EncodePageAudio(1, bundle)
		if err != nil {
			b.Fatal(err)
		}
		rx := link.Transmit(audio, 48000)
		res, err := pipe.DecodePageAudio(rx)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Complete {
			b.Fatal("page incomplete over clean link")
		}
	}
}

// BenchmarkBacklogSimulator measures the Fig. 4(c) simulator itself.
func BenchmarkBacklogSimulator(b *testing.B) {
	pages := corpus.Pages()
	size := func(ref corpus.PageRef, hour int) int { return 128 * 1024 }
	pipe, err := NewPipeline(DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := broadcast.Simulate(pipe, broadcast.Config{
			Pages: pages, Frequencies: 1, Hours: 48, Size: size,
		}); err != nil {
			b.Fatal(err)
		}
	}
}
