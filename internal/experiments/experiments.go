// Package experiments implements the reproduction of every table and
// figure in the paper's evaluation (§4). Each experiment returns a
// structured result and can print itself in the shape the paper reports
// (boxplot rows, CDF points, time series). cmd/sonic-bench is the CLI
// front end; the root bench_test.go wraps the same functions as Go
// benchmarks.
package experiments

import (
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"strings"

	"sonic/internal/broadcast"
	"sonic/internal/core"
	"sonic/internal/corpus"
	"sonic/internal/fec"
	"sonic/internal/fm"
	"sonic/internal/frame"
	"sonic/internal/imagecodec"
	"sonic/internal/interp"
	"sonic/internal/modem"
	"sonic/internal/parallel"
	"sonic/internal/server"
	"sonic/internal/stats"
	"sonic/internal/userstudy"
	"sonic/internal/webrender"
)

// --- Figure 4(a): frame loss vs radio-to-receiver distance -----------------

// Fig4aPoint is one distance's loss distribution.
type Fig4aPoint struct {
	Label  string
	Losses []float64
}

// Fig4aConfig scales the experiment.
type Fig4aConfig struct {
	Trials         int // paper: 10 repeats
	FramesPerTrial int
	Seed           int64
}

// DefaultFig4a matches the paper's repeats.
func DefaultFig4a() Fig4aConfig {
	return Fig4aConfig{Trials: 10, FramesPerTrial: 20, Seed: 1}
}

// Fig4aDistances are the paper's x axis values.
var Fig4aDistances = []struct {
	Label string
	D     float64
}{
	{"Cable", 0}, {"10cm", 0.1}, {"20cm", 0.2},
	{"50cm", 0.5}, {"1m", 1.0}, {"1.1m", 1.1},
}

// RunFig4a measures frame loss through the real modem + FM + acoustic
// chain at each over-the-air distance, with high RSSI (-70 dB) on the
// radio hop as in the paper.
func RunFig4a(cfg Fig4aConfig) ([]Fig4aPoint, error) {
	pipe, err := core.NewPipeline(core.DefaultConfig())
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	var out []Fig4aPoint
	for _, d := range Fig4aDistances {
		pt := Fig4aPoint{Label: d.Label}
		for trial := 0; trial < cfg.Trials; trial++ {
			link := fm.Chain{
				&fm.FMLink{RSSI: -70, Rng: rand.New(rand.NewSource(rng.Int63()))},
				&fm.AcousticLink{DistanceM: d.D, Rng: rand.New(rand.NewSource(rng.Int63()))},
			}
			loss, err := pipe.FrameLossProbe(link, cfg.FramesPerTrial)
			if err != nil {
				return nil, err
			}
			pt.Losses = append(pt.Losses, loss*100)
		}
		out = append(out, pt)
	}
	return out, nil
}

// PrintFig4a renders the boxplot rows.
func PrintFig4a(w io.Writer, pts []Fig4aPoint) {
	fmt.Fprintln(w, "Figure 4(a): frame loss rate (%) vs radio-to-receiver distance")
	var t stats.Table
	t.AddRow("distance", "min", "q1", "median", "q3", "max")
	for _, p := range pts {
		b := stats.BoxplotOf(p.Losses)
		t.AddRowf(p.Label, b.Min, b.Q1, b.Median, b.Q3, b.Max)
	}
	t.Render(w)
}

// --- Figure 4(b): size CDF of rendered webpages -----------------------------

// SizeConfigs are the paper's four curves.
var SizeConfigs = []struct {
	Label   string
	Quality int
	CropPH  bool
}{
	{"Q:10,PH:10k", 10, true},
	{"Q:10,PH:None", 10, false},
	{"Q:50,PH:10k", 50, true},
	{"Q:90,PH:10k", 90, true},
}

// Fig4bResult maps config label to per-page encoded sizes (bytes).
type Fig4bResult struct {
	Sizes map[string][]float64
	// Weights are the synthetic original page weights (for the §3.2
	// compression claim).
	Weights []float64
}

// RunFig4b renders nPages corpus pages at hour 0 and encodes each under
// every configuration. nPages <= 100; the paper uses all 100.
func RunFig4b(nPages int) (*Fig4bResult, error) {
	refs := corpus.Pages()
	if nPages > len(refs) {
		nPages = len(refs)
	}
	res := &Fig4bResult{Sizes: make(map[string][]float64)}
	for i := 0; i < nPages; i++ {
		page := corpus.Generate(refs[i], 0)
		rendered := webrender.Render(page)
		res.Weights = append(res.Weights, float64(page.Weight))
		for _, sc := range SizeConfigs {
			img := rendered.Image
			if sc.CropPH {
				img = img.Crop(imagecodec.MaxPageHeight)
			}
			enc, err := imagecodec.EncodeSIC(img, sc.Quality)
			if err != nil {
				return nil, err
			}
			res.Sizes[sc.Label] = append(res.Sizes[sc.Label], float64(len(enc)))
		}
	}
	return res, nil
}

// PrintFig4b renders CDF summary rows per configuration.
func PrintFig4b(w io.Writer, res *Fig4bResult) {
	fmt.Fprintln(w, "Figure 4(b): CDF of rendered webpage sizes (KB)")
	var t stats.Table
	t.AddRow("config", "p10", "p25", "median", "p75", "p90", "max")
	for _, sc := range SizeConfigs {
		xs := res.Sizes[sc.Label]
		t.AddRowf(sc.Label,
			stats.Percentile(xs, 10)/1024, stats.Percentile(xs, 25)/1024,
			stats.Percentile(xs, 50)/1024, stats.Percentile(xs, 75)/1024,
			stats.Percentile(xs, 90)/1024, stats.Percentile(xs, 100)/1024)
	}
	t.Render(w)
	// Paper checkpoints.
	q10 := res.Sizes["Q:10,PH:10k"]
	q10n := res.Sizes["Q:10,PH:None"]
	q90 := res.Sizes["Q:90,PH:10k"]
	fmt.Fprintf(w, "share of pages under 200KB at Q10/PH10k: %.0f%% (paper: most)\n",
		stats.CDFAt(q10, 200*1024)*100)
	fmt.Fprintf(w, "Q90 median / Q10 median: %.1fx (paper: ~3.5x, 700KB vs 200KB)\n",
		stats.Median(q90)/stats.Median(q10))
	var saved []float64
	for i := range q10 {
		saved = append(saved, q10n[i]-q10[i])
	}
	fmt.Fprintf(w, "crop-to-10k saving at p75: %.0f KB (paper: ~100 KB for 75%% of pages)\n",
		stats.Percentile(saved, 75)/1024)
}

// --- Figure 4(c): broadcast backlog over time -------------------------------

// Fig4cCurve labels one (frequencies, N) series.
type Fig4cCurve struct {
	Label       string
	Frequencies int
	NPages      int
	Result      *broadcast.Result
}

// PageSizes is the size source of every simulator: it renders each
// distinct base page of pages once, at corpus hour 0, through the
// server's own render path, and sizes it as the marshaled bundle the
// server airs. ExtendCorpus's "?v=" variants share their base page's
// size, and a page's size is the same at every hour (RunFleet's
// precedent: its hour-0 cold build is its carousel size base).
func PageSizes(pages []corpus.PageRef) (broadcast.SizeFunc, error) {
	pipe, err := core.NewPipeline(core.DefaultConfig())
	if err != nil {
		return nil, err
	}
	cfg := server.DefaultConfig()
	srv := server.New(cfg, pipe)
	var urls []string
	index := make(map[string]int)
	for _, ref := range pages {
		url := baseURL(ref.URL)
		if _, ok := index[url]; !ok {
			index[url] = len(urls)
			urls = append(urls, url)
		}
	}
	sizes := make([]int, len(urls))
	errs := make([]error, len(urls))
	parallel.For(runtime.GOMAXPROCS(0), len(urls), 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			b, err := srv.RenderPage(urls[i], cfg.Epoch)
			sizes[i], errs[i] = len(core.MarshalBundle(b)), err
		}
	})
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return func(ref corpus.PageRef, _ int) int { return sizes[index[baseURL(ref.URL)]] }, nil
}

// baseURL strips ExtendCorpus's "?v=" variant suffix.
func baseURL(url string) string {
	base, _, _ := strings.Cut(url, "?")
	return base
}

// RunFig4c simulates the paper's four curves over the given horizon on
// the default pipeline's airtime, with page sizes from size (PageSizes
// for the figure).
func RunFig4c(hours int, size broadcast.SizeFunc) ([]Fig4cCurve, error) {
	pipe, err := core.NewPipeline(core.DefaultConfig())
	if err != nil {
		return nil, err
	}
	curves := []Fig4cCurve{
		{Label: "Rate:10kbps N:100", Frequencies: 1, NPages: 100},
		{Label: "Rate:20kbps N:100", Frequencies: 2, NPages: 100},
		{Label: "Rate:40kbps N:100", Frequencies: 4, NPages: 100},
		{Label: "Rate:20kbps N:200", Frequencies: 2, NPages: 200},
	}
	for i := range curves {
		r, err := broadcast.Simulate(pipe, broadcast.Config{
			Pages:       broadcast.ExtendCorpus(curves[i].NPages),
			Frequencies: curves[i].Frequencies,
			Hours:       hours,
			Size:        size,
		})
		if err != nil {
			return nil, err
		}
		curves[i].Result = r
	}
	return curves, nil
}

// PrintFig4c renders the series summaries plus hourly samples.
func PrintFig4c(w io.Writer, curves []Fig4cCurve) {
	fmt.Fprintln(w, "Figure 4(c): data to broadcast (MB) over time")
	var t stats.Table
	t.AddRow("curve", "peakMB", "meanMB", "finalMB", "idle%")
	for _, c := range curves {
		s := c.Result.Summarize()
		t.AddRowf(c.Label, float64(s.PeakBytes)/(1<<20), s.MeanBytes/(1<<20),
			float64(s.FinalBytes)/(1<<20), s.ZeroFraction*100)
	}
	t.Render(w)
	fmt.Fprintln(w, "series (backlog MB sampled every 6h):")
	for _, c := range curves {
		fmt.Fprintf(w, "%-18s", c.Label)
		for _, p := range c.Result.Series {
			if math.Mod(p.THours, 6) == 0 {
				fmt.Fprintf(w, " %5.1f", float64(p.Backlog)/(1<<20))
			}
		}
		fmt.Fprintln(w)
	}
}

// --- §4 Variable RSSI sweep --------------------------------------------------

// RSSIPoint is one RSSI level's loss distribution.
type RSSIPoint struct {
	RSSI   float64
	Losses []float64 // percent
}

// RunRSSISweep probes frame loss in cable mode across RSSI levels at
// 5 dB intervals, 10 repeats each (the paper's §4 methodology).
func RunRSSISweep(trials, framesPerTrial int, seed int64) ([]RSSIPoint, error) {
	pipe, err := core.NewPipeline(core.DefaultConfig())
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	var out []RSSIPoint
	for rssi := -65.0; rssi >= -95; rssi -= 5 {
		pt := RSSIPoint{RSSI: rssi}
		for trial := 0; trial < trials; trial++ {
			link := fm.Chain{
				&fm.FMLink{RSSI: rssi, Rng: rand.New(rand.NewSource(rng.Int63()))},
				fm.CableLink{},
			}
			loss, err := pipe.FrameLossProbe(link, framesPerTrial)
			if err != nil {
				return nil, err
			}
			pt.Losses = append(pt.Losses, loss*100)
		}
		out = append(out, pt)
	}
	return out, nil
}

// PrintRSSISweep renders the sweep with the paper's three bands marked.
func PrintRSSISweep(w io.Writer, pts []RSSIPoint) {
	fmt.Fprintln(w, "Variable RSSI (cable mode): frame loss (%) per RSSI")
	var t stats.Table
	t.AddRow("RSSI(dB)", "min", "median", "max", "paper band")
	for _, p := range pts {
		b := stats.BoxplotOf(p.Losses)
		band := "0% expected"
		switch {
		case p.RSSI < -90:
			band = "no frames expected"
		case p.RSSI < -85:
			band = "2-15% expected"
		}
		t.AddRowf(fmt.Sprintf("%.0f", p.RSSI), b.Min, b.Median, b.Max, band)
	}
	t.Render(w)
}

// --- Figure 5: simulated user study -----------------------------------------

// Fig5Config scales the study; every run seats the paper's
// userstudy.DefaultParticipants.
type Fig5Config struct {
	Pages     int
	ViewportH int
	Seed      int64
}

// DefaultFig5 uses the paper's geometry with a study viewport.
func DefaultFig5() Fig5Config {
	return Fig5Config{
		Pages:     userstudy.DefaultPages,
		ViewportH: 3000,
		Seed:      5,
	}
}

// RunFig5 builds the screenshots and runs the panel.
func RunFig5(cfg Fig5Config) *userstudy.StudyResult {
	shots := userstudy.BuildScreenshots(cfg.Pages, cfg.ViewportH, cfg.Seed)
	return userstudy.Run(shots, userstudy.DefaultParticipants, cfg.Seed+1)
}

// PrintFig5 renders the per-condition boxplots of per-page medians.
func PrintFig5(w io.Writer, res *userstudy.StudyResult) {
	fmt.Fprintln(w, "Figure 5: median user ratings (0-10) per condition")
	var t stats.Table
	t.AddRow("loss", "mode", "question", "min", "q1", "median", "q3", "max")
	for _, lr := range userstudy.LossRates {
		for _, ip := range []bool{false, true} {
			cond := userstudy.Condition{LossRate: lr, Interp: ip}
			mode := "without-interp"
			if ip {
				mode = "with-interp"
			}
			for _, q := range []struct {
				name string
				xs   []float64
			}{
				{"content(a)", res.MediansContent[cond]},
				{"text(b)", res.MediansText[cond]},
			} {
				b := stats.BoxplotOf(q.xs)
				t.AddRowf(fmt.Sprintf("%.0f%%", lr*100), mode, q.name,
					b.Min, b.Q1, b.Median, b.Q3, b.Max)
			}
		}
	}
	t.Render(w)
}

// --- §3.3 / §4 rate claim ------------------------------------------------------

// RateResult reports the profile's theoretical and measured goodput.
type RateResult struct {
	ProfileName    string
	RawBps         float64
	TransportBps   float64
	NetBps         float64
	MeasuredBps    float64
	MultiFreq2xBps float64
	MultiFreq4xBps float64
}

// RunRate computes net goodput and measures it by timing a real
// payload through the clean channel.
func RunRate(payloadBytes int) (*RateResult, error) {
	pipe, err := core.NewPipeline(core.DefaultConfig())
	if err != nil {
		return nil, err
	}
	res := &RateResult{
		ProfileName:  pipe.Modem().Profile().Name,
		RawBps:       pipe.Modem().Profile().RawBitRate(),
		TransportBps: pipe.TransportRateBps(),
		NetBps:       pipe.NetGoodputBps(),
	}
	// Measured: airtime for payloadBytes through the actual frame+modem
	// path (burst preamble amortized).
	frames := frame.Chunk(1, make([]byte, payloadBytes))
	stream, err := pipe.Codec().EncodeStream(frames)
	if err != nil {
		return nil, err
	}
	seconds := pipe.Modem().BurstDuration(len(stream))
	res.MeasuredBps = float64(payloadBytes*8) / seconds
	res.MultiFreq2xBps = 2 * res.MeasuredBps
	res.MultiFreq4xBps = 4 * res.MeasuredBps
	return res, nil
}

// PrintRate renders the rate table.
func PrintRate(w io.Writer, r *RateResult) {
	fmt.Fprintf(w, "Transmission rate (profile %s)\n", r.ProfileName)
	var t stats.Table
	t.AddRow("metric", "kbps")
	t.AddRowf("raw modem rate", r.RawBps/1000)
	t.AddRowf("FEC-coded transport rate (paper's 10kbps)", r.TransportBps/1000)
	t.AddRowf("net goodput (rs8+v29+framing)", r.NetBps/1000)
	t.AddRowf("measured delivery rate", r.MeasuredBps/1000)
	t.AddRowf("multi-frequency x2", r.MultiFreq2xBps/1000)
	t.AddRowf("multi-frequency x4", r.MultiFreq4xBps/1000)
	t.Render(w)
	fmt.Fprintln(w, "paper: \"a rate of 10kbps is sustainable\"; 20/40 kbps via multi-frequency")
}

// --- §2 related-work baseline -------------------------------------------------

// BaselineResult compares the FSK (GGwave-class) baseline with the OFDM
// profiles.
type BaselineResult struct {
	Rows []BaselineRow
}

// BaselineRow is one modem's delivery time for the probe payload.
type BaselineRow struct {
	Name       string
	PayloadB   int
	Seconds    float64
	GoodputBps float64
}

// RunBaseline times a payload through each modem over a clean channel.
func RunBaseline(payloadBytes int) (*BaselineResult, error) {
	res := &BaselineResult{}

	fsk := modem.NewFSK128()
	secs := fsk.BurstDuration(payloadBytes)
	res.Rows = append(res.Rows, BaselineRow{
		Name: "FSK-128 (GGwave class)", PayloadB: payloadBytes,
		Seconds: secs, GoodputBps: float64(payloadBytes*8) / secs,
	})
	for _, prof := range []modem.Profile{modem.Audible7k(), modem.Sonic92(), modem.Cable64k()} {
		m, err := modem.NewOFDM(prof)
		if err != nil {
			return nil, err
		}
		secs := m.BurstDuration(payloadBytes)
		res.Rows = append(res.Rows, BaselineRow{
			Name: "OFDM " + prof.Name, PayloadB: payloadBytes,
			Seconds: secs, GoodputBps: float64(payloadBytes*8) / secs,
		})
	}
	return res, nil
}

// PrintBaseline renders the comparison plus the paper's cited numbers.
func PrintBaseline(w io.Writer, res *BaselineResult) {
	fmt.Fprintln(w, "Data-over-sound baselines (§2), delivery of a fixed payload")
	var t stats.Table
	t.AddRow("modem", "payload(B)", "seconds", "goodput(bps)")
	for _, r := range res.Rows {
		t.AddRowf(r.Name, r.PayloadB, r.Seconds, r.GoodputBps)
	}
	t.Render(w)
	fmt.Fprintln(w, "paper-cited rates: chirp 15bps, NUC 16bps, BackDoor 4kbps, BatComm 47kbps, GGwave 128bps, Quiet ~7kbps OTA / 64kbps over cable")
}

// --- §3.2 compression claim -----------------------------------------------------

// CompressionResult quantifies page-weight vs broadcast-size.
type CompressionResult struct {
	Ratios []float64 // weight / encoded size per page
}

// RunCompression measures the ~10x claim over nPages corpus pages.
func RunCompression(nPages int) (*CompressionResult, error) {
	fig4b, err := RunFig4b(nPages)
	if err != nil {
		return nil, err
	}
	q10 := fig4b.Sizes["Q:10,PH:10k"]
	res := &CompressionResult{}
	for i := range q10 {
		res.Ratios = append(res.Ratios, fig4b.Weights[i]/q10[i])
	}
	return res, nil
}

// PrintCompression renders the ratio distribution.
func PrintCompression(w io.Writer, res *CompressionResult) {
	fmt.Fprintln(w, "Compression vs original page weight (§3.2, ~10x claimed)")
	b := stats.BoxplotOf(res.Ratios)
	fmt.Fprintf(w, "weight/encoded ratio: %s\n", b)
}

// --- ablations -------------------------------------------------------------------

// AblationRow is one variant's loss under the probe channel.
type AblationRow struct {
	Variant string
	Loss    float64 // fraction
}

// RunAblationFEC compares inner/outer FEC variants at a fixed audio SNR
// where the full stack survives and weaker stacks lose frames.
func RunAblationFEC(snrDB float64, framesPerTrial, trials int, seed int64) ([]AblationRow, error) {
	variants := []struct {
		name  string
		useRS bool
		inner *fec.ConvCode
	}{
		{"rs8+v29 (paper)", true, fec.NewV29()},
		{"rs8+v27", true, fec.NewV27()},
		{"rs8 only", true, nil},
		{"v29 only", false, fec.NewV29()},
		{"no FEC", false, nil},
	}
	rng := rand.New(rand.NewSource(seed))
	var rows []AblationRow
	for _, v := range variants {
		cfg := core.DefaultConfig()
		cfg.UseRS = v.useRS
		cfg.InnerCode = v.inner
		pipe, err := core.NewPipeline(cfg)
		if err != nil {
			return nil, err
		}
		var total float64
		for trial := 0; trial < trials; trial++ {
			link := &fm.AWGNLink{SNRdB: snrDB, Rng: rand.New(rand.NewSource(rng.Int63()))}
			loss, err := pipe.FrameLossProbe(link, framesPerTrial)
			if err != nil {
				return nil, err
			}
			total += loss
		}
		rows = append(rows, AblationRow{Variant: v.name, Loss: total / float64(trials)})
	}
	return rows, nil
}

// RunAblationInterleaver compares RS block decoding under bursty byte
// corruption with and without a byte interleaver.
func RunAblationInterleaver(burstLen, bursts, trials int, seed int64) ([]AblationRow, error) {
	rs := fec.NewRS8()
	il, err := fec.NewInterleaver(16, 255)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	run := func(useIL bool) float64 {
		fails := 0
		for trial := 0; trial < trials; trial++ {
			msg := make([]byte, 223*16)
			rng.Read(msg)
			enc := rs.Encode(msg)
			padded, orig := il.Pad(enc)
			work := padded
			if useIL {
				work, _ = il.Interleave(padded)
			}
			// Bursty corruption.
			for b := 0; b < bursts; b++ {
				start := rng.Intn(len(work) - burstLen)
				for i := start; i < start+burstLen; i++ {
					work[i] ^= byte(1 + rng.Intn(255))
				}
			}
			if useIL {
				work, _ = il.Deinterleave(work)
			}
			if _, _, err := rs.Decode(work[:orig]); err != nil {
				fails++
			}
		}
		return float64(fails) / float64(trials)
	}
	return []AblationRow{
		{Variant: "bursty channel, no interleaver", Loss: run(false)},
		{Variant: "bursty channel, 16x255 interleaver", Loss: run(true)},
	}, nil
}

// RunAblationConstellation reports net goodput and loss per
// constellation at a fixed SNR.
func RunAblationConstellation(snrDB float64, framesPerTrial int, seed int64) ([]AblationRow, error) {
	var rows []AblationRow
	rng := rand.New(rand.NewSource(seed))
	for _, bits := range []int{2, 4, 6, 8} {
		c, err := modem.ConstellationByBits(bits)
		if err != nil {
			return nil, err
		}
		cfg := core.DefaultConfig()
		cfg.Modem.Constellation = c
		pipe, err := core.NewPipeline(cfg)
		if err != nil {
			return nil, err
		}
		link := &fm.AWGNLink{SNRdB: snrDB, Rng: rand.New(rand.NewSource(rng.Int63()))}
		loss, err := pipe.FrameLossProbe(link, framesPerTrial)
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationRow{
			Variant: fmt.Sprintf("%s (net %.1f kbps)", c.Name(), pipe.NetGoodputBps()/1000),
			Loss:    loss,
		})
	}
	return rows, nil
}

// RunAblationPartitioning compares post-interpolation damage for the
// paper's vertical 1-px strips vs row-major chunking, and left-first vs
// top-first interpolation priority.
func RunAblationPartitioning(lossRate float64, seed int64) ([]AblationRow, error) {
	rendered := webrender.Render(corpus.Generate(corpus.Pages()[0], 0))
	img := rendered.Image.Crop(2500)
	rng := rand.New(rand.NewSource(seed))

	measure := func(damaged *imagecodec.Raster, missing []bool, top bool) float64 {
		work := damaged.Clone()
		if top {
			interp.InterpolateTopPriority(work, missing)
		} else {
			interp.Interpolate(work, missing)
		}
		return interp.Damage(img, work, missing, rendered.TextRow).OverallDamage
	}

	vd, vm := interp.SyntheticLoss(img, lossRate, 40, rng)
	hd, hm := interp.SyntheticLossRows(img, lossRate, 40, rng)
	rows := []AblationRow{
		{Variant: "vertical strips + left-first (paper)", Loss: measure(vd, vm, false)},
		{Variant: "vertical strips + top-first", Loss: measure(vd, vm, true)},
		{Variant: "row chunks + left-first", Loss: measure(hd, hm, false)},
		{Variant: "row chunks + top-first", Loss: measure(hd, hm, true)},
	}
	return rows, nil
}

// RunAblationSoftDecision compares hard- and soft-decision inner
// decoding at SNRs bracketing the frame-loss cliff.
func RunAblationSoftDecision(framesPerTrial, trials int, seed int64) ([]AblationRow, error) {
	var rows []AblationRow
	for _, snrDB := range []float64{10, 9, 8} {
		for _, soft := range []bool{false, true} {
			cfg := core.DefaultConfig()
			cfg.SoftDecision = soft
			pipe, err := core.NewPipeline(cfg)
			if err != nil {
				return nil, err
			}
			rng := rand.New(rand.NewSource(seed))
			var total float64
			for trial := 0; trial < trials; trial++ {
				link := &fm.AWGNLink{SNRdB: snrDB, Rng: rand.New(rand.NewSource(rng.Int63()))}
				loss, err := pipe.FrameLossProbe(link, framesPerTrial)
				if err != nil {
					return nil, err
				}
				total += loss
			}
			mode := "hard"
			if soft {
				mode = "soft"
			}
			rows = append(rows, AblationRow{
				Variant: fmt.Sprintf("%s-decision @%0.f dB", mode, snrDB),
				Loss:    total / float64(trials),
			})
		}
	}
	return rows, nil
}

// RunAblationCarousel compares the flat and sqrt(demand*size) carousel
// policies for the preemptive-push rotation (§3.1), reporting the
// demand-weighted expected wait on 1, 2 and 4 frequencies (the paper's
// 10/20/40 kbps) at the page sizes size gives.
func RunAblationCarousel(size broadcast.SizeFunc) ([]AblationRow, error) {
	pipe, err := core.NewPipeline(core.DefaultConfig())
	if err != nil {
		return nil, err
	}
	var rows []AblationRow
	for _, f := range []int{1, 2, 4} {
		flat, opt, err := broadcast.CompareCarouselPolicies(corpus.Pages(), size, pipe, f)
		if err != nil {
			return nil, err
		}
		rows = append(rows,
			AblationRow{Variant: fmt.Sprintf("flat carousel @%dkbps (wait s)", 10*f), Loss: flat},
			AblationRow{Variant: fmt.Sprintf("sqrt carousel @%dkbps (wait s)", 10*f), Loss: opt},
		)
	}
	return rows, nil
}

// PrintAblation renders ablation rows.
func PrintAblation(w io.Writer, title string, rows []AblationRow) {
	fmt.Fprintln(w, title)
	var t stats.Table
	t.AddRow("variant", "loss/damage")
	for _, r := range rows {
		t.AddRow(r.Variant, fmt.Sprintf("%.4f", r.Loss))
	}
	t.Render(w)
}

// --- Figure 1: visual loss demo ----------------------------------------------

// Fig1Result carries the three panels and their damage metrics.
type Fig1Result struct {
	Original     *imagecodec.Raster
	Lossy        *imagecodec.Raster
	Interpolated *imagecodec.Raster
	RawDamage    interp.DamageReport
	HealedDamage interp.DamageReport
}

// RunFig1 reproduces Figure 1: a page delivered intact, with 10% frame
// losses, and with the losses pixel-interpolated.
func RunFig1(viewH int, seed int64) *Fig1Result {
	rendered := webrender.Render(corpus.Generate(corpus.Pages()[0], 0))
	img := rendered.Image.Crop(viewH)
	rng := rand.New(rand.NewSource(seed))
	lossy, missing := interp.SyntheticLoss(img, 0.10, 40, rng)
	healed := lossy.Clone()
	interp.Interpolate(healed, missing)
	return &Fig1Result{
		Original:     img,
		Lossy:        lossy,
		Interpolated: healed,
		RawDamage:    interp.Damage(img, lossy, missing, rendered.TextRow),
		HealedDamage: interp.Damage(img, healed, missing, rendered.TextRow),
	}
}

// PrintFig1 renders the damage metrics.
func PrintFig1(w io.Writer, r *Fig1Result) {
	fmt.Fprintln(w, "Figure 1: page at 10% frame loss, with and without interpolation")
	var t stats.Table
	t.AddRow("panel", "pixel loss", "overall damage", "text damage")
	t.AddRowf("no loss", 0.0, 0.0, 0.0)
	t.AddRowf("10% loss", r.RawDamage.PixelLossRate, r.RawDamage.OverallDamage, r.RawDamage.TextDamage)
	t.AddRowf("10% + interp", r.HealedDamage.PixelLossRate, r.HealedDamage.OverallDamage, r.HealedDamage.TextDamage)
	t.Render(w)
}
