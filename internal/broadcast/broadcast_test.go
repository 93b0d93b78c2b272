package broadcast

import (
	"fmt"
	"math"
	"testing"

	"sonic/internal/corpus"
	"sonic/internal/telemetry"
)

// modelSize is a deterministic per-page size in the regime the paper
// measured (Q10/PH10k: ~90-150 KB).
func modelSize(ref corpus.PageRef, hour int) int {
	base := 90 * 1024
	h := 0
	for _, c := range ref.URL {
		h = h*31 + int(c)
	}
	if h < 0 {
		h = -h
	}
	return base + h%61440 // up to +60KB
}

func cfg(frequencies int, pages []corpus.PageRef) Config {
	return Config{Pages: pages, Frequencies: frequencies, Hours: 48, Size: modelSize}
}

func TestValidation(t *testing.T) {
	good := cfg(1, corpus.Pages())
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.Frequencies = 0
	if bad.Validate() == nil {
		t.Error("zero frequencies should fail")
	}
	bad = good
	bad.Pages = nil
	if bad.Validate() == nil {
		t.Error("no pages should fail")
	}
}

func TestFig4cShape(t *testing.T) {
	pipe := fleetPipe(t)
	pages := corpus.Pages()
	var rs [3]*Result
	for i, f := range []int{1, 2, 4} {
		r, err := Simulate(pipe, cfg(f, pages))
		if err != nil {
			t.Fatal(err)
		}
		rs[i] = r
	}
	s10, s20, s40 := rs[0].Summarize(), rs[1].Summarize(), rs[2].Summarize()
	at := func(r *Result, hour int) int { return r.Series[hour*60/stepMinutes-1].Backlog }

	// One frequency (the paper's 10 kbps) rarely idles and does not keep
	// up at the pipeline's airtime: the backlog at the end of the second
	// day is well above the one at the end of the first.
	if s10.ZeroFraction > 0.10 {
		t.Errorf("1 frequency idle fraction = %.2f, want rarely zero", s10.ZeroFraction)
	}
	if a24, a48 := at(rs[0], 24), at(rs[0], 48); a24 == 0 || a48 < a24*5/4 {
		t.Errorf("1 frequency backlog %d B at 24 h, %d B at 48 h: want growth", a24, a48)
	}
	// Two and four frequencies drain the queue to zero on both days.
	for i, r := range rs[1:] {
		for day := 0; day < 2; day++ {
			drained := false
			for _, p := range r.Series[day*24*60/stepMinutes : (day+1)*24*60/stepMinutes] {
				drained = drained || p.Backlog == 0
			}
			if !drained {
				t.Errorf("%d frequencies: backlog never empty on day %d", 2<<i, day+1)
			}
		}
	}
	if s20.ZeroFraction <= s10.ZeroFraction {
		t.Errorf("2 frequencies should idle more than 1 (%.2f vs %.2f)",
			s20.ZeroFraction, s10.ZeroFraction)
	}
	if s40.ZeroFraction < 0.3 {
		t.Errorf("4 frequencies idle fraction = %.2f, want mostly drained", s40.ZeroFraction)
	}
	// Ordering: faster drains => smaller mean backlog.
	if !(s40.MeanBytes < s20.MeanBytes && s20.MeanBytes < s10.MeanBytes) {
		t.Errorf("mean backlog not ordered: %v %v %v",
			s10.MeanBytes, s20.MeanBytes, s40.MeanBytes)
	}
}

// TestBacklogDrainMatchesAirtime pins the one airtime function: from a
// saturated queue, one simulated hour on F frequencies drains the bytes
// whose pipe.AirtimeSeconds sum to F hours, and the carousel charges the
// same pages the same airtime per byte.
func TestBacklogDrainMatchesAirtime(t *testing.T) {
	pipe := fleetPipe(t)
	pages := corpus.Pages() // ~3.5 h of air on one frequency: saturated for an hour on two
	total := 0
	for _, p := range pages {
		total += modelSize(p, 0)
	}
	drained := map[int]float64{}
	for _, f := range []int{1, 2} {
		r, err := Simulate(pipe, Config{Pages: pages, Frequencies: f, Hours: 1, Size: modelSize})
		if err != nil {
			t.Fatal(err)
		}
		drained[f] = float64(total - r.Series[len(r.Series)-1].Backlog)
		// The queue airs in page order: whole pages while F hours of
		// airtime last, then the share of the next that fits.
		want, budget := 0.0, float64(3600*f)
		for _, p := range pages {
			n := modelSize(p, 0)
			air := pipe.AirtimeSeconds(n)
			if air >= budget {
				want += float64(n) * budget / air
				break
			}
			want += float64(n)
			budget -= air
		}
		if math.Abs(drained[f]-want) > 0.01*want {
			t.Errorf("%d frequencies: drained %.0f B in an hour, airtime says %.0f B", f, drained[f], want)
		}
	}

	c, err := CorpusCarousel(pages, modelSize, PolicySqrt)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.New()
	c.Instrument(reg, pipe, 1)
	planned := 0
	for _, i := range c.Schedule(len(pages)) {
		planned += c.entries[i].Bytes
	}
	horizon := reg.Snapshot().Gauges["carousel_schedule_horizon_seconds"]
	simRate, carRate := drained[1]/3600, float64(planned)/horizon
	if math.Abs(carRate-simRate) > 0.01*simRate {
		t.Errorf("carousel airs %.0f B/s, the backlog simulator %.0f B/s", carRate, simRate)
	}
}

func TestDiurnalSawtooth(t *testing.T) {
	// Backlog at 10 kbps must rise during the day and fall at night:
	// compare the average slope in daytime vs nighttime windows.
	r, err := Simulate(fleetPipe(t), cfg(1, corpus.Pages()))
	if err != nil {
		t.Fatal(err)
	}
	var daySlope, nightSlope float64
	var dayN, nightN int
	for i := 1; i < len(r.Series); i++ {
		d := float64(r.Series[i].Backlog - r.Series[i-1].Backlog)
		hod := int(r.Series[i].THours) % 24
		if hod >= 8 && hod < 21 {
			daySlope += d
			dayN++
		} else if hod >= 23 || hod < 6 {
			nightSlope += d
			nightN++
		}
	}
	if dayN == 0 || nightN == 0 {
		t.Fatal("windows empty")
	}
	if daySlope/float64(dayN) <= nightSlope/float64(nightN) {
		t.Errorf("no diurnal sawtooth: day slope %.0f vs night %.0f",
			daySlope/float64(dayN), nightSlope/float64(nightN))
	}
}

func TestN200GrowsBacklog(t *testing.T) {
	p100 := ExtendCorpus(100)
	p200 := ExtendCorpus(200)
	if len(p100) != 100 || len(p200) != 200 {
		t.Fatalf("extend sizes: %d, %d", len(p100), len(p200))
	}
	// URLs must stay unique.
	seen := map[string]bool{}
	for _, p := range p200 {
		if seen[p.URL] {
			t.Fatalf("duplicate %s", p.URL)
		}
		seen[p.URL] = true
	}
	pipe := fleetPipe(t)
	r100, _ := Simulate(pipe, cfg(2, p100))
	r200, _ := Simulate(pipe, cfg(2, p200))
	if r200.Summarize().MeanBytes <= r100.Summarize().MeanBytes {
		t.Error("doubling the catalog should grow the backlog at equal rate")
	}
}

// TestExtendCorpusMatchesCorpus: an extended catalog is the corpus
// itself, then whole copies of it in order whose pages differ from the
// originals only by a ?v=<copy> query on the URL.
func TestExtendCorpusMatchesCorpus(t *testing.T) {
	base := corpus.Pages()
	for _, n := range []int{1, len(base), 2*len(base) + 7} {
		got := ExtendCorpus(n)
		if len(got) != n {
			t.Fatalf("ExtendCorpus(%d) has %d pages", n, len(got))
		}
		for i, p := range got {
			want := base[i%len(base)]
			if copyN := i / len(base); copyN > 0 {
				want.URL = fmt.Sprintf("%s?v=%d", want.URL, copyN)
			}
			if p != want {
				t.Fatalf("ExtendCorpus(%d)[%d] = %+v, want %+v", n, i, p, want)
			}
		}
	}
}

func TestSeriesLengthAndMonotoneTime(t *testing.T) {
	r, err := Simulate(fleetPipe(t), cfg(1, corpus.Pages()[:10]))
	if err != nil {
		t.Fatal(err)
	}
	want := 48 * 6
	if len(r.Series) != want {
		t.Errorf("series length = %d, want %d", len(r.Series), want)
	}
	for i := 1; i < len(r.Series); i++ {
		if r.Series[i].THours <= r.Series[i-1].THours {
			t.Fatal("time not monotone")
		}
	}
}
