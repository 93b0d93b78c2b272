package broadcast

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"sonic/internal/corpus"
	"sonic/internal/telemetry"
)

func testEntries() []CarouselEntry {
	return []CarouselEntry{
		{Ref: corpus.PageRef{URL: "hot.pk/"}, Bytes: 100 * 1024, Demand: 1.0},
		{Ref: corpus.PageRef{URL: "warm.pk/"}, Bytes: 100 * 1024, Demand: 0.25},
		{Ref: corpus.PageRef{URL: "cold.pk/"}, Bytes: 100 * 1024, Demand: 0.01},
	}
}

func TestNewCarouselValidation(t *testing.T) {
	if _, err := NewCarousel(nil, PolicyFlat); err == nil {
		t.Error("empty carousel should fail")
	}
	bad := testEntries()
	bad[0].Bytes = 0
	if _, err := NewCarousel(bad, PolicyFlat); err == nil {
		t.Error("zero size should fail")
	}
	if _, err := NewCarousel(testEntries(), CarouselPolicy(9)); err == nil {
		t.Error("unknown policy should fail")
	}
}

func TestSharesNormalized(t *testing.T) {
	for _, pol := range []CarouselPolicy{PolicyFlat, PolicySqrt} {
		c, err := NewCarousel(testEntries(), pol)
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		for i := range c.Entries() {
			s := c.entries[i].share
			if s <= 0 || s > 1 {
				t.Errorf("policy %d share[%d] = %g", pol, i, s)
			}
			sum += s
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("policy %d shares sum to %g", pol, sum)
		}
	}
}

func TestSqrtPolicyFavorsDemand(t *testing.T) {
	c, err := NewCarousel(testEntries(), PolicySqrt)
	if err != nil {
		t.Fatal(err)
	}
	if c.entries[0].share <= c.entries[1].share || c.entries[1].share <= c.entries[2].share {
		t.Errorf("shares not demand-ordered: %g %g %g",
			c.entries[0].share, c.entries[1].share, c.entries[2].share)
	}
	// Flat ignores demand (equal sizes -> equal shares).
	f, _ := NewCarousel(testEntries(), PolicyFlat)
	if math.Abs(f.entries[0].share-f.entries[2].share) > 1e-9 {
		t.Error("flat policy should ignore demand for equal sizes")
	}
}

func TestSqrtPolicyBeatsFlatOnExpectedWait(t *testing.T) {
	// The broadcast-disk result: sqrt allocation lowers demand-weighted
	// expected wait whenever demand is skewed.
	flat, opt, err := CompareCarouselPolicies(corpus.Pages(), modelSize, fleetPipe(t), 1)
	if err != nil {
		t.Fatal(err)
	}
	if opt >= flat {
		t.Errorf("sqrt policy wait %.0fs not better than flat %.0fs", opt, flat)
	}
	improvement := flat / opt
	if improvement < 1.2 {
		t.Errorf("improvement only %.2fx on a Zipf corpus", improvement)
	}
	t.Logf("expected wait on one frequency: flat %.0fs, sqrt %.0fs (%.1fx)", flat, opt, improvement)
}

// TestCompareCarouselPoliciesMatchesCarousels: the ablation's two waits
// are the expected waits of the flat and the sqrt corpus carousels,
// built and measured one at a time.
func TestCompareCarouselPoliciesMatchesCarousels(t *testing.T) {
	pipe := fleetPipe(t)
	pages := corpus.Pages()
	for _, freqs := range []int{1, 3} {
		flat, sqrt, err := CompareCarouselPolicies(pages, modelSize, pipe, freqs)
		if err != nil {
			t.Fatal(err)
		}
		for _, want := range []struct {
			policy CarouselPolicy
			got    float64
		}{{PolicyFlat, flat}, {PolicySqrt, sqrt}} {
			c, err := CorpusCarousel(pages, modelSize, want.policy)
			if err != nil {
				t.Fatal(err)
			}
			if w := c.ExpectedWaitSeconds(pipe, freqs); want.got != w {
				t.Errorf("%d frequencies, policy %v: ablation wait %g s, carousel %g s", freqs, want.policy, want.got, w)
			}
		}
	}
}

func TestScheduleProportions(t *testing.T) {
	c, err := NewCarousel(testEntries(), PolicySqrt)
	if err != nil {
		t.Fatal(err)
	}
	const n = 3000
	counts := map[int]int{}
	for _, i := range c.Schedule(n) {
		counts[i]++
	}
	// Every entry airs (no starvation).
	for i := range testEntries() {
		if counts[i] == 0 {
			t.Fatalf("entry %d starved", i)
		}
	}
	// Byte-airtime proportions track shares within 10%.
	for i := range testEntries() {
		got := float64(counts[i]) / n // equal sizes: count share == byte share
		want := c.entries[i].share
		if math.Abs(got-want) > 0.1*want+0.01 {
			t.Errorf("entry %d airtime %.3f, want ~%.3f", i, got, want)
		}
	}
	// Hot page should not burst: its occurrences must be spread out
	// (max gap not much more than twice its period in slots).
	sched := c.Schedule(300)
	last := -1
	maxGap := 0
	for idx, e := range sched {
		if e == 0 {
			if last >= 0 && idx-last > maxGap {
				maxGap = idx - last
			}
			last = idx
		}
	}
	expGap := int(1/c.entries[0].share) + 1
	if maxGap > 3*expGap {
		t.Errorf("hot page max gap %d slots, expected ~%d", maxGap, expGap)
	}
}

func TestExpectedWaitEdgeCases(t *testing.T) {
	c, _ := NewCarousel(testEntries(), PolicyFlat)
	pipe := fleetPipe(t)
	if !math.IsInf(c.ExpectedWaitSeconds(pipe, 0), 1) {
		t.Error("no frequency should be infinite wait")
	}
	// More frequencies, shorter wait.
	if c.ExpectedWaitSeconds(pipe, 2) >= c.ExpectedWaitSeconds(pipe, 1) {
		t.Error("doubling frequencies should reduce wait")
	}
}

// TestCarouselGaugesMatchAirtime pins the carousel families after
// Instrument + Schedule(n): depth is the rotation's size, the max period
// is the longest airtime/share, and the horizon is the sum of the
// pipeline's airtime over the frequencies for every planned slot.
func TestCarouselGaugesMatchAirtime(t *testing.T) {
	pipe := fleetPipe(t)
	const freqs, n = 2, 500
	c, err := CorpusCarousel(corpus.Pages(), modelSize, PolicySqrt)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.New()
	c.Instrument(reg, pipe, freqs)
	sched := c.Schedule(n)

	var worst, horizon float64
	for _, e := range c.entries {
		worst = max(worst, pipe.AirtimeSeconds(e.Bytes)/freqs/e.share)
	}
	for _, i := range sched {
		horizon += pipe.AirtimeSeconds(c.entries[i].Bytes) / freqs
	}
	g := reg.Snapshot().Gauges
	for name, want := range map[string]float64{
		"carousel_depth_pages":              float64(len(c.entries)),
		"carousel_max_period_seconds":       worst,
		"carousel_schedule_horizon_seconds": horizon,
	} {
		if got := g[name]; math.Abs(got-want) > 1e-9*want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}

// TestMeasuredCarouselTracksDemand: measured request counts dominate
// the rotation, static corpus popularity only floors the cold pages.
func TestMeasuredCarouselTracksDemand(t *testing.T) {
	pages := corpus.Pages()
	size := func(corpus.PageRef, int) int { return 50 * 1024 }
	coldURL := pages[len(pages)-1].URL // lowest static popularity

	measured, err := MeasuredCarousel(pages, size, map[string]float64{coldURL: 40}, PolicySqrt)
	if err != nil {
		t.Fatal(err)
	}
	top := measured.entries[0]
	for _, e := range measured.entries {
		if e.Demand > top.Demand {
			top = e
		}
	}
	if top.Ref.URL != coldURL {
		t.Errorf("top measured entry = %q, want %q", top.Ref.URL, coldURL)
	}

	// With no measurements the rotation equals the static corpus carousel.
	baseline, err := MeasuredCarousel(pages, size, nil, PolicySqrt)
	if err != nil {
		t.Fatal(err)
	}
	static, err := CorpusCarousel(pages, size, PolicySqrt)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pages {
		if math.Abs(baseline.entries[i].share-static.entries[i].share) > 1e-12 {
			t.Fatalf("entry %d: measured-empty share %g != static share %g",
				i, baseline.entries[i].share, static.entries[i].share)
		}
	}
	// Every unmeasured page keeps a positive share (cold-start floor).
	for i := range pages {
		if measured.entries[i].share <= 0 {
			t.Fatalf("entry %d starved", i)
		}
	}
}

// TestMeasuredCarouselConcurrentDemandUpdates is the -race guard for
// the fleet drain path: admission keeps bumping a shared demand table
// while tower drains snapshot it, rebuild MeasuredCarousel, and walk a
// schedule. Carousels built from the same snapshot must also schedule
// identically regardless of which goroutine built them.
func TestMeasuredCarouselConcurrentDemandUpdates(t *testing.T) {
	pages := corpus.Pages()[:6]
	size := func(corpus.PageRef, int) int { return 50 * 1024 }

	var mu sync.Mutex
	demand := make(map[string]float64)
	snapshot := func() map[string]float64 {
		mu.Lock()
		defer mu.Unlock()
		out := make(map[string]float64, len(demand))
		for k, v := range demand {
			out[k] = v
		}
		return out
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // admission side: demand keeps moving
		defer wg.Done()
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			mu.Lock()
			demand[pages[i%len(pages)].URL] += float64(1 + i%7)
			mu.Unlock()
			i++
		}
	}()

	const drains = 4
	errs := make(chan error, drains)
	for d := 0; d < drains; d++ {
		wg.Add(1)
		go func() { // tower side: snapshot -> rebuild -> schedule
			defer wg.Done()
			for iter := 0; iter < 50; iter++ {
				snap := snapshot()
				a, err := MeasuredCarousel(pages, size, snap, PolicySqrt)
				if err != nil {
					errs <- err
					return
				}
				b, err := MeasuredCarousel(pages, size, snap, PolicySqrt)
				if err != nil {
					errs <- err
					return
				}
				sa, sb := a.Schedule(64), b.Schedule(64)
				for i := range sa {
					if sa[i] != sb[i] {
						errs <- fmt.Errorf("same-snapshot schedules diverge at slot %d: %d vs %d", i, sa[i], sb[i])
						return
					}
					if sa[i] < 0 || sa[i] >= len(pages) {
						errs <- fmt.Errorf("schedule slot %d out of range: %d", i, sa[i])
						return
					}
				}
			}
			errs <- nil
		}()
	}
	for d := 0; d < drains; d++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}
