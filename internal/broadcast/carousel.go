package broadcast

import (
	"errors"
	"math"

	"sonic/internal/core"
	"sonic/internal/corpus"
	"sonic/internal/telemetry"
)

// Carousel schedules the repeating broadcast rotation for downlink-only
// listeners (§3.1: the server "maintains a list of the most popular
// websites in a region that are preemptively pushed to users"). Classic
// broadcast-disk theory says a page's share of airtime should be
// proportional to the square root of its demand times its size; the
// carousel implements that policy plus a flat baseline for the ablation.
type Carousel struct {
	entries []CarouselEntry
	air     []float64 // per-entry air seconds; set by Instrument

	// Telemetry (nil handles = off; see internal/telemetry).
	mDepth     *telemetry.Gauge // carousel_depth_pages
	mMaxPeriod *telemetry.Gauge // carousel_max_period_seconds
	mHorizon   *telemetry.Gauge // carousel_schedule_horizon_seconds
}

// Instrument registers the carousel's metric families on reg: the
// rotation's depth/age pair, carousel_depth_pages (pages in rotation)
// and carousel_max_period_seconds (the longest gap between re-airs of
// any page on pipe's airtime over the given frequencies — the oldest a
// carousel listener's copy can get before refresh). Schedule refreshes
// carousel_schedule_horizon_seconds, the airtime the most recently
// planned slots cover. Call once at setup.
func (c *Carousel) Instrument(reg *telemetry.Registry, pipe *core.Pipeline, frequencies int) {
	c.mDepth = reg.Gauge("carousel_depth_pages")
	c.mMaxPeriod = reg.Gauge("carousel_max_period_seconds")
	c.mHorizon = reg.Gauge("carousel_schedule_horizon_seconds")
	c.mDepth.Set(float64(len(c.entries)))
	c.air = make([]float64, len(c.entries))
	var worst float64
	for i, e := range c.entries {
		c.air[i] = airSeconds(pipe, frequencies, e.Bytes)
		worst = max(worst, c.air[i]/e.share)
	}
	c.mMaxPeriod.Set(worst)
}

// CarouselEntry is one page in the rotation.
type CarouselEntry struct {
	Ref    corpus.PageRef
	Bytes  int     // broadcast size
	Demand float64 // request popularity weight
	// share is the computed airtime fraction.
	share float64
}

// CarouselPolicy selects the airtime allocation rule.
type CarouselPolicy int

// Policies.
const (
	// PolicyFlat gives every page equal rotation frequency (the naive
	// carousel).
	PolicyFlat CarouselPolicy = iota
	// PolicySqrt allocates airtime proportional to sqrt(demand*size) —
	// the broadcast-disk optimum for mean expected wait.
	PolicySqrt
)

// NewCarousel builds a rotation over the entries.
func NewCarousel(entries []CarouselEntry, policy CarouselPolicy) (*Carousel, error) {
	if len(entries) == 0 {
		return nil, errors.New("broadcast: empty carousel")
	}
	c := &Carousel{entries: append([]CarouselEntry(nil), entries...)}
	var total float64
	for i := range c.entries {
		e := &c.entries[i]
		if e.Bytes <= 0 || e.Demand < 0 {
			return nil, errors.New("broadcast: entry needs positive size and demand")
		}
		switch policy {
		case PolicyFlat:
			e.share = float64(e.Bytes)
		case PolicySqrt:
			e.share = math.Sqrt(e.Demand * float64(e.Bytes))
		default:
			return nil, errors.New("broadcast: unknown policy")
		}
		total += e.share
	}
	for i := range c.entries {
		c.entries[i].share /= total
	}
	return c, nil
}

// ExpectedWaitSeconds returns the demand-weighted mean time a listener
// who starts waiting at a random instant needs before their page's next
// transmission completes, on pipe's airtime over the given frequencies.
// For a page holding airtime share s and airing for t seconds per
// transmission, its period is t/s and the expected wait for a random
// arrival is period/2 + t.
func (c *Carousel) ExpectedWaitSeconds(pipe *core.Pipeline, frequencies int) float64 {
	if frequencies <= 0 {
		return math.Inf(1)
	}
	var num, den float64
	for _, e := range c.entries {
		airSec := airSeconds(pipe, frequencies, e.Bytes)
		period := airSec / e.share
		wait := period/2 + airSec
		num += e.Demand * wait
		den += e.Demand
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// Schedule produces the next n page transmissions of the rotation as
// indexes into the entry list, using virtual finish times: each entry
// repeats with period size/share (so byte-airtime matches its share),
// and the entry whose next slot is earliest airs next. Smooth, starvation
// free, and deterministic.
func (c *Carousel) Schedule(n int) []int {
	period := make([]float64, len(c.entries))
	next := make([]float64, len(c.entries))
	for i, e := range c.entries {
		period[i] = float64(e.Bytes) / e.share
		// Stagger initial phases by index so equal-share entries
		// interleave instead of bursting.
		next[i] = period[i] * (1 + float64(i)/float64(len(c.entries))) / 2
	}
	out := make([]int, 0, n)
	var horizon float64
	for len(out) < n {
		best := 0
		for i := 1; i < len(next); i++ {
			if next[i] < next[best] {
				best = i
			}
		}
		out = append(out, best)
		if c.air != nil {
			horizon += c.air[best]
		}
		next[best] += period[best]
	}
	c.mHorizon.Set(horizon)
	return out
}

// Entries returns a copy of the rotation entries (with computed shares).
func (c *Carousel) Entries() []CarouselEntry {
	return append([]CarouselEntry(nil), c.entries...)
}

// CorpusCarousel builds a carousel over the evaluation corpus with the
// given per-page size function and the corpus popularity weights: a
// MeasuredCarousel with nothing measured yet.
func CorpusCarousel(pages []corpus.PageRef, size SizeFunc, policy CarouselPolicy) (*Carousel, error) {
	return MeasuredCarousel(pages, size, nil, policy)
}

// MeasuredCarousel builds a carousel whose demand comes from measured
// request counts (the server's per-tower admission telemetry, see
// server.TowerDemand) instead of the static corpus ranking. Static
// popularity still contributes as the cold-start floor and tiebreaker —
// a page nobody has requested yet keeps a small share rather than
// starving — but one measured request outweighs any static weight, so
// the rotation tracks what the region actually asks for.
func MeasuredCarousel(pages []corpus.PageRef, size SizeFunc, demand map[string]float64, policy CarouselPolicy) (*Carousel, error) {
	entries := make([]CarouselEntry, len(pages))
	for i, ref := range pages {
		entries[i] = CarouselEntry{
			Ref:    ref,
			Bytes:  size(ref, 0),
			Demand: demand[ref.URL] + corpus.PopularityWeight(ref),
		}
	}
	return NewCarousel(entries, policy)
}

// CompareCarouselPolicies returns (flat, sqrt) demand-weighted expected
// waits on pipe's airtime over the given frequencies — the scheduling
// ablation.
func CompareCarouselPolicies(pages []corpus.PageRef, size SizeFunc, pipe *core.Pipeline, frequencies int) (flatWait, sqrtWait float64, err error) {
	flat, err := CorpusCarousel(pages, size, PolicyFlat)
	if err != nil {
		return 0, 0, err
	}
	opt, err := CorpusCarousel(pages, size, PolicySqrt)
	if err != nil {
		return 0, 0, err
	}
	return flat.ExpectedWaitSeconds(pipe, frequencies), opt.ExpectedWaitSeconds(pipe, frequencies), nil
}
