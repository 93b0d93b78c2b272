// Package corpus reproduces the paper's content workload (§4): the 25
// most popular Pakistani websites (Tranco list filtered on .pk), each
// contributing its landing page plus three internal pages — 100 pages
// total — re-rendered hourly over three days. The sites here are
// synthetic stand-ins with the same structure; the generator in
// internal/webrender makes each (url, hour) pair deterministic.
package corpus

import (
	"fmt"
	"hash/fnv"
	"math/rand"

	"sonic/internal/webrender"
)

// The paper's corpus geometry.
const (
	NumSites             = 25
	InternalPagesPerSite = 3
	NumPages             = NumSites * (1 + InternalPagesPerSite) // 100
	StudyHours           = 72                                    // three days, hourly
)

// Sites is the synthetic Tranco-style .pk top list (rank order).
var Sites = []string{
	"khabar.pk", "dunya-news.pk", "cricfeed.pk", "bazaar.pk", "rozgar.pk",
	"taleem.pk", "urdupoint-news.pk", "mausam.pk", "railbook.pk", "sehatlink.pk",
	"filmistan.pk", "techdera.pk", "zameenhub.pk", "sasta.pk", "khel.pk",
	"adab.pk", "safarnama.pk", "mandi.pk", "ustad.pk", "shehr.pk",
	"qanoon.pk", "karobar.pk", "fankar.pk", "kitabghar.pk", "awaaz.pk",
}

// PageRef identifies one corpus page.
type PageRef struct {
	URL      string
	Site     string
	Rank     int  // site popularity rank, 0 = most popular
	Internal bool // false for the landing page
}

// Pages returns the full 100-page corpus in a stable order: for each
// site (by rank), the landing page then its three internal pages.
func Pages() []PageRef {
	refs := make([]PageRef, 0, NumPages)
	for rank, site := range Sites {
		refs = append(refs, PageRef{URL: site + "/", Site: site, Rank: rank})
		// Internal pages are "three random internal pages" in the paper;
		// here they are derived deterministically from the site name.
		rng := rand.New(rand.NewSource(siteSeed(site)))
		for j := 0; j < InternalPagesPerSite; j++ {
			refs = append(refs, PageRef{
				URL:      fmt.Sprintf("%s/story/%04d", site, rng.Intn(10000)),
				Site:     site,
				Rank:     rank,
				Internal: true,
			})
		}
	}
	return refs
}

func siteSeed(site string) int64 {
	h := fnv.New64a()
	h.Write([]byte(site))
	return int64(h.Sum64())
}

// Generate renders the page model for a corpus page at the given hour.
// Pages only re-render when ChangedAt fires, so two consecutive hours
// with no change produce byte-identical pages (and cache hits).
func Generate(ref PageRef, hour int) *webrender.Page {
	opts := webrender.DefaultGenOptions()
	if ref.Internal {
		// Internal pages (stories) are shorter than landing pages on
		// average, but long-form stories exist — the height spread is
		// what makes the PH:10k crop (Fig. 4b) bite for most pages.
		opts.MinBlocks = 20
		opts.MaxBlocks = 66
	}
	return webrender.Generate(ref.URL, EffectiveHour(ref, hour), opts)
}

// EffectiveHour returns the most recent hour <= hour at which the page's
// content last changed (0 if it never has).
func EffectiveHour(ref PageRef, hour int) int {
	for h := hour; h > 0; h-- {
		if ChangedAt(ref, h) {
			return h
		}
	}
	return 0
}

// ChangedAt reports whether a page's rendered content changed at the
// given hour boundary. The decision is a deterministic per-(page, hour)
// coin flip, so observations compose consistently. Churn follows a
// diurnal pattern — newsrooms publish during the day — which is what
// gives Figure 4(c) its daily sawtooth.
func ChangedAt(ref PageRef, hour int) bool {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s@%d", ref.URL, hour)
	v := float64(h.Sum64()%1_000_000_000) / 1_000_000_000
	return v < churnRate(ref)*DiurnalFactor(hour)
}

// DiurnalFactor modulates churn over the day: quiet nights (0.3x),
// busy daytime (1.2x).
func DiurnalFactor(hour int) float64 {
	hod := hour % 24
	if hod >= 7 && hod < 22 {
		return 1.2
	}
	return 0.3
}

// churnRate returns the per-hour probability that a page's rendered
// content changes.
func churnRate(ref PageRef) float64 {
	base := 0.95 - 0.01*float64(ref.Rank) // popular sites churn more
	if ref.Internal {
		base *= 0.35 // stories mostly stay put once published
	}
	if base < 0.05 {
		base = 0.05
	}
	return base
}

// PopularityWeight returns the relative request popularity of a page,
// Zipf-like over site rank with landing pages dominating. The server's
// preemptive push uses this ordering (§3.1: "maintains a list of the most
// popular websites in a region that are preemptively pushed").
func PopularityWeight(ref PageRef) float64 {
	w := 1.0 / float64(ref.Rank+1)
	if ref.Internal {
		w *= 0.3
	}
	return w
}
