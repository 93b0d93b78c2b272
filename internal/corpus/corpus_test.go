package corpus

import (
	"strings"
	"testing"
)

func TestCorpusGeometry(t *testing.T) {
	if len(Sites) != NumSites {
		t.Fatalf("len(Sites) = %d, want %d", len(Sites), NumSites)
	}
	pages := Pages()
	if len(pages) != NumPages || NumPages != 100 {
		t.Fatalf("corpus has %d pages, want 100", len(pages))
	}
	landing, internal := 0, 0
	seen := map[string]bool{}
	for _, p := range pages {
		if seen[p.URL] {
			t.Errorf("duplicate URL %s", p.URL)
		}
		seen[p.URL] = true
		if !strings.HasSuffix(p.Site, ".pk") {
			t.Errorf("site %q not .pk", p.Site)
		}
		if p.Internal {
			internal++
		} else {
			landing++
		}
	}
	if landing != 25 || internal != 75 {
		t.Errorf("landing=%d internal=%d, want 25/75", landing, internal)
	}
}

func TestPagesStableOrder(t *testing.T) {
	a, b := Pages(), Pages()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Pages() must be deterministic")
		}
	}
}

func TestGenerateRespectsChangeSchedule(t *testing.T) {
	ref := Pages()[0] // most popular landing page
	// Find an hour where the page did NOT change; generation must match
	// the previous hour exactly.
	found := false
	for h := 1; h < 48; h++ {
		if !ChangedAt(ref, h) {
			a := Generate(ref, h-1)
			b := Generate(ref, h)
			if a.Title != b.Title {
				t.Fatalf("hour %d: unchanged page rendered differently", h)
			}
			found = true
			break
		}
	}
	if !found {
		t.Skip("page churned every hour in the window")
	}
}

func TestChurnRates(t *testing.T) {
	pages := Pages()
	// Popular landing pages churn much more than internal pages.
	popular := pages[0]
	internalPage := pages[1]
	if !internalPage.Internal {
		t.Fatal("expected internal page at index 1")
	}
	cPop, cInt := 0, 0
	for h := 1; h <= StudyHours; h++ {
		if ChangedAt(popular, h) {
			cPop++
		}
		if ChangedAt(internalPage, h) {
			cInt++
		}
	}
	if cPop <= cInt {
		t.Errorf("popular landing churn %d <= internal churn %d", cPop, cInt)
	}
	if cPop < StudyHours/2 {
		t.Errorf("top news page changed only %d/%d hours", cPop, StudyHours)
	}
}

func TestPopularityWeights(t *testing.T) {
	pages := Pages()
	if PopularityWeight(pages[0]) <= PopularityWeight(pages[4]) {
		t.Error("rank 0 landing must outweigh rank 1 landing")
	}
	if PopularityWeight(pages[0]) <= PopularityWeight(pages[1]) {
		t.Error("landing must outweigh internal of same site")
	}
	for _, p := range pages {
		if PopularityWeight(p) <= 0 {
			t.Errorf("non-positive weight for %s", p.URL)
		}
	}
}

func TestGenerateInternalShorterThanLanding(t *testing.T) {
	pages := Pages()
	landing := Generate(pages[0], 0)
	internal := Generate(pages[1], 0)
	if len(internal.Blocks) >= len(landing.Blocks) {
		// Not guaranteed per-sample; compare across several sites.
		shorter := 0
		for i := 0; i < 20; i += 4 {
			l := Generate(pages[i], 0)
			in := Generate(pages[i+1], 0)
			if len(in.Blocks) < len(l.Blocks) {
				shorter++
			}
		}
		if shorter < 3 {
			t.Errorf("internal pages shorter in only %d/5 sites", shorter)
		}
	}
	_ = landing
	_ = internal
}
