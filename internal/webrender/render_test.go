package webrender

import (
	"strings"
	"testing"

	"sonic/internal/imagecodec"
)

// whiteRaster is a w×h raster filled with white, a page's background.
func whiteRaster(w, h int) *imagecodec.Raster {
	r := imagecodec.NewBlackRaster(w, h)
	r.Fill(imagecodec.RGB{R: 255, G: 255, B: 255})
	return r
}

func TestDrawTextAndMetrics(t *testing.T) {
	r := whiteRaster(200, 40)
	end := DrawText(r, 4, 4, "SONIC", 2, imagecodec.RGB{})
	if end <= 4 {
		t.Error("DrawText did not advance")
	}
	// Some dark pixels must have appeared.
	dark := 0
	for y := 0; y < r.H; y++ {
		for x := 0; x < r.W; x++ {
			if r.At(x, y) == (imagecodec.RGB{}) {
				dark++
			}
		}
	}
	if dark < 20 {
		t.Errorf("only %d text pixels drawn", dark)
	}
	if TextWidth("AB", 2) != 2*(5+1)*2-2 {
		t.Errorf("TextWidth = %d", TextWidth("AB", 2))
	}
	if TextWidth("", 3) != 0 {
		t.Error("empty TextWidth should be 0")
	}
	if TextHeight(3) != 21 {
		t.Errorf("TextHeight(3) = %d", TextHeight(3))
	}
	// Lowercase maps to uppercase; unknown runes use the box glyph.
	if glyphFor('a') != glyphFor('A') {
		t.Error("lowercase should reuse uppercase glyphs")
	}
	if glyphFor('€') != unknownGlyph {
		t.Error("unknown rune should map to box")
	}
}

func TestGenerateDeterminism(t *testing.T) {
	a := Generate("khabar.pk/", 5, DefaultGenOptions())
	b := Generate("khabar.pk/", 5, DefaultGenOptions())
	if len(a.Blocks) != len(b.Blocks) || a.Title != b.Title {
		t.Fatal("same (url,hour) must generate identical pages")
	}
	for i := range a.Blocks {
		if a.Blocks[i].Kind != b.Blocks[i].Kind || a.Blocks[i].Text != b.Blocks[i].Text {
			t.Fatalf("block %d differs", i)
		}
	}
	c := Generate("khabar.pk/", 6, DefaultGenOptions())
	same := len(a.Blocks) == len(c.Blocks)
	if same {
		identical := true
		for i := range a.Blocks {
			if a.Blocks[i].Text != c.Blocks[i].Text {
				identical = false
				break
			}
		}
		if identical {
			t.Error("different hours should change content")
		}
	}
}

func TestGenerateStructure(t *testing.T) {
	p := Generate("dunya-news.pk/", 0, DefaultGenOptions())
	if p.Blocks[0].Kind != BlockHeader || p.Blocks[1].Kind != BlockNavBar {
		t.Error("page must start with header + nav")
	}
	if p.Blocks[len(p.Blocks)-1].Kind != BlockFooter {
		t.Error("page must end with footer")
	}
	if p.Weight < 1_000_000 || p.Weight > 3_200_000 {
		t.Errorf("page weight %d outside the ~2MB average regime", p.Weight)
	}
	if p.SiteName != "dunya-news.pk" {
		t.Errorf("site = %q", p.SiteName)
	}
	// Theme stable across hours.
	p2 := Generate("dunya-news.pk/story/1", 9, DefaultGenOptions())
	if p.Theme != p2.Theme {
		t.Error("theme must be stable per site")
	}
}

func TestRenderProducesPageAndClicks(t *testing.T) {
	p := Generate("cricfeed.pk/", 3, DefaultGenOptions())
	r := Render(p)
	if r.Image.W != imagecodec.PageWidth {
		t.Errorf("width = %d", r.Image.W)
	}
	if r.Image.H < 2000 {
		t.Errorf("height = %d, implausibly short for a landing page", r.Image.H)
	}
	if len(r.Clicks.Regions) < 5 {
		t.Errorf("only %d click regions", len(r.Clicks.Regions))
	}
	// Click regions must be in-bounds horizontally and have sane URLs.
	for _, reg := range r.Clicks.Regions {
		if reg.X < 0 || reg.X+reg.W > r.Image.W || reg.W <= 0 || reg.H <= 0 {
			t.Errorf("bad region %+v", reg)
		}
		if !strings.Contains(reg.URL, "cricfeed.pk") {
			t.Errorf("region URL %q not same-site", reg.URL)
		}
	}
	// The header band must be drawn in the theme color.
	if r.Image.At(2, 2) != p.Theme.Header {
		t.Error("header not painted")
	}
}

func TestRenderHeightsVaryAcrossCorpus(t *testing.T) {
	// The Fig 4(b) CDF depends on a spread of page heights, with a good
	// share exceeding the 10k crop.
	over10k := 0
	const n = 12
	for i := 0; i < n; i++ {
		p := Generate("site"+string(rune('a'+i))+".pk/", 0, DefaultGenOptions())
		r := Render(p)
		if r.Image.H > imagecodec.MaxPageHeight {
			over10k++
		}
	}
	if over10k == 0 {
		t.Error("no landing page exceeded 10k px; crop experiments would be vacuous")
	}
	if over10k == n {
		t.Error("every page exceeded 10k px; height distribution too narrow")
	}
}

func TestWrap(t *testing.T) {
	lines := wrap("aa bb cc dd", 5)
	if len(lines) != 3 { // "aa bb", "cc dd" -> wait: "aa bb" is 5 chars
		// Accept 2 or 3 depending on boundary handling, but verify no line
		// exceeds the width and all words survive.
		t.Logf("lines: %q", lines)
	}
	joined := strings.Join(lines, " ")
	if joined != "aa bb cc dd" {
		t.Errorf("words lost: %q", joined)
	}
	for _, l := range lines {
		if len(l) > 5 {
			t.Errorf("line %q exceeds width", l)
		}
	}
	if len(wrap("", 10)) != 0 {
		t.Error("empty wrap should be empty")
	}
}

func TestTitleCase(t *testing.T) {
	if got := titleCase("the lahore news"); got != "The Lahore News" {
		t.Errorf("titleCase = %q", got)
	}
}

func BenchmarkRenderLandingPage(b *testing.B) {
	p := Generate("khabar.pk/", 1, DefaultGenOptions())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Render(p)
	}
}
