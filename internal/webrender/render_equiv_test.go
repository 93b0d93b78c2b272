package webrender

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"sonic/internal/clickmap"
	"sonic/internal/imagecodec"
)

// Equivalence tests pinning the scanline rasterizer (row-span FillRect,
// glyph-atlas DrawText, per-scanline pseudo-photo interpolation, pooled
// render buffers, and the crop-at-render RenderCropped path) byte-exact
// against verbatim copies of the pre-optimization per-pixel renderer.

// --- verbatim pre-optimization reference implementations ---

func refFillRect(r *imagecodec.Raster, x0, y0, w, h int, c imagecodec.RGB) {
	for y := y0; y < y0+h; y++ {
		if y < 0 || y >= r.H {
			continue
		}
		for x := x0; x < x0+w; x++ {
			r.Set(x, y, c)
		}
	}
}

func refDrawText(r *imagecodec.Raster, x, y int, s string, scale int, c imagecodec.RGB) int {
	if scale < 1 {
		scale = 1
	}
	cx := x
	for _, ch := range s {
		g := glyphFor(ch)
		for row := 0; row < glyphH; row++ {
			bits := g[row]
			for col := 0; col < glyphW; col++ {
				if bits&(1<<uint(glyphW-1-col)) == 0 {
					continue
				}
				refFillRect(r, cx+col*scale, y+row*scale, scale, scale, c)
			}
		}
		cx += (glyphW + 1) * scale
	}
	return cx
}

// refDrawPseudoPhoto is the naive per-pixel form of the Q16 photo
// rasterizer (PR 8): horizontal lerp in 16.16 fixed point rounded to 8
// bits, vertical lerp between the 8-bit rows, grain derived per
// (seed, y, x) via photoNoise. Re-anchored from the float/serial-rng
// reference when the noise moved to per-row seed derivation for the
// data-parallel row loop and the staged lerp rows dropped to bytes.
func refDrawPseudoPhoto(img *imagecodec.Raster, x0, y0, w, h int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	const grid = 4
	var ctrl [grid + 1][grid + 1][3]int32
	for gy := 0; gy <= grid; gy++ {
		for gx := 0; gx <= grid; gx++ {
			for c := 0; c < 3; c++ {
				ctrl[gy][gx][c] = int32(math.Round((40 + 180*rng.Float64()) * 65536))
			}
		}
	}
	if w <= 0 || h <= 0 {
		return
	}
	for y := 0; y < h; y++ {
		fy := y * grid << 16 / h
		iy := fy >> 16
		if iy >= grid {
			iy = grid - 1
		}
		ry := int64(fy - iy<<16)
		for x := 0; x < w; x++ {
			fx := x * grid << 16 / w
			ix := fx >> 16
			if ix >= grid {
				ix = grid - 1
			}
			rx := int64(fx - ix<<16)
			var px [3]uint8
			for c := 0; c < 3; c++ {
				ta := ctrl[iy][ix][c]
				top := int32(uint8((ta + int32(int64(ctrl[iy][ix+1][c]-ta)*rx>>16) + 0x8000) >> 16))
				ba := ctrl[iy+1][ix][c]
				bot := int32(uint8((ba + int32(int64(ctrl[iy+1][ix+1][c]-ba)*rx>>16) + 0x8000) >> 16))
				var n int32
				if y%3 == 0 && x%4 == 0 {
					n = photoNoise(photoNoiseKey(uint64(seed), x, y))
				}
				px[c] = uint8(top + (bot-top)*int32(ry)>>16 + n)
			}
			img.Set(x0+x, y0+y, imagecodec.RGB{R: px[0], G: px[1], B: px[2]})
		}
	}
}

func refRenderTable(img *imagecodec.Raster, p *Page, b *Block, y int) {
	if len(b.TableRows) == 0 {
		return
	}
	w := img.W - 2*margin
	rowH := TextHeight(bodyTxt) + 14
	cols := len(b.TableRows[0])
	line := imagecodec.RGB{R: 180, G: 180, B: 180}
	for r, row := range b.TableRows {
		ry := y + 2 + r*rowH
		if r == 0 {
			refFillRect(img, margin, ry, w, rowH, imagecodec.RGB{R: 0xEF, G: 0xEF, B: 0xEF})
		}
		refFillRect(img, margin, ry, w, 1, line)
		for c := 0; c < cols && c < len(row); c++ {
			cx := margin + c*w/cols
			refFillRect(img, cx, ry, 1, rowH, line)
			refDrawText(img, cx+8, ry+7, row[c], bodyTxt, p.Theme.Text)
		}
	}
	bottom := y + 2 + len(b.TableRows)*rowH
	refFillRect(img, margin, bottom, w, 1, line)
	refFillRect(img, margin+w-1, y+2, 1, bottom-y-2, line)
}

func refRenderBlock(img *imagecodec.Raster, clicks *clickmap.Map, p *Page, b *Block, y int) int {
	w := img.W
	switch b.Kind {
	case BlockHeader:
		refFillRect(img, 0, y, w, headerH, p.Theme.Header)
		refDrawText(img, margin, y+headerH/2-TextHeight(5)/2, b.Text, 5,
			imagecodec.RGB{R: 255, G: 255, B: 255})
	case BlockNavBar:
		refFillRect(img, 0, y, w, navH, p.Theme.Accent)
		x := margin
		for _, l := range b.Links {
			tw := TextWidth(l.Text, linkTxt)
			refDrawText(img, x, y+navH/2-TextHeight(linkTxt)/2, l.Text, linkTxt,
				imagecodec.RGB{R: 240, G: 240, B: 240})
			clicks.Add(x, y, tw, navH, l.URL)
			x += tw + 36
			if x > w-margin {
				break
			}
		}
	case BlockHeading:
		refDrawText(img, margin, y+blockGap, b.Text, headingTxt, p.Theme.Text)
	case BlockParagraph:
		ty := y
		for _, line := range b.Lines {
			refDrawText(img, margin, ty, line, bodyTxt, p.Theme.Text)
			ty += TextHeight(bodyTxt) + lineSpacing
		}
	case BlockImage:
		refDrawPseudoPhoto(img, margin, y, w-2*margin, 400, b.ImageSeed)
		refDrawText(img, margin, y+408, b.Text, bodyTxt,
			imagecodec.RGB{R: 100, G: 100, B: 100})
	case BlockLinkList:
		ty := y
		for _, l := range b.Links {
			refFillRect(img, margin, ty+4, 6, 6, p.Theme.Link)
			refDrawText(img, margin+16, ty, l.Text, linkTxt, p.Theme.Link)
			tw := TextWidth(l.Text, linkTxt)
			refFillRect(img, margin+16, ty+TextHeight(linkTxt)+1, tw, 1, p.Theme.Link)
			clicks.Add(margin, ty, tw+16, TextHeight(linkTxt)+8, l.URL)
			ty += TextHeight(linkTxt) + lineSpacing + 8
		}
	case BlockAd:
		refFillRect(img, margin, y, w-2*margin, 160, b.Tint)
		refFillRect(img, margin, y, w-2*margin, 4, imagecodec.RGB{R: 120, G: 100, B: 30})
		refDrawText(img, w/2-TextWidth(b.Text, 3)/2, y+70, b.Text, 3,
			imagecodec.RGB{R: 80, G: 60, B: 10})
	case BlockFooter:
		refFillRect(img, 0, y, w, 120, imagecodec.RGB{R: 40, G: 40, B: 40})
		refDrawText(img, margin, y+50, b.Text, 2, imagecodec.RGB{R: 200, G: 200, B: 200})
	case BlockTable:
		refRenderTable(img, p, b, y)
	case BlockSearch:
		boxW := w * 2 / 3
		grey := imagecodec.RGB{R: 150, G: 150, B: 150}
		refFillRect(img, margin, y+8, boxW, 48, imagecodec.RGB{R: 250, G: 250, B: 250})
		refFillRect(img, margin, y+8, boxW, 2, grey)
		refFillRect(img, margin, y+54, boxW, 2, grey)
		refFillRect(img, margin, y+8, 2, 48, grey)
		refFillRect(img, margin+boxW-2, y+8, 2, 48, grey)
		refDrawText(img, margin+12, y+24, b.Text, 2, grey)
		bx := margin + boxW + 16
		refFillRect(img, bx, y+8, 140, 48, p.Theme.Accent)
		refDrawText(img, bx+20, y+24, "GO", 3, imagecodec.RGB{R: 255, G: 255, B: 255})
		if len(b.Links) > 0 {
			clicks.Add(bx, y+8, 140, 48, b.Links[0].URL)
		}
	}
	return y + b.HeightPx
}

func refRender(p *Page) *Rendered {
	h := measure(p)
	img := imagecodec.NewBlackRaster(imagecodec.PageWidth, h)
	img.Fill(p.Theme.PageBG)
	clicks := &clickmap.Map{PageURL: p.URL}
	rows := make([]BlockKind, h)

	y := 0
	for bi := range p.Blocks {
		b := &p.Blocks[bi]
		next := refRenderBlock(img, clicks, p, b, y)
		for ry := y; ry < next && ry < h; ry++ {
			rows[ry] = b.Kind
		}
		y = next
	}
	return &Rendered{Page: p, Image: img, Clicks: clicks, Rows: rows}
}

// --- helpers ---

func firstPixelDiff(a, b *imagecodec.Raster) string {
	if a.W != b.W || a.H != b.H {
		return fmt.Sprintf("geometry %dx%d vs %dx%d", a.W, a.H, b.W, b.H)
	}
	for i := range a.Pix {
		if a.Pix[i] != b.Pix[i] {
			x, y := (i/3)%a.W, i/3/a.W
			return fmt.Sprintf("pixel (%d,%d) channel %d: %d vs %d", x, y, i%3, a.Pix[i], b.Pix[i])
		}
	}
	return ""
}

func assertRenderedEqual(t *testing.T, label string, got, want *Rendered) {
	t.Helper()
	if d := firstPixelDiff(got.Image, want.Image); d != "" {
		t.Fatalf("%s: image differs: %s", label, d)
	}
	if !reflect.DeepEqual(got.Rows, want.Rows) {
		t.Errorf("%s: row classification differs", label)
	}
	if !reflect.DeepEqual(got.Clicks, want.Clicks) {
		t.Errorf("%s: click map differs: %d vs %d regions", label,
			len(got.Clicks.Regions), len(want.Clicks.Regions))
	}
}

// blockKindPage builds one page holding every block kind, with a seeded
// photo per entry in seeds.
func blockKindPage(seeds []int64) *Page {
	p := &Page{
		URL:      "equiv.pk/",
		SiteName: "equiv.pk",
		Theme:    themeFor("equiv.pk"),
	}
	p.Blocks = append(p.Blocks,
		Block{Kind: BlockHeader, Text: "EQUIV.PK"},
		Block{Kind: BlockNavBar, Links: []Link{
			{Text: "NEWS", URL: "equiv.pk/s/0"},
			{Text: "A VERY LONG NAV ITEM THAT OVERFLOWS THE RIGHT MARGIN AND CLIPS BADLY INDEED TRULY", URL: "equiv.pk/s/1"},
			{Text: "SPORT", URL: "equiv.pk/s/2"},
		}},
		Block{Kind: BlockHeading, Text: "Heading With Mixed case & punct.!?"},
		Block{Kind: BlockParagraph, Lines: []string{"first line of body text", "second line, with comma"}},
	)
	for _, s := range seeds {
		p.Blocks = append(p.Blocks, Block{Kind: BlockImage, ImageSeed: s, Text: "caption words"})
	}
	p.Blocks = append(p.Blocks,
		Block{Kind: BlockLinkList, Links: []Link{
			{Text: "Story One", URL: "equiv.pk/story/1"},
			{Text: "Story Two Longer Title", URL: "equiv.pk/story/2"},
		}},
		Block{Kind: BlockAd, Text: "BUY NOW", Tint: imagecodec.RGB{R: 0xE8, G: 0xD9, B: 0x7A}},
		Block{Kind: BlockTable, TableRows: [][]string{
			{"rate", "open", "close"},
			{"gold", "1.10", "2.20"},
			{"usd", "277.9", "278.1"},
		}},
		Block{Kind: BlockSearch, Text: "SEARCH EQUIV", Links: []Link{{Text: "search", URL: "equiv.pk/search"}}},
		Block{Kind: BlockFooter, Text: "equiv.pk - contact - privacy"},
	)
	measure(p)
	return p
}

// --- primitive equivalence ---

func TestFillRectMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	rects := [][4]int{
		{0, 0, 40, 30}, {-5, -5, 20, 20}, {30, 25, 100, 100}, // clipped corners
		{10, 10, 0, 5}, {10, 10, 5, 0}, // degenerate
		{-10, 5, 60, 1}, {5, -10, 1, 60}, // thin, partially out
	}
	for i := 0; i < 20; i++ {
		rects = append(rects, [4]int{rng.Intn(60) - 10, rng.Intn(50) - 10, rng.Intn(70), rng.Intn(60)})
	}
	got := whiteRaster(40, 30)
	want := whiteRaster(40, 30)
	for i, r := range rects {
		c := imagecodec.RGB{R: uint8(i * 13), G: uint8(i * 29), B: uint8(i * 51)}
		got.FillRect(r[0], r[1], r[2], r[3], c)
		refFillRect(want, r[0], r[1], r[2], r[3], c)
	}
	if d := firstPixelDiff(got, want); d != "" {
		t.Fatalf("FillRect differs after rect sequence: %s", d)
	}
}

func TestDrawTextMatchesReference(t *testing.T) {
	texts := []string{
		"HELLO, WORLD!", "lowercase folds", "unknown € runes",
		"0123456789 -/:?!&()'", "",
	}
	for scale := 1; scale <= 5; scale++ {
		for ti, s := range texts {
			got := whiteRaster(120, 50)
			want := whiteRaster(120, 50)
			c := imagecodec.RGB{R: uint8(40 * ti), G: 20, B: uint8(255 - 40*ti)}
			// Offsets chosen so text clips the right and bottom edges too.
			gEnd := DrawText(got, 4, 40-4*scale, s, scale, c)
			wEnd := refDrawText(want, 4, 40-4*scale, s, scale, c)
			if gEnd != wEnd {
				t.Fatalf("scale=%d %q: advance %d vs %d", scale, s, gEnd, wEnd)
			}
			if d := firstPixelDiff(got, want); d != "" {
				t.Fatalf("scale=%d %q: %s", scale, s, d)
			}
		}
	}
}

func TestPseudoPhotoMatchesReference(t *testing.T) {
	cases := []struct {
		x0, y0, w, h int
		seed         int64
	}{
		{0, 0, 64, 48, 1},
		{24, 10, 200, 150, 42},
		{24, 80, 128, 100, 42},     // bottom-clipped (raster is 120 tall)
		{24, 200, 128, 100, 7},     // fully below the raster
		{-10, -10, 100, 100, 99},   // top/left clipped
		{200, 10, 128, 64, 5},      // right-clipped (raster is 256 wide)
		{0, 0, 1032, 400, 1234567}, // full-size corpus photo
	}
	for _, tc := range cases {
		got := whiteRaster(256, 120)
		want := whiteRaster(256, 120)
		drawPseudoPhoto(got, tc.x0, tc.y0, tc.w, tc.h, tc.seed)
		refDrawPseudoPhoto(want, tc.x0, tc.y0, tc.w, tc.h, tc.seed)
		if d := firstPixelDiff(got, want); d != "" {
			t.Fatalf("photo %+v: %s", tc, d)
		}
	}
}

// TestPseudoPhotoWorkerIdentity pins the data-parallel photo row loop,
// which sizes its pool from GOMAXPROCS: at every processor count it must
// produce the raster the serial pass produces, byte for byte, including
// clipped photos whose visible span is partial.
func TestPseudoPhotoWorkerIdentity(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	cases := []struct {
		x0, y0, w, h int
		seed         int64
	}{
		{0, 0, 1032, 400, 1234567},
		{24, 10, 200, 150, 42},
		{-10, -10, 100, 100, 99},
		{200, 10, 128, 64, 5},
	}
	for _, tc := range cases {
		runtime.GOMAXPROCS(1)
		want := whiteRaster(256, 120)
		drawPseudoPhoto(want, tc.x0, tc.y0, tc.w, tc.h, tc.seed)
		for _, procs := range []int{2, 3, 4, 8, 16} {
			runtime.GOMAXPROCS(procs)
			got := whiteRaster(256, 120)
			drawPseudoPhoto(got, tc.x0, tc.y0, tc.w, tc.h, tc.seed)
			if d := firstPixelDiff(got, want); d != "" {
				t.Fatalf("photo %+v GOMAXPROCS=%d: %s", tc, procs, d)
			}
		}
	}
}

// --- whole-page equivalence ---

func TestRenderMatchesReferenceAllBlockKinds(t *testing.T) {
	for _, seeds := range [][]int64{
		{3}, {17, 9000017, -55}, // single and multiple photo seeds
	} {
		p := blockKindPage(seeds)
		got := Render(p)
		want := refRender(p)
		assertRenderedEqual(t, fmt.Sprintf("seeds=%v", seeds), got, want)
		got.Release()
	}
}

func TestRenderMatchesReferenceAcrossCorpus(t *testing.T) {
	// A spread of sites, internal pages, and hours; every block kind
	// appears many times across the sample. Run twice per page so the
	// second render exercises pooled (warm) buffers.
	urls := []string{
		"khabar.pk/", "dunya-news.pk/", "mausam.pk/story/0042",
		"awaaz.pk/", "sasta.pk/story/7",
	}
	for _, url := range urls {
		for _, hour := range []int{0, 13} {
			p := Generate(url, hour, DefaultGenOptions())
			want := refRender(p)
			for pass := 0; pass < 2; pass++ {
				got := Render(p)
				assertRenderedEqual(t, fmt.Sprintf("%s@%d pass %d", url, hour, pass), got, want)
				got.Release()
			}
		}
	}
}

func TestRenderCroppedMatchesCrop(t *testing.T) {
	for _, url := range []string{"khabar.pk/", "cricfeed.pk/", "taleem.pk/story/11"} {
		p := Generate(url, 3, DefaultGenOptions())
		full := refRender(p)
		for _, maxH := range []int{0, 700, imagecodec.MaxPageHeight, full.Image.H + 50} {
			got := RenderCropped(p, maxH)
			wantImg := full.Image
			if maxH > 0 {
				wantImg = full.Image.Crop(maxH)
			}
			if d := firstPixelDiff(got.Image, wantImg); d != "" {
				t.Fatalf("%s maxH=%d: %s", url, maxH, d)
			}
			// The click map must match the FULL render's: the crop trims
			// pixels, not links.
			if !reflect.DeepEqual(got.Clicks, full.Clicks) {
				t.Errorf("%s maxH=%d: click map differs from full render", url, maxH)
			}
			if len(got.Rows) != wantImg.H {
				t.Fatalf("%s maxH=%d: rows len %d, want %d", url, maxH, len(got.Rows), wantImg.H)
			}
			for y := range got.Rows {
				if got.Rows[y] != full.Rows[y] {
					t.Fatalf("%s maxH=%d: row %d kind %v vs %v", url, maxH, y, got.Rows[y], full.Rows[y])
				}
			}
			got.Release()
		}
	}
}

// --- allocation guards ---

func TestRenderWarmAllocs(t *testing.T) {
	p := Generate("khabar.pk/", 1, DefaultGenOptions())
	Render(p).Release() // warm pools and the glyph atlas
	// Steady state: the Rendered/Raster headers and the click map's
	// regions — not the ~50 MB of raster, row, and photo-scratch slices
	// the old renderer allocated per page.
	//
	// The bound is per build mode, from the measured spread of this very
	// measurement (AllocsPerRun(5), 2-CPU host, whole package running):
	//
	//	plain  29 on 60 samples of 60          -> 30, the count plus one
	//	-race  38..55, mean 45.6, sd 3.7 (96)  -> 57, mean + 3 sd
	//
	// A renderBuf or photoScratch that is not put back is refilled here
	// (3 and 6 objects), so the plain bound fails on either leak. Under
	// -race sync.Pool.Put drops one Put in four by design, the same
	// surcharge as a coin flip per Put, not a transient, so the race leg
	// gets its own bound; one sample clears it 999 times in 1000 and the
	// best of three fails only when warm Render really allocates more.
	bound := 30.0
	if raceEnabled {
		bound = 57
	}
	best := math.Inf(1)
	for attempt := 0; attempt < 3 && best > bound; attempt++ {
		best = min(best, testing.AllocsPerRun(5, func() {
			Render(p).Release()
		}))
	}
	if best > bound {
		t.Errorf("warm Render allocates %v objects per call, want <= %v", best, bound)
	}
}

func BenchmarkRenderLandingPageWarm(b *testing.B) {
	p := Generate("khabar.pk/", 1, DefaultGenOptions())
	Render(p).Release()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Render(p).Release()
	}
}

func BenchmarkRenderCropped10k(b *testing.B) {
	p := Generate("khabar.pk/", 1, DefaultGenOptions())
	RenderCropped(p, imagecodec.MaxPageHeight).Release()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RenderCropped(p, imagecodec.MaxPageHeight).Release()
	}
}
