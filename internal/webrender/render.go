package webrender

import (
	"math"
	"math/rand"
	"runtime"
	"sync"

	"sonic/internal/clickmap"
	"sonic/internal/imagecodec"
	"sonic/internal/parallel"
)

// Layout constants for the 1080-wide reference rendering (§3.2).
const (
	margin      = 24
	headerH     = 140
	navH        = 64
	headingTxt  = 4 // text scale factors
	bodyTxt     = 2
	linkTxt     = 2
	lineSpacing = 6
	blockGap    = 18
)

// Rendered is the output of rendering one page: the raster (1080 px wide,
// uncropped), the click map in image coordinates, and the per-row block
// classification the user-study metrics use to separate text readability
// from overall content understanding (Fig. 5's two questions).
type Rendered struct {
	Image  *imagecodec.Raster
	Clicks *clickmap.Map
	// Rows[y] is the kind of block that painted row y.
	Rows []BlockKind

	// buf is the pooled backing store, returned by Release.
	buf *renderBuf
}

// renderBuf is the reusable backing store of one render: the raster
// pixels (~1080×10k×3 bytes for a tall page) and the per-row block
// classification. Pooling them turns repeated renders from ~50 MB of
// fresh allocations each into near-zero steady-state allocation.
type renderBuf struct {
	pix  []byte
	rows []BlockKind
}

var renderPool = sync.Pool{New: func() any { return new(renderBuf) }}

// Release returns the rendering's pooled buffers for reuse. After the
// call, Image and Rows must no longer be used; callers that keep the
// raster (experiments, examples) simply never call Release and the
// buffers stay theirs.
func (r *Rendered) Release() {
	if r == nil || r.buf == nil {
		return
	}
	buf := r.buf
	r.buf = nil
	r.Image = nil
	r.Rows = nil
	renderPool.Put(buf)
}

// TextRow reports whether row y is dominated by text (headings,
// paragraphs, link lists).
func (r *Rendered) TextRow(y int) bool {
	if y < 0 || y >= len(r.Rows) {
		return false
	}
	switch r.Rows[y] {
	case BlockHeading, BlockParagraph, BlockLinkList:
		return true
	}
	return false
}

// Render rasterizes the page at the reference width. Height is whatever
// the content needs; callers apply Raster.Crop(MaxPageHeight) to enforce
// the paper's PH:10k policy.
func Render(p *Page) *Rendered {
	return RenderCropped(p, 0)
}

// RenderCropped rasterizes the page directly into a raster of at most
// maxH rows (0 = uncropped). The pixels are byte-identical to
// Render(p).Image.Crop(maxH) and the click map matches the full render's
// (regions below the crop are kept — §3.2 crops the image, not the
// links) — but blocks below the crop line never paint, so the server
// skips both the wasted rasterization of rows the PH:10k policy would
// discard and the 30 MB copy Crop makes.
func RenderCropped(p *Page, maxH int) *Rendered {
	fullH := measure(p)
	h := fullH
	if maxH > 0 && h > maxH {
		h = maxH
	}
	buf := renderPool.Get().(*renderBuf)
	n := 3 * imagecodec.PageWidth * h
	if cap(buf.pix) < n {
		buf.pix = make([]byte, n)
	}
	if cap(buf.rows) < h {
		buf.rows = make([]BlockKind, h)
	}
	img := &imagecodec.Raster{W: imagecodec.PageWidth, H: h, Pix: buf.pix[:n]}
	img.Fill(p.Theme.PageBG)
	clicks := &clickmap.Map{PageURL: p.URL}
	rows := buf.rows[:h]
	for i := range rows {
		rows[i] = 0
	}

	y := 0
	for bi := range p.Blocks {
		b := &p.Blocks[bi]
		next := renderBlock(img, clicks, p, b, y)
		for ry := y; ry < next && ry < h; ry++ {
			rows[ry] = b.Kind
		}
		y = next
	}
	return &Rendered{Image: img, Clicks: clicks, Rows: rows, buf: buf}
}

// measure computes the total rendered height and stores each block's
// HeightPx.
func measure(p *Page) int {
	total := 0
	for i := range p.Blocks {
		b := &p.Blocks[i]
		switch b.Kind {
		case BlockHeader:
			b.HeightPx = headerH
		case BlockNavBar:
			b.HeightPx = navH
		case BlockHeading:
			b.HeightPx = TextHeight(headingTxt) + 2*blockGap
		case BlockParagraph:
			b.HeightPx = len(b.Lines)*(TextHeight(bodyTxt)+lineSpacing) + blockGap
		case BlockImage:
			b.HeightPx = 420 + TextHeight(bodyTxt) + blockGap
		case BlockLinkList:
			b.HeightPx = len(b.Links)*(TextHeight(linkTxt)+lineSpacing+8) + blockGap
		case BlockAd:
			b.HeightPx = 180 + blockGap
		case BlockFooter:
			b.HeightPx = 120
		case BlockTable:
			b.HeightPx = len(b.TableRows)*(TextHeight(bodyTxt)+14) + 2 + blockGap
		case BlockSearch:
			b.HeightPx = 72 + blockGap
		default:
			b.HeightPx = blockGap
		}
		total += b.HeightPx
	}
	return total
}

func renderBlock(img *imagecodec.Raster, clicks *clickmap.Map, p *Page, b *Block, y int) int {
	w := img.W
	switch b.Kind {
	case BlockHeader:
		img.FillRect(0, y, w, headerH, p.Theme.Header)
		DrawText(img, margin, y+headerH/2-TextHeight(5)/2, b.Text, 5,
			imagecodec.RGB{R: 255, G: 255, B: 255})
	case BlockNavBar:
		img.FillRect(0, y, w, navH, p.Theme.Accent)
		x := margin
		for _, l := range b.Links {
			tw := TextWidth(l.Text, linkTxt)
			DrawText(img, x, y+navH/2-TextHeight(linkTxt)/2, l.Text, linkTxt,
				imagecodec.RGB{R: 240, G: 240, B: 240})
			clicks.Add(x, y, tw, navH, l.URL)
			x += tw + 36
			if x > w-margin {
				break
			}
		}
	case BlockHeading:
		DrawText(img, margin, y+blockGap, b.Text, headingTxt, p.Theme.Text)
	case BlockParagraph:
		ty := y
		for _, line := range b.Lines {
			DrawText(img, margin, ty, line, bodyTxt, p.Theme.Text)
			ty += TextHeight(bodyTxt) + lineSpacing
		}
	case BlockImage:
		drawPseudoPhoto(img, margin, y, w-2*margin, 400, b.ImageSeed)
		DrawText(img, margin, y+408, b.Text, bodyTxt,
			imagecodec.RGB{R: 100, G: 100, B: 100})
	case BlockLinkList:
		ty := y
		for _, l := range b.Links {
			// Bullet.
			img.FillRect(margin, ty+4, 6, 6, p.Theme.Link)
			DrawText(img, margin+16, ty, l.Text, linkTxt, p.Theme.Link)
			tw := TextWidth(l.Text, linkTxt)
			// Underline, the visual cue for a hyperlink.
			img.FillRect(margin+16, ty+TextHeight(linkTxt)+1, tw, 1, p.Theme.Link)
			clicks.Add(margin, ty, tw+16, TextHeight(linkTxt)+8, l.URL)
			ty += TextHeight(linkTxt) + lineSpacing + 8
		}
	case BlockAd:
		img.FillRect(margin, y, w-2*margin, 160, b.Tint)
		img.FillRect(margin, y, w-2*margin, 4, imagecodec.RGB{R: 120, G: 100, B: 30})
		DrawText(img, w/2-TextWidth(b.Text, 3)/2, y+70, b.Text, 3,
			imagecodec.RGB{R: 80, G: 60, B: 10})
	case BlockFooter:
		img.FillRect(0, y, w, 120, imagecodec.RGB{R: 40, G: 40, B: 40})
		DrawText(img, margin, y+50, b.Text, 2, imagecodec.RGB{R: 200, G: 200, B: 200})
	case BlockTable:
		renderTable(img, p, b, y)
	case BlockSearch:
		// A bordered input box plus a button; the button region triggers
		// an uplink query when tapped.
		boxW := w * 2 / 3
		grey := imagecodec.RGB{R: 150, G: 150, B: 150}
		img.FillRect(margin, y+8, boxW, 48, imagecodec.RGB{R: 250, G: 250, B: 250})
		img.FillRect(margin, y+8, boxW, 2, grey)
		img.FillRect(margin, y+54, boxW, 2, grey)
		img.FillRect(margin, y+8, 2, 48, grey)
		img.FillRect(margin+boxW-2, y+8, 2, 48, grey)
		DrawText(img, margin+12, y+24, b.Text, 2, grey)
		bx := margin + boxW + 16
		img.FillRect(bx, y+8, 140, 48, p.Theme.Accent)
		DrawText(img, bx+20, y+24, "GO", 3, imagecodec.RGB{R: 255, G: 255, B: 255})
		if len(b.Links) > 0 {
			clicks.Add(bx, y+8, 140, 48, b.Links[0].URL)
		}
	}
	return y + b.HeightPx
}

// renderTable draws a bordered grid with text cells.
func renderTable(img *imagecodec.Raster, p *Page, b *Block, y int) {
	if len(b.TableRows) == 0 {
		return
	}
	w := img.W - 2*margin
	rowH := TextHeight(bodyTxt) + 14
	cols := len(b.TableRows[0])
	line := imagecodec.RGB{R: 180, G: 180, B: 180}
	for r, row := range b.TableRows {
		ry := y + 2 + r*rowH
		// Header row tinted.
		if r == 0 {
			img.FillRect(margin, ry, w, rowH, imagecodec.RGB{R: 0xEF, G: 0xEF, B: 0xEF})
		}
		img.FillRect(margin, ry, w, 1, line)
		for c := 0; c < cols && c < len(row); c++ {
			cx := margin + c*w/cols
			img.FillRect(cx, ry, 1, rowH, line)
			DrawText(img, cx+8, ry+7, row[c], bodyTxt, p.Theme.Text)
		}
	}
	bottom := y + 2 + len(b.TableRows)*rowH
	img.FillRect(margin, bottom, w, 1, line)
	img.FillRect(margin+w-1, y+2, 1, bottom-y-2, line)
}

// photoGrid is the control-point grid of the pseudo-photo generator.
const photoGrid = 4

// photoScratch holds the per-photo scanline state: the horizontal lerp
// of every control row at every x (lerp[gy][3*x+c]), rounded to 8 bits.
// Storing bytes instead of Q16 keeps all five rows L1-resident (~16 KB
// for a full-width photo) and shrinks the vertical blend to pure int32
// math; the extra rounding step moves output by at most one count,
// invisible under the photo's own grain. Pooled across photos.
type photoScratch struct {
	lerp [photoGrid + 1][]uint8
}

var photoPool = sync.Pool{New: func() any { return new(photoScratch) }}

func getPhotoScratch(w int) *photoScratch {
	sc := photoPool.Get().(*photoScratch)
	for gy := range sc.lerp {
		if cap(sc.lerp[gy]) < 3*w {
			sc.lerp[gy] = make([]uint8, 3*w)
		}
		sc.lerp[gy] = sc.lerp[gy][:3*w]
	}
	return sc
}

// photoNoise derives the grain for one pixel from a combined
// seed/row/column key via the splitmix64 finalizer, returning a value
// in [-3, 3]. Grain is a pure function of (seed, y, x) rather than a
// sequentially-consumed rng stream, which is what lets photo rows
// rasterize on any number of workers with byte-identical output.
func photoNoise(s uint64) int32 {
	s += 0x9E3779B97F4A7C15
	s = (s ^ (s >> 30)) * 0xBF58476D1CE4E5B9
	s = (s ^ (s >> 27)) * 0x94D049BB133111EB
	s ^= s >> 31
	return int32(s%7) - 3
}

// photoNoiseKey combines the photo seed with a pixel coordinate.
func photoNoiseKey(seed uint64, x, y int) uint64 {
	return seed + uint64(y)*0x9E3779B97F4A7C15 + uint64(x)
}

// drawPseudoPhoto paints a photo-like region: low-frequency color patches
// with mild per-pixel noise, matching how real news imagery stresses the
// codec more than flat UI chrome. The thumbnail is intentionally not
// clickable (§3.4: videos are replaced by non-clickable thumbnails).
//
// The bilinear interpolation is Q16 fixed point run scanline-wise: the
// horizontal lerp of each control row is computed once per x (it is
// identical for every scanline) and each output row folds just the
// vertical lerp plus grain, writing its visible span directly into the
// raster. Control colors live in [40, 220] and grain in [-3, 3], so
// blended pixels can never leave [0, 255] and the rows need no clamp.
// Rows are pure functions of (seed, y): grain comes from photoNoise
// rather than a shared rng stream, so the row loop is data-parallel
// across GOMAXPROCS workers with byte-identical output at any count.
func drawPseudoPhoto(img *imagecodec.Raster, x0, y0, w, h int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	// 4x4 control grid, bilinear interpolation between random colors.
	// The grid stays rng-driven (16.16 fixed point) so pages keep their
	// per-seed palette.
	const grid = photoGrid
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
	// Fully clipped photos skip rasterization entirely: nothing else
	// observes a photo's noise keys, so the visible output is unchanged.
	if y0 >= img.H || y0+h <= 0 || x0 >= img.W || x0+w <= 0 {
		return
	}
	sc := getPhotoScratch(w)
	defer photoPool.Put(sc)
	for x := 0; x < w; x++ {
		fx := x * grid << 16 / w
		ix := fx >> 16
		if ix >= grid {
			ix = grid - 1
		}
		rx := int64(fx - ix<<16)
		for gy := 0; gy <= grid; gy++ {
			for c := 0; c < 3; c++ {
				av := ctrl[gy][ix][c]
				v := av + int32(int64(ctrl[gy][ix+1][c]-av)*rx>>16)
				sc.lerp[gy][3*x+c] = uint8((v + 0x8000) >> 16)
			}
		}
	}
	// Visible span of each row against the raster.
	dx0, sx0 := x0, 0
	if dx0 < 0 {
		sx0, dx0 = -dx0, 0
	}
	dx1 := x0 + w
	if dx1 > img.W {
		dx1 = img.W
	}
	sx1 := sx0 + (dx1 - dx0)
	if sx0 >= sx1 {
		return
	}
	yLo := 0
	if y0 < 0 {
		yLo = -y0
	}
	yHi := h
	if y0+yHi > img.H {
		yHi = img.H - y0
	}
	if yLo >= yHi {
		return
	}
	base := uint64(seed)
	parallel.For(runtime.GOMAXPROCS(0), yHi-yLo, 1, func(lo, hi int) {
		for yi := lo; yi < hi; yi++ {
			y := yLo + yi
			fy := y * grid << 16 / h
			iy := fy >> 16
			if iy >= grid {
				iy = grid - 1
			}
			ry := int32(fy - iy<<16)
			out := img.Pix[3*((y0+y)*img.W+dx0) : 3*((y0+y)*img.W+dx1)]
			top := sc.lerp[iy][3*sx0:]
			bot := sc.lerp[iy+1][3*sx0:]
			top = top[:len(out)]
			bot = bot[:len(out)]
			for j := range out {
				t := int32(top[j])
				out[j] = uint8(t + (int32(bot[j])-t)*ry>>16)
			}
			if y%3 == 0 {
				// Grain pass over every 4th pixel; separate from the blend
				// loop so the common row stays branch-free.
				for x := (sx0 + 3) &^ 3; x < sx1; x += 4 {
					n := photoNoise(photoNoiseKey(base, x, y))
					j := 3 * (x - sx0)
					out[j] = uint8(int32(out[j]) + n)
					out[j+1] = uint8(int32(out[j+1]) + n)
					out[j+2] = uint8(int32(out[j+2]) + n)
				}
			}
		}
	})
}
