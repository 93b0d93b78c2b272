package webrender

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"

	"sonic/internal/imagecodec"
)

// The generator produces a Page deterministically from (url, hour). The
// same URL at the same hour always renders identically — the property the
// SONIC server's cache and the three-day hourly corpus (§4) rely on —
// while different hours vary the content the way live news sites do.

// wordBank feeds the pseudo-text generator. Mixing common English with
// Pakistani place and topic names gives the text the visual texture of
// the paper's .pk corpus.
var wordBank = []string{
	"the", "latest", "news", "update", "report", "market", "cricket",
	"karachi", "lahore", "islamabad", "punjab", "sindh", "pakistan",
	"rupee", "budget", "election", "weather", "monsoon", "traffic",
	"education", "university", "exam", "result", "board", "technology",
	"mobile", "internet", "service", "government", "minister", "court",
	"order", "price", "gold", "petrol", "power", "supply", "water",
	"health", "hospital", "match", "series", "team", "score", "final",
	"review", "analysis", "opinion", "live", "video", "photo", "special",
}

// seedFor derives a stable 64-bit seed from a URL and an hour index.
func seedFor(url string, hour int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s#%d", url, hour)
	return int64(h.Sum64())
}

// words produces n pseudo-words.
func words(rng *rand.Rand, n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(wordBank[rng.Intn(len(wordBank))])
	}
	return b.String()
}

// wrap splits text into lines of at most width characters.
func wrap(text string, width int) []string {
	var lines []string
	var cur strings.Builder
	for _, w := range strings.Fields(text) {
		if cur.Len() > 0 && cur.Len()+1+len(w) > width {
			lines = append(lines, cur.String())
			cur.Reset()
		}
		if cur.Len() > 0 {
			cur.WriteByte(' ')
		}
		cur.WriteString(w)
	}
	if cur.Len() > 0 {
		lines = append(lines, cur.String())
	}
	return lines
}

// themeFor derives the site palette from the site name only (stable
// across hours, like a real site's CSS).
func themeFor(site string) Theme {
	rng := rand.New(rand.NewSource(seedFor(site, -1)))
	hues := []imagecodec.RGB{
		{R: 0x1A, G: 0x3C, B: 0x8C}, {R: 0x8C, G: 0x1A, B: 0x2B},
		{R: 0x0E, G: 0x6B, B: 0x38}, {R: 0x4A, G: 0x14, B: 0x8C},
		{R: 0x0B, G: 0x57, B: 0x66}, {R: 0xB3, G: 0x54, B: 0x0E},
	}
	h := hues[rng.Intn(len(hues))]
	return Theme{
		Header: h,
		Accent: imagecodec.RGB{R: h.R / 2, G: h.G / 2, B: h.B / 2},
		Link:   imagecodec.RGB{R: 0x0B, G: 0x3D, B: 0xC1},
		Text:   imagecodec.RGB{R: 0x20, G: 0x20, B: 0x20},
		PageBG: imagecodec.RGB{R: 0xFF, G: 0xFF, B: 0xFF},
	}
}

// GenOptions tunes the page generator.
type GenOptions struct {
	// MinBlocks/MaxBlocks bound the content length (and thus page height).
	MinBlocks, MaxBlocks int
}

// internalLinks is how many same-site hyperlinks a page scatters.
const internalLinks = 12

// DefaultGenOptions match the paper's corpus: landing pages tall enough
// that the 10k-pixel crop binds for most of them (Fig. 4(b) shows the
// PH:10k curve saving ~100 KB for 75% of pages).
func DefaultGenOptions() GenOptions {
	return GenOptions{MinBlocks: 25, MaxBlocks: 72}
}

// Generate builds the synthetic page for url as rendered at the given
// hour (hour indexes the paper's hourly re-render over three days; any
// integer works).
func Generate(url string, hour int, opts GenOptions) *Page {
	site := siteOf(url)
	rng := rand.New(rand.NewSource(seedFor(url, hour)))
	// A stable per-URL rng fixes the page's structural skeleton so hourly
	// changes alter content, not layout class.
	struc := rand.New(rand.NewSource(seedFor(url, -2)))

	p := &Page{
		URL:      url,
		SiteName: site,
		Title:    strings.ToUpper(site) + " - " + words(rng, 3),
		Theme:    themeFor(site),
		Weight:   1_200_000 + struc.Intn(1_800_000), // ~1.2-3.0 MB "real" page
	}

	// Fixed chrome.
	nav := Block{Kind: BlockNavBar}
	for i := 0; i < 5+struc.Intn(4); i++ {
		nav.Links = append(nav.Links, Link{
			Text: strings.ToUpper(wordBank[struc.Intn(len(wordBank))]),
			URL:  fmt.Sprintf("%s/section/%d", site, i),
		})
	}
	p.Blocks = append(p.Blocks,
		Block{Kind: BlockHeader, Text: strings.ToUpper(site)},
		nav,
	)

	nBlocks := opts.MinBlocks + struc.Intn(opts.MaxBlocks-opts.MinBlocks+1)
	linksLeft := internalLinks
	for i := 0; i < nBlocks; i++ {
		roll := rng.Float64()
		switch {
		case roll < 0.12:
			p.Blocks = append(p.Blocks, Block{
				Kind: BlockHeading,
				Text: titleCase(words(rng, 4+rng.Intn(4))),
			})
		case roll < 0.55:
			text := words(rng, 40+rng.Intn(90))
			p.Blocks = append(p.Blocks, Block{
				Kind:  BlockParagraph,
				Lines: wrap(text, 58),
			})
		case roll < 0.72:
			p.Blocks = append(p.Blocks, Block{
				Kind:      BlockImage,
				ImageSeed: rng.Int63(),
				Text:      words(rng, 5),
			})
		case roll < 0.78:
			rows := make([][]string, 3+rng.Intn(5))
			cols := 3 + rng.Intn(3)
			for r := range rows {
				row := make([]string, cols)
				for c := range row {
					if rng.Intn(2) == 0 {
						row[c] = wordBank[rng.Intn(len(wordBank))]
					} else {
						row[c] = fmt.Sprintf("%d.%02d", rng.Intn(900), rng.Intn(100))
					}
				}
				rows[r] = row
			}
			p.Blocks = append(p.Blocks, Block{Kind: BlockTable, TableRows: rows})
		case roll < 0.80:
			p.Blocks = append(p.Blocks, Block{
				Kind:  BlockSearch,
				Text:  "SEARCH " + strings.ToUpper(site),
				Links: []Link{{Text: "search", URL: site + "/search"}},
			})
		case roll < 0.88:
			b := Block{Kind: BlockLinkList}
			for j := 0; j < 3+rng.Intn(4); j++ {
				ltxt := titleCase(words(rng, 3+rng.Intn(4)))
				lurl := fmt.Sprintf("%s/story/%d-%d", site, hour, rng.Intn(10000))
				if linksLeft > 0 {
					linksLeft--
				}
				b.Links = append(b.Links, Link{Text: ltxt, URL: lurl})
			}
			p.Blocks = append(p.Blocks, b)
		default:
			p.Blocks = append(p.Blocks, Block{
				Kind: BlockAd,
				Text: strings.ToUpper(words(rng, 3)),
				Tint: imagecodec.RGB{R: 0xE8, G: 0xD9, B: 0x7A},
			})
		}
	}
	p.Blocks = append(p.Blocks, Block{
		Kind: BlockFooter,
		Text: site + " - contact - privacy - " + words(rng, 2),
	})
	return p
}

// titleCase uppercases the first letter of each word (ASCII only — the
// word bank is ASCII).
func titleCase(s string) string {
	b := []byte(s)
	up := true
	for i, c := range b {
		if up && c >= 'a' && c <= 'z' {
			b[i] = c - 'a' + 'A'
		}
		up = c == ' '
	}
	return string(b)
}

// siteOf extracts the site name (host) from a URL-ish string.
func siteOf(url string) string {
	s := strings.TrimPrefix(strings.TrimPrefix(url, "https://"), "http://")
	if i := strings.IndexByte(s, '/'); i >= 0 {
		s = s[:i]
	}
	if s == "" {
		s = "unknown.pk"
	}
	return s
}
