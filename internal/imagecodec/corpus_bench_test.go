package imagecodec_test

import (
	"sync"
	"testing"

	"sonic/internal/corpus"
	"sonic/internal/imagecodec"
	"sonic/internal/webrender"
)

// The SIC benchmarks on what the codec actually sees: six corpus pages
// rendered the way the server renders a miss (1080 wide, cropped to
// MaxPageHeight), landing and story pages spread over the corpus, at
// the server's quality 10. One op encodes (or decodes) all six. Compare
// one core against two with -cpu 1,2.

const corpusQuality = 10

var corpusPages = sync.OnceValue(func() []*imagecodec.Raster {
	refs := corpus.Pages()
	pages := make([]*imagecodec.Raster, 6)
	for i := range pages {
		rendered := webrender.RenderCropped(corpus.Generate(refs[i*len(refs)/len(pages)], 0), imagecodec.MaxPageHeight)
		pages[i] = rendered.Image.Clone()
		rendered.Release()
	}
	return pages
})

func BenchmarkSICCorpusEncode(b *testing.B) {
	pages := corpusPages()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range pages {
			if _, err := imagecodec.EncodeSIC(p, corpusQuality); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkSICCorpusDecode(b *testing.B) {
	var streams [][]byte
	for _, p := range corpusPages() {
		enc, err := imagecodec.EncodeSIC(p, corpusQuality)
		if err != nil {
			b.Fatal(err)
		}
		streams = append(streams, enc)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range streams {
			if _, err := imagecodec.DecodeSIC(s); err != nil {
				b.Fatal(err)
			}
		}
	}
}
