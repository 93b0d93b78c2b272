package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sonic/internal/admission"
	"sonic/internal/artifact"
	"sonic/internal/core"
	"sonic/internal/corpus"
	"sonic/internal/imagecodec"
	"sonic/internal/server"
	"sonic/internal/telemetry"
	"sonic/internal/webrender"
)

// rig is the system under test as every workload builds it: the paper's
// pipeline, a server at its default (production) configuration, and a
// telemetry registry with request-lifecycle tracking, the way a deployed
// server runs. Only the admission stage differs between workloads.
type rig struct {
	pipe  *core.Pipeline
	cfg   server.Config
	srv   *server.Server
	reg   *telemetry.Registry
	pages []corpus.PageRef // the part of the corpus this run draws from
}

func newRig(sz sizes, adm admission.Config, maxOpenTraces int) (*rig, error) {
	pipe, err := core.NewPipeline(core.DefaultConfig())
	if err != nil {
		return nil, err
	}
	cfg := server.DefaultConfig()
	cfg.Admission = adm
	srv := server.New(cfg, pipe)
	reg := telemetry.New()
	telemetry.NewLifecycle(reg, telemetry.LifecycleConfig{MaxOpenTraces: maxOpenTraces})
	srv.Instrument(reg)
	pages := corpus.Pages()
	if sz.CorpusPages < len(pages) {
		pages = pages[:sz.CorpusPages]
	}
	return &rig{pipe: pipe, cfg: cfg, srv: srv, reg: reg, pages: pages}, nil
}

func (r *rig) counter(name string) int64 { return r.reg.Counter(name).Value() }

// at converts a corpus hour plus simulated seconds to the server's clock.
func (r *rig) at(hour int, simS float64) time.Time {
	return r.cfg.Epoch.Add(time.Duration(hour)*time.Hour + time.Duration(simS*float64(time.Second)))
}

// renderCorpus renders every page of the rig's corpus at hour through
// the server (all cold) and returns each page's marshaled bundle size.
// Every workload does this in set-up: it is how the harness learns the
// sizes it draws and schedules by, and it leaves the render cache warm
// for the workloads that want render on the hit path. The pages are
// rendered on both cores, as a server's cold start would; missMs gets one
// sample per cold render.
func (r *rig) renderCorpus(hour int, missMs *[]float64) ([]int, error) {
	sizes := make([]int, len(r.pages))
	ms := make([]float64, len(r.pages))
	errs := make([]error, procs)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < procs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(r.pages); i = int(next.Add(1)) - 1 {
				t0 := time.Now()
				b, err := r.srv.RenderPage(r.pages[i].URL, r.at(hour, 0))
				if err != nil {
					errs[w] = fmt.Errorf("render %s: %w", r.pages[i].URL, err)
					return
				}
				ms[i] = float64(time.Since(t0)) / 1e6
				sizes[i] = len(core.MarshalBundle(b))
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	*missMs = append(*missMs, ms...)
	return sizes, nil
}

// bySize returns the page indexes in ascending order of bundle size.
func bySize(sizes []int) []int {
	order := make([]int, len(sizes))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return sizes[order[a]] < sizes[order[b]] })
	return order
}

// stratified draws k of the n pages, one from each size class: the
// pages are ordered by bundle size, cut into k equal runs, and one page
// is drawn from each run; the draw is returned smallest class first.
// Page cost is close to linear in bundle bytes through every layer, so
// a plain draw of a few pages would mostly measure whether it happened
// to pick large ones; this keeps the whole size range in every draw
// and the draw's mean within a percent or two across seeds.
func stratified(rng *rand.Rand, sizes []int, k int) []int {
	order := bySize(sizes)
	k = min(k, len(order))
	picks := make([]int, 0, k)
	for s := 0; s < k; s++ {
		lo, hi := s*len(order)/k, (s+1)*len(order)/k
		picks = append(picks, order[lo+rng.Intn(hi-lo)])
	}
	return picks
}

// middlingBand is how many pages around the corpus's median bundle size
// page_roundtrip draws from: 145 to 161 kB in a corpus of 80 to 200 kB.
const middlingBand = 16

// middling draws k distinct pages from the middlingBand pages (k, if
// that is more) whose bundle sizes are nearest the corpus median, in draw
// order. page_roundtrip reports the median op and compares it across
// seeds, and a page's cost is close to linear in its bytes through every
// layer: the median of a draw over all sizes moved by a tenth with the
// seed alone. Pages of one size class make an op mean the same thing on
// every seed.
func middling(rng *rand.Rand, sizes []int, k int) []int {
	order := bySize(sizes)
	band := min(max(middlingBand, k), len(order))
	k = min(k, band)
	lo := (len(order) - band) / 2
	picks := make([]int, 0, k)
	for _, j := range rng.Perm(band)[:k] {
		picks = append(picks, order[lo+j])
	}
	return picks
}

// middleOut reorders a smallest-first draw so that the middle size
// classes come first and the extremes last: 4,3,5,2,6,1,7,0 for eight.
func middleOut(picks []int) []int {
	out := make([]int, 0, len(picks))
	mid := len(picks) / 2
	for d := 0; len(out) < len(picks); d++ {
		if d == 0 {
			out = append(out, picks[mid])
			continue
		}
		if mid-d >= 0 {
			out = append(out, picks[mid-d])
		}
		if mid+d < len(picks) {
			out = append(out, picks[mid+d])
		}
	}
	return out
}

// stagedRender replays the server's render-miss path through the public
// functions of the layers it is made of, each as a replay span under
// parent, and returns the bundle so the caller can check it against the
// server's own.
func stagedRender(tr *tracer, parent, op int, ref corpus.PageRef, hour, quality int) (core.Bundle, error) {
	var page *webrender.Page
	tr.replay("webrender.generate", parent, op, func() { page = corpus.Generate(ref, hour) })
	var rendered *webrender.Rendered
	tr.replay("webrender.raster", parent, op, func() {
		rendered = webrender.RenderCropped(page, imagecodec.MaxPageHeight)
	})
	defer rendered.Release()
	var enc []byte
	var err error
	tr.replay("imagecodec.sic_encode", parent, op, func() {
		enc, err = imagecodec.EncodeSICWorkers(rendered.Image, quality, 0)
	})
	if err != nil {
		return core.Bundle{}, err
	}
	var cm []byte
	tr.replay("clickmap.marshal", parent, op, func() { cm, err = rendered.Clicks.MarshalJSON() })
	if err != nil {
		return core.Bundle{}, err
	}
	return core.Bundle{Image: enc, ClickMap: cm}, nil
}

// stagedEncode replays marshal -> FEC framing -> modulation, the stages
// the artifact chain runs on a miss.
func stagedEncode(tr *tracer, parent, op int, pipe *core.Pipeline, pageID uint16, b core.Bundle) (blob, stream []byte, audio []float64, err error) {
	tr.replay("core.marshal", parent, op, func() { blob = core.MarshalBundle(b) })
	tr.replay("frame.fec_encode", parent, op, func() { stream, err = pipe.BlobStream(pageID, blob) })
	if err != nil {
		return nil, nil, nil, err
	}
	tr.replay("modem.modulate", parent, op, func() { audio = pipe.ModulateStream(stream) })
	return blob, stream, audio, nil
}

func bundlesEqual(a, b core.Bundle) bool {
	return bytes.Equal(a.Image, b.Image) && bytes.Equal(a.ClickMap, b.ClickMap)
}

// airing is one transmission on one tower's simulated clock.
type airing struct {
	page       int
	start, end float64
}

// listenerWaits is the audience of a carousel: n listeners, each
// wanting one page (drawn by the demand weights the rotation was built
// from) from a moment drawn uniformly in [0, window), wait until that
// page has next been aired in full. A listener whose page does not
// start again before the log ends is unserved. The draw is seeded, so
// the waits are a function of the seed and the schedule alone.
func listenerWaits(rng *rand.Rand, log []airing, weights []float64, window float64, n int) (waits []float64, unserved int) {
	starts := make([][]float64, len(weights))
	ends := make([][]float64, len(weights))
	for _, a := range log {
		starts[a.page] = append(starts[a.page], a.start)
		ends[a.page] = append(ends[a.page], a.end)
	}
	cum := make([]float64, len(weights))
	var total float64
	for i, w := range weights {
		total += w
		cum[i] = total
	}
	waits = make([]float64, 0, n)
	for i := 0; i < n; i++ {
		page := min(sort.SearchFloat64s(cum, rng.Float64()*total), len(cum)-1)
		arrive := rng.Float64() * window
		k := sort.SearchFloat64s(starts[page], arrive)
		if k == len(starts[page]) {
			unserved++
			continue
		}
		waits = append(waits, ends[page][k]-arrive)
	}
	return waits, unserved
}

// setArtifactStats reports what the artifact chain did between two
// snapshots of its accounting.
func setArtifactStats(rep *report, before, after artifact.Stats) {
	hits := after.Audio.Hits - before.Audio.Hits
	misses := after.Audio.Misses - before.Audio.Misses
	coalesced := after.Audio.Coalesced - before.Audio.Coalesced
	rep.set("artifact.audio_computes", float64(misses))
	if asked := hits + misses + coalesced; asked > 0 {
		rep.set("artifact.audio_hit_share", float64(hits)/float64(asked))
	}
	rep.set("artifact.coalesced", float64(coalesced+
		after.Stream.Coalesced-before.Stream.Coalesced+
		after.Blob.Coalesced-before.Blob.Coalesced))
	rep.set("artifact.evictions", float64(after.Evictions-before.Evictions))
	rep.set("artifact.cache_mb", float64(after.Bytes)/1e6)
	delta := after
	delta.Blob = stageDelta(after.Blob, before.Blob)
	delta.Stream = stageDelta(after.Stream, before.Stream)
	delta.Audio = stageDelta(after.Audio, before.Audio)
	rep.set("artifact.dedup_factor", delta.Dedup())
}

func stageDelta(a, b artifact.StageStats) artifact.StageStats {
	return artifact.StageStats{Hits: a.Hits - b.Hits, Misses: a.Misses - b.Misses, Coalesced: a.Coalesced - b.Coalesced}
}
