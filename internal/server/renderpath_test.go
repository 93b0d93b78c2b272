package server

import (
	"bytes"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"sonic/internal/artifact"
	"sonic/internal/core"
	"sonic/internal/corpus"
	"sonic/internal/imagecodec"
	"sonic/internal/telemetry"
)

func testPipeline() (*core.Pipeline, error) {
	return core.NewPipeline(core.DefaultConfig())
}

// TestRenderThunderingHerd fires 32 goroutines at one cold URL and
// asserts the miss was coalesced into exactly one render: one
// server_render_cache_misses_total, every other caller counted as a hit
// (direct or coalesced), and every caller handed the same bundle. Run
// under -race this also proves the chain's one table of in-flight and
// cached entries is data-race free.
func TestRenderThunderingHerd(t *testing.T) {
	s := testServer(t)
	reg := telemetry.New()
	s.Instrument(reg)
	now := time.Unix(0, 0)
	url := corpus.Pages()[0].URL

	const n = 32
	var (
		start   sync.WaitGroup
		done    sync.WaitGroup
		bundles [n][]byte
	)
	start.Add(1)
	for i := 0; i < n; i++ {
		done.Add(1)
		go func(i int) {
			defer done.Done()
			start.Wait() // line everyone up on the cold cache
			b, err := s.RenderPage(url, now)
			if err != nil {
				t.Error(err)
				return
			}
			bundles[i] = b.Image
		}(i)
	}
	start.Done()
	done.Wait()

	snap := reg.Snapshot()
	if got := snap.Counters["server_render_cache_misses_total"]; got != 1 {
		t.Errorf("misses = %d, want exactly 1 (herd not coalesced)", got)
	}
	if got := snap.Counters["server_render_cache_hits_total"]; got != n-1 {
		t.Errorf("hits = %d, want %d", got, n-1)
	}
	if st := s.ArtifactStats().Render; st.Misses != 1 || st.Hits+st.Coalesced != n-1 {
		t.Errorf("chain render stage = %+v, want 1 miss and %d hits+coalesced", st, n-1)
	}
	for i := 1; i < n; i++ {
		if !bytes.Equal(bundles[i], bundles[0]) {
			t.Fatalf("caller %d got a different bundle than caller 0", i)
		}
	}
	if got := len(s.renderSem); got != 0 {
		t.Errorf("%d render slots still held after drain, want 0", got)
	}
	if got := snap.Gauges["artifact_cache_entries"]; got != 1 {
		t.Errorf("cache entries gauge = %v, want 1", got)
	}
}

// TestConcurrentColdServe is the ISSUE acceptance scenario: 32
// goroutines race over a set of cold corpus URLs; each URL must be
// rendered exactly once.
func TestConcurrentColdServe(t *testing.T) {
	s := testServer(t)
	reg := telemetry.New()
	s.Instrument(reg)
	now := time.Unix(0, 0)

	urls := make([]string, 6)
	for i := range urls {
		urls[i] = corpus.Pages()[i].URL
	}

	const workers = 32
	var start, done sync.WaitGroup
	start.Add(1)
	for w := 0; w < workers; w++ {
		done.Add(1)
		go func(w int) {
			defer done.Done()
			start.Wait()
			for i := range urls {
				if _, err := s.RenderPage(urls[(w+i)%len(urls)], now); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	start.Done()
	done.Wait()

	snap := reg.Snapshot()
	if got := snap.Counters["server_render_cache_misses_total"]; got != int64(len(urls)) {
		t.Errorf("misses = %d, want %d (one render per cold URL)", got, len(urls))
	}
	wantHits := int64(workers*len(urls) - len(urls))
	if got := snap.Counters["server_render_cache_hits_total"]; got != wantHits {
		t.Errorf("hits = %d, want %d", got, wantHits)
	}
	if got := s.ArtifactStats().Entries; got != len(urls) {
		t.Errorf("cache holds %d entries, want %d", got, len(urls))
	}
}

// TestRenderCacheEffectiveHourInvalidation proves the render cache
// honors the §3.1 hourly content epochs: once a page's effective hour
// advances, the cached render is stale and the server re-renders.
func TestRenderCacheEffectiveHourInvalidation(t *testing.T) {
	s := testServer(t)
	reg := telemetry.New()
	s.Instrument(reg)
	ref := corpus.Pages()[0]

	// Find the first hour at which the page's content actually changes.
	changed := 0
	for h := 1; h < 24*14; h++ {
		if corpus.EffectiveHour(ref, h) != 0 {
			changed = h
			break
		}
	}
	if changed == 0 {
		t.Skip("page never changes in two weeks of simulated time")
	}

	epoch := time.Unix(0, 0)
	if _, err := s.RenderPage(ref.URL, epoch); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RenderPage(ref.URL, epoch.Add(30*time.Minute)); err != nil {
		t.Fatal(err) // same epoch: hit
	}
	if _, err := s.RenderPage(ref.URL, epoch.Add(time.Duration(changed)*time.Hour)); err != nil {
		t.Fatal(err) // content changed: stale entry dropped, re-render
	}
	snap := reg.Snapshot()
	if got := snap.Counters["server_render_cache_misses_total"]; got != 2 {
		t.Errorf("misses = %d, want 2 (cold + invalidated)", got)
	}
	if got := snap.Counters["server_render_cache_hits_total"]; got != 1 {
		t.Errorf("hits = %d, want 1", got)
	}
	if got := s.ArtifactStats().Entries; got != 1 {
		t.Errorf("cache len = %d, want 1 (stale entry replaced, not kept)", got)
	}
}

// churniestPages returns the n corpus pages with the most content epochs
// in the first hours hours — the pages that re-render most.
func churniestPages(hours, n int) []corpus.PageRef {
	epochs := func(ref corpus.PageRef) int {
		e := 1
		for h := 1; h < hours; h++ {
			if corpus.EffectiveHour(ref, h) == h {
				e++
			}
		}
		return e
	}
	refs := append([]corpus.PageRef(nil), corpus.Pages()...)
	sort.SliceStable(refs, func(i, j int) bool { return epochs(refs[i]) > epochs(refs[j]) })
	return refs[:n]
}

// renderChurnHours calls RenderPage on every ref once per simulated hour
// and returns the airtime of the bundles it was handed; afterHour, when
// non-nil, sees the live bundle bytes of each hour.
func renderChurnHours(t *testing.T, s *Server, refs []corpus.PageRef, hours int, afterHour func(h int, live int64)) (airS float64) {
	t.Helper()
	for h := 0; h < hours; h++ {
		now := s.cfg.Epoch.Add(time.Duration(h) * time.Hour)
		live := int64(0)
		for _, ref := range refs {
			b, err := s.RenderPage(ref.URL, now)
			if err != nil {
				t.Fatal(err)
			}
			wire := len(core.MarshalBundle(b)) // what the render entry weighs
			live += int64(wire)
			airS += s.pipeline.AirtimeSeconds(wire)
		}
		if afterHour != nil {
			afterHour(h, live)
		}
	}
	return airS
}

// TestRenderEpochForgets walks a simulated day of RenderPage over the
// corpus's highest-churn pages and proves the one-epoch rule: the render
// that moves a page to a new effective hour retires the old hour's
// artifacts, so the chain never holds more than one epoch per URL and
// its bytes track the live bundles instead of growing with the churn.
// The cache is unbounded here, so only the forget can keep it flat.
// Under the race detector the walk covers 6 hours (12 renders, 60 in
// the full day), still twice the churn the renders check asks for.
func TestRenderEpochForgets(t *testing.T) {
	p, err := testPipeline()
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	s := New(cfg, p)
	s.chain = artifact.NewChain(p, -1)

	const nPages = 3
	hours := 24
	if raceEnabled {
		hours = 6
	}
	refs := churniestPages(hours, nPages)
	renderChurnHours(t, s, refs, hours, func(h int, live int64) {
		st := s.ArtifactStats()
		if st.Entries != nPages {
			t.Fatalf("hour %d: chain holds %d entries for %d URLs (a dead epoch survived)", h, st.Entries, nPages)
		}
		if st.Bytes != live {
			t.Fatalf("hour %d: chain holds %d bytes, the live bundles are %d", h, st.Bytes, live)
		}
	})
	if renders := s.ArtifactStats().Render.Misses; renders < 2*nPages {
		t.Fatalf("only %d renders in %d hours: the pages did not churn", renders, hours)
	}
	// The forget reaches every stage: audio derived from an epoch goes
	// with it.
	ref := refs[0]
	last := cfg.Epoch.Add(time.Duration(hours-1) * time.Hour)
	if _, err := s.PageAudio(ref.URL, last); err != nil {
		t.Fatal(err)
	}
	next := hours
	for corpus.EffectiveHour(ref, next) != next {
		next++
	}
	if _, err := s.RenderPage(ref.URL, cfg.Epoch.Add(time.Duration(next)*time.Hour)); err != nil {
		t.Fatal(err)
	}
	if got := s.ArtifactStats().Entries; got != nPages {
		t.Fatalf("after the epoch moved on, chain holds %d entries, want %d (derived stages kept)", got, nPages)
	}
}

// TestChurnReplayBeatsRealTime is the keep-the-transmitter-fed check:
// every RenderPage is one transmission whose bundle takes AirtimeSeconds
// to air, and on one core the renders behind a replay of the highest-churn
// pages must cost less wall clock than the replay's airtime, or a server
// could not feed a tower in real time. These are the pages that re-render
// most, so any carousel over the corpus has a wider margin.
func TestChurnReplayBeatsRealTime(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	p, err := testPipeline()
	if err != nil {
		t.Fatal(err)
	}
	s := New(DefaultConfig(), p)

	const hours, nPages = 8, 3
	refs := churniestPages(hours, nPages)
	t0 := time.Now()
	airS := renderChurnHours(t, s, refs, hours, nil)
	wallS := time.Since(t0).Seconds()
	renders := s.ArtifactStats().Render.Misses
	t.Logf("%d renders, %.2f s wall for %.0f s of airtime (%.0fx real time)", renders, wallS, airS, airS/wallS)
	if wallS >= airS {
		t.Fatalf("%d renders behind %d transmissions took %.1f s of wall clock for %.0f s of airtime: slower than real time on one core (measured margin on the 2-vCPU reference box: ~4000x, ~190x under -race)",
			renders, hours*nPages, wallS, airS)
	}
}

// --- refForURL index --------------------------------------------------------

// refForURLLinear is a verbatim copy of the pre-index lookup the server
// used to run on every RenderPage call: a linear scan over the whole
// corpus. Kept as the benchmark baseline for the O(1) map index.
func refForURLLinear(url string) corpus.PageRef {
	for _, ref := range corpus.Pages() {
		if ref.URL == url {
			return ref
		}
	}
	return corpus.PageRef{URL: url, Site: url, Rank: corpus.NumSites, Internal: true}
}

// TestRefForMatchesLinearScan pins the indexed lookup to the old linear
// scan for every corpus URL plus an unknown one.
func TestRefForMatchesLinearScan(t *testing.T) {
	s := testServer(t)
	for _, ref := range corpus.Pages() {
		if got := s.refFor(ref.URL); got != refForURLLinear(ref.URL) {
			t.Fatalf("refFor(%q) = %+v, want %+v", ref.URL, got, refForURLLinear(ref.URL))
		}
	}
	adhoc := "http://example.invalid/x"
	if got := s.refFor(adhoc); got != refForURLLinear(adhoc) {
		t.Fatalf("ad-hoc refFor = %+v, want %+v", got, refForURLLinear(adhoc))
	}
}

// BenchmarkRefForURL shows why the index matters: the old path was
// O(corpus) per request (worst case: the last-ranked URL), the new one a
// single map probe.
func BenchmarkRefForURL(b *testing.B) {
	pages := corpus.Pages()
	last := pages[len(pages)-1].URL
	b.Run("linear", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			refForURLLinear(last)
		}
	})
	p, err := testPipeline()
	if err != nil {
		b.Fatal(err)
	}
	s := New(DefaultConfig(), p)
	b.Run("map", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s.refFor(last)
		}
	})
}

// TestRenderSpansOnEncodeFailure renders with a quality EncodeSIC
// rejects and requires every stage span the render entered to be
// closed: encode_sic fails, so it must still be recorded once, and
// clickmap is never entered. A span left open on the error return is
// dropped from the snapshot silently.
func TestRenderSpansOnEncodeFailure(t *testing.T) {
	p, err := testPipeline()
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Quality = imagecodec.MaxQuality + 1
	s := New(cfg, p)
	reg := telemetry.New()
	s.Instrument(reg)
	if _, err := s.RenderPage(corpus.Pages()[0].URL, time.Unix(0, 0)); err == nil {
		t.Fatalf("RenderPage at quality %d succeeded, want the encode error", cfg.Quality)
	}

	spans := reg.Snapshot().Spans
	for name, want := range map[string]int64{
		"server.render_page":            1,
		"server.render_page/generate":   1,
		"server.render_page/raster":     1,
		"server.render_page/encode_sic": 1,
		"server.render_page/clickmap":   0,
	} {
		if got := spans[name].Count; got != want {
			t.Errorf("span %s recorded %d, want %d", name, got, want)
		}
	}
}
