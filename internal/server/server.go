// Package server implements the SONIC server (§3.1): it accepts webpage
// requests over the SMS uplink, renders and encodes simplified webpages
// (caching them), picks the FM transmitter that covers the requesting
// user's location, schedules broadcasts, and preemptively pushes the most
// popular pages of the region. Transmitters are remote machines: the
// server feeds them page bundles over a TCP control link (see
// transport.go), mirroring the paper's "central SONIC server ... informs
// the respective transmitters".
//
// The request path is built for fleet scale: transmitter routing goes
// through an immutable spatial index (internal/routing) swapped
// copy-on-write, per-transmitter queues are striped across lock shards
// (shard.go), and every ingress — SMS, API, preemptive push — reaches
// a queue through the one admission sink (admit.go), batched first when
// admission is enabled. The artifact chain (internal/artifact) is the
// only page cache: render, blob, FEC stream and audio.
package server

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sonic/internal/admission"
	"sonic/internal/artifact"
	"sonic/internal/core"
	"sonic/internal/corpus"
	"sonic/internal/imagecodec"
	"sonic/internal/parallel"
	"sonic/internal/routing"
	"sonic/internal/sms"
	"sonic/internal/telemetry"
	"sonic/internal/webrender"
)

// Transmitter describes one FM station the server can feed.
type Transmitter struct {
	ID      string
	FreqMHz float64
	// ExtraFreqsMHz lists additional frequencies the station broadcasts
	// on simultaneously — the paper's multi-frequency mode ("Multiple
	// frequencies can be used to increase the rate", §1/§4: 20 and
	// 40 kbps). Each frequency drains the same queue in parallel, so
	// aggregate throughput scales with FrequencyCount.
	ExtraFreqsMHz []float64
	Lat, Lon      float64
	RadiusKm      float64
}

// FrequencyCount returns how many parallel broadcast channels the
// station runs (at least 1).
func (t Transmitter) FrequencyCount() int {
	return 1 + len(t.ExtraFreqsMHz)
}

// queuedPage is one pending broadcast. Count and Traces carry every
// coalesced request riding on the single broadcast: N users asking for
// the page get N lifecycle traces stamped off one queue entry.
type queuedPage struct {
	URL      string
	PageID   uint16
	Bundle   core.Bundle
	Bytes    int
	EffHour  int
	Enqueued time.Time
	Count    int
	Traces   []*telemetry.Trace
}

// Config tunes the server.
type Config struct {
	Number  string // the SONIC SMS number users text
	Quality int    // SIC quality for rendered pages (paper: 10)
	// PageTTL is the expiry the server stamps on broadcast pages (§3.1).
	PageTTL time.Duration
	// Epoch anchors simulation time to corpus hour 0.
	Epoch time.Time
	// Admission configures the batched admission stage (see
	// internal/admission). With Admission.Enabled a request waits for
	// its batch to flush; the default (off) flushes each request at once
	// on the caller's goroutine, through the same sink.
	Admission admission.Config
}

// DefaultConfig returns the paper's settings.
func DefaultConfig() Config {
	return Config{
		Number:  "+92300SONIC",
		Quality: 10,
		PageTTL: 24 * time.Hour,
		Epoch:   time.Unix(0, 0),
	}
}

// topology is the immutable fleet snapshot: the routing index plus the
// transmitter records it resolves into. Readers Load it lock-free;
// AddTransmitter builds a fresh snapshot and swaps the pointer.
type topology struct {
	idx  *routing.Index
	byID map[string]Transmitter
	list []Transmitter
}

// Server is the central SONIC server.
type Server struct {
	cfg      Config
	pipeline *core.Pipeline

	// refs indexes the corpus by URL once at construction so RenderPage
	// resolves a PageRef in O(1) instead of scanning corpus.Pages().
	refs map[string]corpus.PageRef

	// chain is the fleet-wide content-addressed artifact cache and the
	// only page cache: the rendered bundle, its marshaled blob, the FEC
	// stream and the modulated audio, each computed once fleet-wide
	// (concurrent misses wait on the one computation in flight). It lives
	// outside every queue lock: a render miss must not block SMS intake
	// or queue ops.
	chain     *artifact.Chain
	renderSem chan struct{} // bounds concurrent miss renders

	// topo is the copy-on-write fleet snapshot; topoMu serializes
	// writers only. transmitterFor never takes a lock.
	topo   atomic.Pointer[topology]
	topoMu sync.Mutex

	// shards stripe the per-transmitter queue state (see shard.go).
	shards []*shard

	// idMu guards what the server remembers per URL: its stable page ID
	// and the content epoch of its latest render (see RenderPage).
	idMu       sync.Mutex
	nextPageID uint16
	pageIDs    map[string]uint16
	epochs     map[string]int

	// admit is the batching admission stage, nil unless
	// Config.Admission.Enabled.
	admit *admission.Queue

	// bundleBytes/bundleCount feed the running-mean marshaled page size
	// the async admission ack uses to estimate airtime without rendering.
	bundleBytes atomic.Int64
	bundleCount atomic.Int64

	// Telemetry (nil handles = off; see internal/telemetry).
	tel          *telemetry.Registry
	lc           *telemetry.Lifecycle
	mRequests    *telemetry.Counter // server_sms_requests_total
	mBadRequests *telemetry.Counter // server_sms_bad_requests_total
	mNoCoverage  *telemetry.Counter // server_no_coverage_total
	mCacheHits   *telemetry.Counter // server_render_cache_hits_total
	mCacheMisses *telemetry.Counter // server_render_cache_misses_total
	mEnqueued    *telemetry.Counter // server_pages_enqueued_total
}

// Instrument registers the server's metric families on reg and starts
// recording: SMS intake counters, render-cache hit/miss
// counters, a server.render_page span (the render-latency histogram),
// a server.handle_sms span (the SMS round-trip histogram), and per-
// transmitter queue depth and age gauges (server_queue_depth_pages,
// server_queue_depth_bytes, server_queue_age_seconds, all {tx=...}).
// With admission enabled the admission stage's families register too.
// If a request lifecycle tracker is installed on reg (see
// telemetry.NewLifecycle), the server also stamps every SMS request
// through received → admitted → render → enqueued → on-air. Call it
// once at setup, before the server starts handling traffic.
func (s *Server) Instrument(reg *telemetry.Registry) {
	s.tel = reg
	s.lc = reg.Lifecycle()
	s.mRequests = reg.Counter("server_sms_requests_total")
	s.mBadRequests = reg.Counter("server_sms_bad_requests_total")
	s.mNoCoverage = reg.Counter("server_no_coverage_total")
	s.mCacheHits = reg.Counter("server_render_cache_hits_total")
	s.mCacheMisses = reg.Counter("server_render_cache_misses_total")
	s.mEnqueued = reg.Counter("server_pages_enqueued_total")
	s.admit.Instrument(reg)
	s.chain.Instrument(reg)
}

// recordQueueDepth refreshes a transmitter's queue depth and age
// gauges; callers hold sh.mu. Queue age is how long the head page has
// waited at now, the caller's time (wall time on the TCP link, the
// simulated clock in tests and sims). The byte and page counts are O(1)
// reads off the towerQueue accounting.
func (s *Server) recordQueueDepth(sh *shard, txID string, now time.Time) {
	if s.tel == nil {
		return
	}
	pages, bytes := 0, 0
	age := 0.0
	if tq := sh.queues[txID]; tq != nil {
		pages = len(tq.pages)
		bytes = tq.bytes
		if len(tq.pages) > 0 {
			if d := now.Sub(tq.pages[0].Enqueued); d > 0 {
				age = d.Seconds()
			}
		}
	}
	s.tel.Gauge("server_queue_depth_pages", "tx", txID).Set(float64(pages))
	s.tel.Gauge("server_queue_depth_bytes", "tx", txID).Set(float64(bytes))
	s.tel.Gauge("server_queue_age_seconds", "tx", txID).Set(age)
}

// New builds a server with the given transmission pipeline.
func New(cfg Config, pipeline *core.Pipeline) *Server {
	refs := make(map[string]corpus.PageRef)
	for _, ref := range corpus.Pages() {
		refs[ref.URL] = ref
	}
	s := &Server{
		cfg:       cfg,
		pipeline:  pipeline,
		refs:      refs,
		chain:     artifact.NewChain(pipeline, artifact.DefaultMaxBytes),
		renderSem: make(chan struct{}, runtime.GOMAXPROCS(0)),
		shards:    make([]*shard, DefaultShards),
		pageIDs:   make(map[string]uint16),
		epochs:    make(map[string]int),
	}
	for i := range s.shards {
		s.shards[i] = &shard{
			queues: make(map[string]*towerQueue),
			demand: make(map[string]map[string]float64),
		}
	}
	s.topo.Store(&topology{idx: routing.Build(nil), byID: map[string]Transmitter{}})
	if cfg.Admission.Enabled {
		// A flushed batch has nobody to return to: its requesters were
		// acked with an estimate, and a failure aborts their traces.
		s.admit = admission.New(cfg.Admission, func(b admission.Batch) { _, _ = s.admitBatch(b) })
	}
	return s
}

// AddTransmitter registers a station: the fleet snapshot (including its
// spatial index) is rebuilt and swapped copy-on-write, so in-flight
// lookups keep reading a consistent topology.
func (s *Server) AddTransmitter(t Transmitter) {
	s.topoMu.Lock()
	defer s.topoMu.Unlock()
	old := s.topo.Load()
	list := append(append([]Transmitter(nil), old.list...), t)
	byID := make(map[string]Transmitter, len(list))
	towers := make([]routing.Tower, 0, len(list))
	for _, tx := range list {
		byID[tx.ID] = tx
		towers = append(towers, routing.Tower{ID: tx.ID, Lat: tx.Lat, Lon: tx.Lon, RadiusKm: tx.RadiusKm})
	}
	s.topo.Store(&topology{idx: routing.Build(towers), byID: byID, list: list})
}

// Transmitters returns the registered stations.
func (s *Server) Transmitters() []Transmitter {
	return append([]Transmitter(nil), s.topo.Load().list...)
}

// transmitterFor picks the station covering the location via the
// spatial index: the closest covering tower, exact ties broken on the
// smaller ID — deterministic regardless of registration order. The
// lookup is lock-free and O(1) in fleet size.
func (s *Server) transmitterFor(lat, lon float64) (Transmitter, bool) {
	topo := s.topo.Load()
	t, _, ok := topo.idx.Lookup(lat, lon)
	if !ok {
		return Transmitter{}, false
	}
	return topo.byID[t.ID], true
}

// frequencyCount returns a registered station's parallel channel count
// (1 for unknown stations).
func (s *Server) frequencyCount(txID string) int {
	if tx, ok := s.topo.Load().byID[txID]; ok {
		return tx.FrequencyCount()
	}
	return 1
}

// hourAt converts simulation time to a corpus hour.
func (s *Server) hourAt(now time.Time) int {
	return int(now.Sub(s.cfg.Epoch) / time.Hour)
}

// pageIDFor assigns a stable 16-bit id per URL.
func (s *Server) pageIDFor(url string) uint16 {
	s.idMu.Lock()
	defer s.idMu.Unlock()
	if id, ok := s.pageIDs[url]; ok {
		return id
	}
	s.nextPageID++
	s.pageIDs[url] = s.nextPageID
	return s.nextPageID
}

// RenderPage produces (or returns cached) the encoded bundle for a URL at
// the current simulation time. It mirrors §3.1: "either from its cache,
// e.g., if recently requested by another user, or by directly accessing
// it".
//
// The cache is the artifact chain's render stage, keyed by the page's
// effective hour, so a stale render never satisfies a request from a
// later content epoch; N concurrent requests for one cold URL render
// exactly once (a piggybacking caller counts as a hit), and the render
// itself runs on a bounded worker pool without holding any queue lock.
func (s *Server) RenderPage(url string, now time.Time) (core.Bundle, error) {
	hour := s.hourAt(now)
	ref := s.refFor(url)
	return s.renderAt(url, ref, hour, corpus.EffectiveHour(ref, hour))
}

// renderAt is RenderPage for a caller that has already resolved the
// page's effective hour (the request path computes it once, at routing).
func (s *Server) renderAt(url string, ref corpus.PageRef, hour, eff int) (core.Bundle, error) {
	id := s.pageIDFor(url)
	rendered := false
	b, err := s.chain.Render(s.chain.Key(url, eff, id), func() (core.Bundle, error) {
		rendered = true
		s.mCacheMisses.Inc()
		return s.renderMiss(url, ref, hour)
	})
	if err != nil {
		return core.Bundle{}, err
	}
	if !rendered {
		s.mCacheHits.Inc()
		return b, nil
	}
	// One content epoch per URL (§3.1's hourly re-render as invalidation):
	// the render that moves a page to a new effective hour retires the
	// old hour's artifacts, so churn cannot fill the byte cap with epochs
	// nobody will request again.
	s.idMu.Lock()
	prev, had := s.epochs[url]
	s.epochs[url] = eff
	s.idMu.Unlock()
	if had && prev != eff {
		s.chain.Forget(s.chain.Key(url, prev, id))
	}
	return b, nil
}

// renderMiss does the expensive miss work: generate → raster → SIC
// encode → clickmap, each as a child span of server.render_page, and
// marshals the page once (core.NewBundle) so every later reader of its
// wire form shares that one blob. It runs on the bounded render pool
// with no queue lock held.
func (s *Server) renderMiss(url string, ref corpus.PageRef, hour int) (core.Bundle, error) {
	s.renderSem <- struct{}{}
	defer func() { <-s.renderSem }()

	sp := s.tel.StartSpan("server.render_page")
	defer sp.End()

	genSp := sp.StartChild("generate")
	page := corpus.Generate(ref, hour)
	genSp.End()

	rasterSp := sp.StartChild("raster")
	rendered := webrender.RenderCropped(page, imagecodec.MaxPageHeight)
	rasterSp.End()
	defer rendered.Release()

	encSp := sp.StartChild("encode_sic")
	enc, err := imagecodec.EncodeSIC(rendered.Image, s.cfg.Quality)
	encSp.End()
	if err != nil {
		return core.Bundle{}, fmt.Errorf("server: encode %s: %w", url, err)
	}

	cmSp := sp.StartChild("clickmap")
	cm, err := rendered.Clicks.MarshalJSON()
	cmSp.End()
	if err != nil {
		return core.Bundle{}, err
	}
	return core.NewBundle(enc, cm), nil
}

// refFor maps any URL onto a corpus PageRef via the construction-time
// index (known corpus pages keep their rank; unknown URLs become ad-hoc
// unranked pages).
func (s *Server) refFor(url string) corpus.PageRef {
	if ref, ok := s.refs[url]; ok {
		return ref
	}
	return corpus.PageRef{URL: url, Site: url, Rank: corpus.NumSites, Internal: true}
}

// FlushRenderCache drops every cached render and everything derived
// from it. Benchmarks use it to measure the cold path; operators could
// use it to force a re-render.
func (s *Server) FlushRenderCache() { s.chain.Flush() }

// Errors from request handling.
var (
	ErrNoCoverage = errors.New("server: no transmitter covers the location")
)

// DequeuePageAt pops the next page to broadcast on a transmitter. With
// lifecycle tracing on, dequeue is the handoff to the transmitter, so
// every trace coalesced onto the page is stamped on_air_start at the
// given timestamp and on_air_done at the projected end of its airtime
// (the same channel model the SMS-ack ETA uses), on the caller's
// timeline.
func (s *Server) DequeuePageAt(transmitterID string, at time.Time) (url string, pageID uint16, b core.Bundle, ok bool) {
	head := s.dequeueHead(transmitterID, at)
	if head == nil {
		return "", 0, core.Bundle{}, false
	}
	return head.URL, head.PageID, head.Bundle, true
}

// dequeueHead pops a transmitter's head page and stamps any lifecycle
// traces riding on it — the shared core of DequeuePageAt and the fleet
// audio drain (DequeueAudioAt), which also needs the page's effective
// hour for artifact addressing.
func (s *Server) dequeueHead(transmitterID string, at time.Time) *queuedPage {
	sh := s.shardFor(transmitterID)
	sh.mu.Lock()
	var head *queuedPage
	if tq := sh.queues[transmitterID]; tq != nil {
		head, _ = tq.pop()
	}
	if head == nil {
		sh.mu.Unlock()
		return nil
	}
	s.recordQueueDepth(sh, transmitterID, at)
	sh.mu.Unlock()
	if len(head.Traces) > 0 {
		if at.Before(head.Enqueued) {
			at = head.Enqueued
		}
		airSec := s.pipeline.AirtimeSeconds(head.Bytes) / float64(s.frequencyCount(transmitterID))
		done := at.Add(time.Duration(airSec * float64(time.Second)))
		for _, tr := range head.Traces {
			tr.StampAt(telemetry.StageOnAirStart, at)
			tr.StampAt(telemetry.StageOnAirDone, done)
		}
	}
	return head
}

// QueueDepth returns (pages, bytes) pending for a transmitter in O(1).
func (s *Server) QueueDepth(transmitterID string) (int, int) {
	sh := s.shardFor(transmitterID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	tq := sh.queues[transmitterID]
	if tq == nil {
		return 0, 0
	}
	return len(tq.pages), tq.bytes
}

// PushPopular preemptively enqueues the top-n pages on every
// transmitter (§3.1: "popular news sites can be pushed early in the
// morning"). Ranking is demand-weighted per tower: measured admission
// counts (TowerDemand) dominate, static corpus popularity is the
// cold-start fallback and tiebreaker, so the push tracks what each
// region actually requests. A page already pending on a transmitter is
// not queued twice. Towers are split across GOMAXPROCS workers — each
// tower's enqueue order stays its ranked order, so per-tower queue
// contents are identical to a serial walk — and a page popular on 64
// towers renders once. Every tower is pushed; the error returned is the
// first in tower order.
func (s *Server) PushPopular(n int, now time.Time) error {
	towers := s.Transmitters()
	errs := make([]error, len(towers))
	parallel.For(runtime.GOMAXPROCS(0), len(towers), 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			errs[i] = s.pushPopularTower(towers[i], n, now)
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// pushPopularTower is one tower's share of PushPopular: rank, then hand
// each page to the admission sink as a batch nobody requested (Count 0),
// in ranked order.
func (s *Server) pushPopularTower(tx Transmitter, n int, now time.Time) error {
	ranked := rankByDemand(corpus.Pages(), s.TowerDemand(tx.ID))
	if n > len(ranked) {
		n = len(ranked)
	}
	hour := s.hourAt(now)
	for _, ref := range ranked[:n] {
		if _, err := s.admitBatch(admission.Batch{
			URL: ref.URL, Tower: tx.ID, EffHour: corpus.EffectiveHour(ref, hour), Now: now,
		}); err != nil {
			return err
		}
	}
	return nil
}

// HandleSMS is the uplink entry point: parse the request, admit the
// page, and reply with an ack (or error) through the SMSC. With
// lifecycle tracing on, the request's trace opens at the SMS delivery
// timestamp ("received") and is stamped "admitted" once it is accepted.
// With admission enabled the reply is immediate (the render happens
// when the batch flushes) and a saturated shard answers BUSY with a
// retry-after hint instead of blocking the handler.
func (s *Server) HandleSMS(smsc *sms.SMSC) sms.Handler {
	return func(m sms.Message) {
		sp := s.tel.StartSpan("server.handle_sms")
		defer sp.End()
		s.mRequests.Inc()
		req, err := sms.ParseRequest(m.Body)
		if err != nil {
			s.mBadRequests.Inc()
			_ = smsc.Submit(m.DeliverAt, s.cfg.Number, m.From, "ERR bad request")
			return
		}
		tr := s.lc.BeginAt(req.URL, m.From, m.DeliverAt)
		eta, err := s.admitTraced(req.URL, req.Lat, req.Lon, m.DeliverAt, tr)
		if err != nil {
			var sat *admission.SaturatedError
			if errors.As(err, &sat) {
				_ = smsc.Submit(m.DeliverAt, s.cfg.Number, m.From, sms.FormatBusy(req.URL, sat.RetryAfter))
			} else {
				_ = smsc.Submit(m.DeliverAt, s.cfg.Number, m.From, "ERR no coverage")
			}
			return
		}
		_ = smsc.Submit(m.DeliverAt, s.cfg.Number, m.From, sms.FormatAck(req.URL, eta))
	}
}

// PageTTL exposes the configured expiry for broadcast metadata.
func (s *Server) PageTTL() time.Duration { return s.cfg.PageTTL }
