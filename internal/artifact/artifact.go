// Package artifact is the fleet-wide content-addressed artifact cache:
// every form of a broadcast page — the rendered SIC bundle, its
// marshaled blob, the FEC-framed coded stream, and the modulated audio
// burst — is keyed by (URL, effective hour, pipeline-config digest) and
// computed at most once no matter how many transmitters carry the page.
// The paper's deployment is exactly this shape: one national corpus,
// many regional FM towers, byte-identical artifacts everywhere, so N
// towers airing the same page must not render, encode, FEC-frame, or
// modulate it N times.
//
// Three mechanisms:
//
//   - Content addressing. A Key carries the URL, the content epoch
//     (corpus effective hour), the page's stable 16-bit broadcast ID,
//     and core.Config.Digest() — the fingerprint of every knob that can
//     change emitted bytes. Two pipelines share artifacts exactly when
//     they would emit identical bytes.
//   - Per-stage singleflight. Each stage of each key coalesces
//     concurrent misses: 64 tower drains hitting a cold page run one
//     render, one FEC framing, one modulation, and 63 waiters per stage.
//   - Bounded memory, derived bytes first. Entries live in one
//     byte-accounted cache; past the cap it evicts from the most-derived
//     stage that has anything to give — audio, then stream, then blob,
//     then render — with a second-chance (clock) sweep inside the stage.
//     A later stage is rebuilt from the one before it, and a burst frees
//     two orders of magnitude more bytes per millisecond of rebuilding
//     than a render does, so audio churn never costs a re-render and the
//     cap holds regardless of corpus size.
//
// Values returned from the chain are shared across callers and MUST be
// treated as immutable.
//
// Stage 0 runs the caller's render function — raster production and its
// pooled buffers stay in the server/webrender layer — and caches the
// bundle it returns, so the chain is the only page cache: each later
// stage derives from the one before it.
package artifact

import (
	"container/list"
	"fmt"
	"sync"
	"sync/atomic"

	"sonic/internal/core"
	"sonic/internal/singleflight"
	"sonic/internal/telemetry"
)

// Key content-addresses one page artifact generation.
type Key struct {
	URL string
	// EffHour is the corpus effective hour — the content epoch the
	// render targets. A page that changed hour over hour gets a new key.
	EffHour int
	// PageID is the stable broadcast page ID frames carry; it is baked
	// into the FEC-framed stream, so it must be part of the address.
	PageID uint16
	// Digest is core.Config.Digest() of the producing pipeline.
	Digest uint64
}

// Stage identifies one link of the artifact chain.
type Stage int

// The chain stages, in production order.
const (
	StageRender Stage = iota // rendered bundle (SIC image + clickmap)
	StageBlob                // marshaled bundle
	StageStream              // FEC-framed coded byte stream
	StageAudio               // modulated audio burst
	numStages
)

// RenderFunc produces the bundle for a key's URL at its content epoch —
// the render stage's compute, run once per key fleet-wide.
type RenderFunc func() (core.Bundle, error)

// DefaultMaxBytes bounds the cache when NewChain is given 0. Modulated
// audio dominates the budget: a rendered corpus page marshals to
// ~100-200 KB, and at the paper's ~10 kbps profile its float64 baseband
// runs to tens of MB — so 256 MiB holds the audio of the few pages every
// tower is airing right now (the fleet's hot set, which is what dedup
// needs) plus the streams and blobs of a much larger tail. Fleet
// replays that want the whole rotation resident size the cap
// explicitly.
const DefaultMaxBytes = 256 << 20

// ckey is the cache's internal (key, stage) address.
type ckey struct {
	key   Key
	stage Stage
}

// entry is one cached artifact. val and bytes are immutable once the
// entry is published; used is the second-chance bit; el is the entry's
// slot in its stage's clock ring.
type entry struct {
	ck    ckey
	val   any
	bytes int64
	used  atomic.Bool
	el    *list.Element
}

// StageStats is one stage's counters in a Stats snapshot.
type StageStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`    // leader computations
	Coalesced int64 `json:"coalesced"` // waiters served by a leader in flight
}

// Stats is a point-in-time snapshot of the chain's accounting.
type Stats struct {
	Render    StageStats `json:"render"`
	Blob      StageStats `json:"blob"`
	Stream    StageStats `json:"stream"`
	Audio     StageStats `json:"audio"`
	Bytes     int64      `json:"bytes"`
	MaxBytes  int64      `json:"max_bytes"`
	Entries   int        `json:"entries"`
	Evictions int64      `json:"evictions"`
}

// Dedup returns how many stage computations the chain absorbed per one
// it ran: (hits + coalesced + misses) / misses across the three per-tower
// stages (blob, stream, audio; the render stage is asked for by requests,
// not towers). 1.0 means no sharing; a 64-tower fleet airing one corpus
// approaches the tower count.
func (s Stats) Dedup() float64 {
	var asked, ran int64
	for _, st := range []StageStats{s.Blob, s.Stream, s.Audio} {
		asked += st.Hits + st.Coalesced + st.Misses
		ran += st.Misses
	}
	if ran == 0 {
		return 1
	}
	return float64(asked) / float64(ran)
}

// Chain is the per-pipeline artifact cache. One Chain serves any number
// of concurrent tower drains; all methods are safe for concurrent use.
type Chain struct {
	pipe   *core.Pipeline
	digest uint64

	mu      sync.Mutex
	maxB    int64
	bytes   int64
	entries map[ckey]*entry
	ring    [numStages]list.List     // per-stage clock order, oldest-inserted first
	hand    [numStages]*list.Element // per-stage eviction sweep position

	flight singleflight.Group

	hits      [numStages]atomic.Int64
	misses    [numStages]atomic.Int64
	coalesced [numStages]atomic.Int64
	evictions atomic.Int64

	// Telemetry (nil handles = off; see internal/telemetry). The
	// counters above are Stats()'s alone.
	gBytes   *telemetry.Gauge // artifact_cache_bytes
	gEntries *telemetry.Gauge // artifact_cache_entries
}

// NewChain builds a chain over pipe bounded to maxBytes of cached
// artifacts (0 = DefaultMaxBytes, negative = unbounded).
func NewChain(pipe *core.Pipeline, maxBytes int64) *Chain {
	if maxBytes == 0 {
		maxBytes = DefaultMaxBytes
	}
	return &Chain{
		pipe:    pipe,
		digest:  pipe.ConfigDigest(),
		maxB:    maxBytes,
		entries: make(map[ckey]*entry),
	}
}

// Instrument registers the chain's byte and entry gauges on reg. Call
// once at setup.
func (ch *Chain) Instrument(reg *telemetry.Registry) {
	if ch == nil {
		return
	}
	ch.gBytes = reg.Gauge("artifact_cache_bytes")
	ch.gEntries = reg.Gauge("artifact_cache_entries")
}

// Key builds the content address for a page under this chain's pipeline.
func (ch *Chain) Key(url string, effHour int, pageID uint16) Key {
	return Key{URL: url, EffHour: effHour, PageID: pageID, Digest: ch.digest}
}

// Pipeline returns the transmission pipeline the chain encodes with —
// consumers use it for airtime math without threading a second handle.
func (ch *Chain) Pipeline() *core.Pipeline { return ch.pipe }

// Stats returns the chain's accounting snapshot.
func (ch *Chain) Stats() Stats {
	ch.mu.Lock()
	bytes, entries := ch.bytes, len(ch.entries)
	ch.mu.Unlock()
	stage := func(st Stage) StageStats {
		return StageStats{
			Hits:      ch.hits[st].Load(),
			Misses:    ch.misses[st].Load(),
			Coalesced: ch.coalesced[st].Load(),
		}
	}
	return Stats{
		Render:    stage(StageRender),
		Blob:      stage(StageBlob),
		Stream:    stage(StageStream),
		Audio:     stage(StageAudio),
		Bytes:     bytes,
		MaxBytes:  ch.maxB,
		Entries:   entries,
		Evictions: ch.evictions.Load(),
	}
}

// Render returns the rendered bundle for k — stage 0, which every later
// stage derives from — running render on a fleet-wide miss. The entry
// weighs the bundle's wire form, which a core.NewBundle bundle's parts
// are views of. The bundle's slices are shared; do not mutate.
func (ch *Chain) Render(k Key, render RenderFunc) (core.Bundle, error) {
	v, err := ch.stage(StageRender, k, func() (any, int64, error) {
		b, err := render()
		if err != nil {
			return nil, 0, err
		}
		return b, int64(8 + len(b.Image) + len(b.ClickMap)), nil
	})
	if err != nil {
		return core.Bundle{}, err
	}
	return v.(core.Bundle), nil
}

// Blob returns the marshaled bundle blob for k. For a bundle rendered by
// core.NewBundle it is a view of the render entry's wire form and weighs
// nothing more; any other bundle marshals to a copy, weighed here. The
// returned slice is shared; do not mutate.
func (ch *Chain) Blob(k Key, render RenderFunc) ([]byte, error) {
	v, err := ch.stage(StageBlob, k, func() (any, int64, error) {
		b, err := ch.Render(k, render)
		if err != nil {
			return nil, 0, err
		}
		blob := core.MarshalBundle(b)
		body := b.Image
		if len(body) == 0 {
			body = b.ClickMap
		}
		if len(body) > 0 && &body[0] == &blob[8] {
			return blob, 0, nil
		}
		return blob, int64(len(blob)), nil
	})
	if err != nil {
		return nil, err
	}
	return v.([]byte), nil
}

// Stream returns the FEC-framed coded stream for k — the bytes every
// carrier of the page broadcasts. The returned slice is shared; do not
// mutate.
func (ch *Chain) Stream(k Key, render RenderFunc) ([]byte, error) {
	v, err := ch.stage(StageStream, k, func() (any, int64, error) {
		blob, err := ch.Blob(k, render)
		if err != nil {
			return nil, 0, err
		}
		stream, err := ch.pipe.BlobStream(k.PageID, blob)
		if err != nil {
			return nil, 0, err
		}
		return stream, int64(len(stream)), nil
	})
	if err != nil {
		return nil, err
	}
	return v.([]byte), nil
}

// Audio returns the modulated broadcast burst for k — byte-identical to
// core.Pipeline.EncodePageAudio of the same bundle. The returned slice
// is shared; do not mutate.
func (ch *Chain) Audio(k Key, render RenderFunc) ([]float64, error) {
	v, err := ch.stage(StageAudio, k, func() (any, int64, error) {
		stream, err := ch.Stream(k, render)
		if err != nil {
			return nil, 0, err
		}
		audio := ch.pipe.ModulateStream(stream)
		return audio, int64(len(audio) * 8), nil
	})
	if err != nil {
		return nil, err
	}
	return v.([]float64), nil
}

// stage is the shared lookup→singleflight→compute→insert path. compute
// returns the value and its byte weight; it runs with no chain lock held
// (it may call back into earlier stages).
func (ch *Chain) stage(st Stage, k Key, compute func() (any, int64, error)) (any, error) {
	ck := ckey{key: k, stage: st}
	if v, ok := ch.get(ck); ok {
		ch.hits[st].Add(1)
		return v, nil
	}
	fkey := fmt.Sprintf("%d/%s@%d#%d:%x", st, k.URL, k.EffHour, k.PageID, k.Digest)
	v, err, leader := ch.flight.Do(fkey, func() (any, error) {
		// Re-check under the flight: an earlier leader may have published
		// between our miss and this call starting.
		if v, ok := ch.get(ck); ok {
			ch.hits[st].Add(1)
			return v, nil
		}
		val, bytes, err := compute()
		if err != nil {
			return nil, err
		}
		ch.put(ck, val, bytes)
		ch.misses[st].Add(1)
		return val, nil
	})
	if err != nil {
		return nil, err
	}
	if !leader {
		ch.coalesced[st].Add(1)
	}
	return v, nil
}

// get looks an artifact up and marks it recently used.
func (ch *Chain) get(ck ckey) (any, bool) {
	ch.mu.Lock()
	e, ok := ch.entries[ck]
	ch.mu.Unlock()
	if !ok {
		return nil, false
	}
	e.used.Store(true)
	return e.val, true
}

// put publishes an artifact and evicts second-chance style past the
// byte cap. An artifact larger than the whole cap is returned to the
// caller but not retained (it would evict everything for one entry).
func (ch *Chain) put(ck ckey, val any, bytes int64) {
	if ch.maxB > 0 && bytes > ch.maxB {
		return
	}
	ch.mu.Lock()
	if _, ok := ch.entries[ck]; ok {
		ch.mu.Unlock()
		return
	}
	e := &entry{ck: ck, val: val, bytes: bytes}
	e.used.Store(true)
	ch.entries[ck] = e
	e.el = ch.ring[ck.stage].PushBack(e)
	ch.bytes += bytes
	evicted := 0
	for ch.maxB > 0 && ch.bytes > ch.maxB && ch.evictOne(e) {
		evicted++
	}
	bytesNow, entriesNow := ch.bytes, len(ch.entries)
	ch.mu.Unlock()
	if evicted > 0 {
		ch.evictions.Add(int64(evicted))
	}
	ch.gBytes.Set(float64(bytesNow))
	ch.gEntries.Set(float64(entriesNow))
}

// evictOne drops one entry from the most-derived stage that has one to
// give: audio before stream before blob before render, because a later
// stage is rebuilt from the one before it and frees orders of magnitude
// more bytes per millisecond of rebuilding; a blob that is a view of its
// render entry frees nothing, but going first it never outlives the
// bytes it shares. Within the stage it is the
// second-chance sweep: the hand advances to the first cold entry,
// clearing used bits as it passes hot ones. keep is the entry just
// inserted — never the victim, so one oversized insert cannot evict
// itself. It reports false when only keep is left. Callers hold ch.mu.
func (ch *Chain) evictOne(keep *entry) bool {
	for st := numStages - 1; st >= 0; st-- {
		// At most two laps: the first clears used bits, the second must
		// find a cold entry if the stage holds anything but keep.
		for step := 2 * ch.ring[st].Len(); step > 0; step-- {
			if ch.hand[st] == nil {
				ch.hand[st] = ch.ring[st].Front()
			}
			e := ch.hand[st].Value.(*entry)
			ch.hand[st] = ch.hand[st].Next()
			if e == keep || e.used.Swap(false) {
				continue
			}
			ch.remove(e)
			return true
		}
	}
	return false
}

// remove unlinks one entry, stepping its stage's clock hand off it
// first. Callers hold ch.mu.
func (ch *Chain) remove(e *entry) {
	st := e.ck.stage
	if ch.hand[st] == e.el {
		ch.hand[st] = e.el.Next()
	}
	ch.ring[st].Remove(e.el)
	delete(ch.entries, e.ck)
	ch.bytes -= e.bytes
}

// Forget drops every cached stage of k — the owner's way to retire a
// content epoch nobody will ask for again, so dead epochs do not sit in
// the byte budget until the clock sweep finds them. A computation in
// flight for k still publishes when it finishes.
func (ch *Chain) Forget(k Key) {
	ch.mu.Lock()
	for st := Stage(0); st < numStages; st++ {
		if e, ok := ch.entries[ckey{key: k, stage: st}]; ok {
			ch.remove(e)
		}
	}
	bytesNow, entriesNow := ch.bytes, len(ch.entries)
	ch.mu.Unlock()
	ch.gBytes.Set(float64(bytesNow))
	ch.gEntries.Set(float64(entriesNow))
}

// Flush drops every cached artifact (benchmarks use it to re-measure
// the cold path).
func (ch *Chain) Flush() {
	ch.mu.Lock()
	ch.entries = make(map[ckey]*entry)
	for st := range ch.ring {
		ch.ring[st].Init()
		ch.hand[st] = nil
	}
	ch.bytes = 0
	ch.mu.Unlock()
	ch.gBytes.Set(0)
	ch.gEntries.Set(0)
}
