// Package admission is the bounded batching stage in front of the
// server's enqueue path. internal/singleflight coalesces concurrent
// render misses; admission extends that idea from the render to the
// whole request: every SMS asking for the same (URL, tower, effective
// hour) within a batch window collapses into ONE render + ONE queue
// append, with every coalesced request's lifecycle trace riding along.
// Under Zipf demand — the national-scale workload the SONIC follow-up
// paper targets — that turns 10⁵ requests/hour for a hot page into a
// handful of renders.
//
// Mechanics:
//
//   - Lock-striped shards (keyed by tower, so admission for shard A
//     never contends with shard B) each hold a coalescing map keyed by
//     (URL, tower, effective hour) plus a FIFO of first arrivals.
//   - Submit is O(1) and never blocks: a duplicate key increments the
//     entry; a new key appends; a shard at MaxPending rejects with a
//     *SaturatedError carrying a retry-after hint instead of queueing
//     unboundedly or stalling the SMSC handler.
//   - Flushes are triggered two ways: a shard reaching MaxBatch
//     distinct keys kicks its worker, and Flush() drains synchronously
//     for clock-driven simulations. Batches reach the sink in first-
//     arrival order.
//
// Telemetry (Instrument): admission_submitted_total,
// admission_coalesced_total, admission_rejected_total and
// admission_batches_total.
package admission

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"sonic/internal/telemetry"
)

// Config tunes a Queue. The zero value of every field gets a sensible
// default (see the constants below).
type Config struct {
	// Enabled switches the server's SMS intake onto the admission path.
	// The package itself ignores it; it lives here so server.Config can
	// embed one knob.
	Enabled bool
	// MaxBatch flushes a shard once it holds this many distinct
	// (URL, tower, hour) keys.
	MaxBatch int
	// MaxPending bounds the total requests (including coalesced
	// duplicates) a shard may hold; beyond it Submit rejects.
	MaxPending int
	// RetryAfter is the hint a rejected caller gets.
	RetryAfter time.Duration
}

// numShards is the number of lock stripes a Queue holds.
const numShards = 8

// Defaults for Config's zero fields.
const (
	DefaultMaxBatch   = 64
	DefaultMaxPending = 4096
	DefaultRetryAfter = 5 * time.Second
)

func (c Config) withDefaults() Config {
	if c.MaxBatch <= 0 {
		c.MaxBatch = DefaultMaxBatch
	}
	if c.MaxPending <= 0 {
		c.MaxPending = DefaultMaxPending
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = DefaultRetryAfter
	}
	return c
}

// Request is one admission candidate.
type Request struct {
	URL     string
	Tower   string // covering transmitter ID (already routed)
	EffHour int    // content epoch the render must target
	Now     time.Time
	Trace   *telemetry.Trace // nil when lifecycle tracing is off
}

// Batch is one coalesced unit of work handed to the sink: Count
// requests collapsed onto a single render + enqueue.
type Batch struct {
	URL     string
	Tower   string
	EffHour int
	// Now is the latest caller timestamp among the coalesced requests —
	// the batch's position on the (possibly simulated) request clock.
	Now    time.Time
	Count  int
	Traces []*telemetry.Trace
}

// Sink consumes flushed batches. It runs on a flush worker (or the
// Flush caller's goroutine) with no shard lock held, so it may render.
type Sink func(Batch)

// ErrSaturated matches (via errors.Is) every rejection from a full
// shard.
var ErrSaturated = errors.New("admission: shard saturated")

// SaturatedError is the concrete rejection: backpressure with a hint.
type SaturatedError struct {
	Shard      int
	RetryAfter time.Duration
}

func (e *SaturatedError) Error() string {
	return fmt.Sprintf("admission: shard %d saturated, retry after %s", e.Shard, e.RetryAfter)
}

// Is reports true for ErrSaturated so callers can errors.Is-match
// without the concrete type.
func (e *SaturatedError) Is(target error) bool { return target == ErrSaturated }

type key struct {
	url   string
	tower string
	eff   int
}

type entry struct {
	count  int
	now    time.Time
	traces []*telemetry.Trace
}

type qshard struct {
	mu      sync.Mutex
	pending map[key]*entry
	order   []key // first-arrival flush order
	count   int   // total requests incl. coalesced duplicates
	kick    chan struct{}
}

// Queue is the admission stage. Build with New; Close releases the
// flush workers.
type Queue struct {
	cfg       Config
	sink      Sink
	shards    []*qshard
	stop      chan struct{}
	wg        sync.WaitGroup
	closeOnce sync.Once

	// Telemetry (nil handles = off).
	mSubmitted *telemetry.Counter
	mCoalesced *telemetry.Counter
	mRejected  *telemetry.Counter
	mBatches   *telemetry.Counter
}

// New builds the queue and starts one flush worker per shard. The sink
// receives every flushed batch; it must be safe for concurrent calls
// (shards flush independently).
func New(cfg Config, sink Sink) *Queue {
	cfg = cfg.withDefaults()
	q := &Queue{
		cfg:    cfg,
		sink:   sink,
		shards: make([]*qshard, numShards),
		stop:   make(chan struct{}),
	}
	for i := range q.shards {
		q.shards[i] = &qshard{
			pending: make(map[key]*entry),
			kick:    make(chan struct{}, 1),
		}
	}
	for i := range q.shards {
		q.wg.Add(1)
		go q.worker(q.shards[i])
	}
	return q
}

// Instrument registers the admission metric families on reg. Call once
// at setup.
func (q *Queue) Instrument(reg *telemetry.Registry) {
	if q == nil {
		return
	}
	q.mSubmitted = reg.Counter("admission_submitted_total")
	q.mCoalesced = reg.Counter("admission_coalesced_total")
	q.mRejected = reg.Counter("admission_rejected_total")
	q.mBatches = reg.Counter("admission_batches_total")
}

// fnv32a is FNV-1a over a string without the hash.Hash32 interface and
// []byte conversion — Submit is the per-request hot path and must stay
// allocation-free on the coalescing branch (guarded by
// TestSubmitCoalescedAllocFree).
func fnv32a(s string) uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= prime32
	}
	return h
}

// shardFor stripes by tower: all keys of one transmitter land on one
// shard, so admission for different fleet regions never contends.
func (q *Queue) shardFor(tower string) int {
	return int(fnv32a(tower) % uint32(len(q.shards)))
}

// Submit admits one request: O(1), never blocks, never renders.
// Coalesced reports whether an identical request was already pending
// (the caller piggybacks on its batch). A full shard returns a
// *SaturatedError (errors.Is ErrSaturated) with a retry-after hint.
func (q *Queue) Submit(req Request) (coalesced bool, err error) {
	si := q.shardFor(req.Tower)
	sh := q.shards[si]
	k := key{url: req.URL, tower: req.Tower, eff: req.EffHour}

	sh.mu.Lock()
	if e, ok := sh.pending[k]; ok {
		e.count++
		if req.Now.After(e.now) {
			e.now = req.Now
		}
		if req.Trace != nil {
			e.traces = append(e.traces, req.Trace)
		}
		sh.count++
		sh.mu.Unlock()
		q.mSubmitted.Inc()
		q.mCoalesced.Inc()
		return true, nil
	}
	if sh.count >= q.cfg.MaxPending {
		sh.mu.Unlock()
		q.mRejected.Inc()
		return false, &SaturatedError{Shard: si, RetryAfter: q.cfg.RetryAfter}
	}
	e := &entry{count: 1, now: req.Now}
	if req.Trace != nil {
		e.traces = append(e.traces, req.Trace)
	}
	sh.pending[k] = e
	sh.order = append(sh.order, k)
	sh.count++
	full := len(sh.pending) >= q.cfg.MaxBatch
	sh.mu.Unlock()

	q.mSubmitted.Inc()
	if full {
		select {
		case sh.kick <- struct{}{}:
		default:
		}
	}
	return false, nil
}

// Pending returns the total requests currently held across shards
// (including coalesced duplicates).
func (q *Queue) Pending() int {
	n := 0
	for _, sh := range q.shards {
		sh.mu.Lock()
		n += sh.count
		sh.mu.Unlock()
	}
	return n
}

// worker is one shard's flush loop, woken by MaxBatch kicks.
func (q *Queue) worker(sh *qshard) {
	defer q.wg.Done()
	for {
		select {
		case <-q.stop:
			q.flushShard(sh)
			return
		case <-sh.kick:
			q.flushShard(sh)
		}
	}
}

// flushShard swaps out the shard's pending set and feeds the sink in
// first-arrival order, with no shard lock held during sink calls.
func (q *Queue) flushShard(sh *qshard) {
	sh.mu.Lock()
	if len(sh.order) == 0 {
		sh.mu.Unlock()
		return
	}
	pending, order := sh.pending, sh.order
	sh.pending = make(map[key]*entry)
	sh.order = nil
	sh.count = 0
	sh.mu.Unlock()

	for _, k := range order {
		e := pending[k]
		q.mBatches.Inc()
		q.sink(Batch{
			URL: k.url, Tower: k.tower, EffHour: k.eff,
			Now: e.now, Count: e.count, Traces: e.traces,
		})
	}
}

// Flush synchronously drains every shard on the caller's goroutine —
// the deterministic path for clock-driven simulations and tests.
func (q *Queue) Flush() {
	if q == nil {
		return
	}
	for _, sh := range q.shards {
		q.flushShard(sh)
	}
}

// FlushConcurrent drains every shard like Flush but spreads the shards
// over a bounded worker pool, so the sink (which may render) runs on
// up to workers cores. The sink's concurrency contract is the same as
// the background flush workers': one call per batch, shards flushing
// independently. workers <= 1 degrades to the serial Flush; batch
// order within a shard is first-arrival either way.
func (q *Queue) FlushConcurrent(workers int) {
	if q == nil {
		return
	}
	if workers > len(q.shards) {
		workers = len(q.shards)
	}
	if workers <= 1 {
		q.Flush()
		return
	}
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for _, sh := range q.shards {
		sem <- struct{}{}
		wg.Add(1)
		go func(sh *qshard) {
			defer func() { <-sem; wg.Done() }()
			q.flushShard(sh)
		}(sh)
	}
	wg.Wait()
}

// Close stops the flush workers, draining anything still pending.
// Idempotent: extra calls (a defer racing an explicit shutdown path)
// are no-ops rather than a double-close panic.
func (q *Queue) Close() {
	if q == nil {
		return
	}
	q.closeOnce.Do(func() {
		close(q.stop)
		q.wg.Wait()
		// A Submit racing Close can land after the workers' final flush;
		// sweep once more so nothing is stranded.
		q.Flush()
	})
}
