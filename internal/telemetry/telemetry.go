// Package telemetry is SONIC's stdlib-only observability layer: a
// concurrency-safe registry of labeled counters, gauges, and fixed-bucket
// histograms, plus lightweight span tracing (span.go) and the HTTP ops
// endpoint with its Prometheus (prom.go) and JSON (export.go) views.
//
// The design goal is that instrumentation can be compiled into every hot
// path and left there: all metric handles are nil-safe, so a component
// that was never Instrument()ed carries nil handles and every record call
// collapses to a single nil check (see BenchmarkTelemetryDisabled).
// Enabled paths use atomics only — no locks are taken while recording, so
// writers never contend with each other or with snapshot readers.
package telemetry

import (
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Registry holds every metric family of one process. The zero value is
// not usable; call New. A nil *Registry is a valid "telemetry off"
// handle: every method on it is a no-op returning nil/zero handles.
type Registry struct {
	now func() time.Time

	// lifecycle is the request lifecycle tracker installed by
	// NewLifecycle (lifecycle.go); the ops endpoint serves its event
	// ring under /trace/ and /events.json.
	lifecycle atomic.Pointer[Lifecycle]

	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	spans    map[string]*spanStat
}

// installLifecycle publishes lc as the registry's tracker (last wins).
func (r *Registry) installLifecycle(lc *Lifecycle) {
	if r == nil {
		return
	}
	r.lifecycle.Store(lc)
}

// Lifecycle returns the registry's request lifecycle tracker, or nil if
// NewLifecycle was never called (and on a nil registry) — nil is a valid
// "tracing off" handle.
func (r *Registry) Lifecycle() *Lifecycle {
	if r == nil {
		return nil
	}
	return r.lifecycle.Load()
}

// New builds an empty registry using the wall clock (which carries Go's
// monotonic reading, so span durations are immune to clock steps).
func New() *Registry {
	return &Registry{
		now:      time.Now,
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		spans:    make(map[string]*spanStat),
	}
}

// key renders "name" or "name{k=v,k=v}" from alternating label pairs.
func key(name string, labels []string) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i := 0; i+1 < len(labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(labels[i])
		b.WriteByte('=')
		b.WriteString(labels[i+1])
	}
	b.WriteByte('}')
	return b.String()
}

// Counter returns (registering on first use) the counter for name plus
// alternating label key/value pairs. Returns nil on a nil registry;
// callers keep the handle and record through it unconditionally.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	k := key(name, labels)
	r.mu.RLock()
	c := r.counters[k]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[k]; c == nil {
		c = &Counter{}
		r.counters[k] = c
	}
	return c
}

// Gauge returns (registering on first use) the gauge for name+labels.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	k := key(name, labels)
	r.mu.RLock()
	g := r.gauges[k]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[k]; g == nil {
		g = &Gauge{}
		r.gauges[k] = g
	}
	return g
}

// Histogram returns (registering on first use) the histogram for
// name+labels with the given ascending bucket upper bounds (an implicit
// +Inf bucket is appended). Buckets are fixed at first registration;
// later calls with the same name ignore the buckets argument.
func (r *Registry) Histogram(name string, buckets []float64, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	k := key(name, labels)
	r.mu.RLock()
	h := r.hists[k]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[k]; h == nil {
		h = newHistogram(buckets)
		r.hists[k] = h
	}
	return h
}

// --- counter ---------------------------------------------------------------

// Counter is a monotonically increasing atomic int64. All methods are
// nil-safe no-ops so disabled telemetry costs one branch.
type Counter struct{ v int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	atomic.AddInt64(&c.v, n)
}

// Inc increments the counter by 1.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return atomic.LoadInt64(&c.v)
}

// --- gauge -----------------------------------------------------------------

// Gauge is an atomic float64 holding the latest value of something.
type Gauge struct{ bits uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	atomic.StoreUint64(&g.bits, math.Float64bits(v))
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(atomic.LoadUint64(&g.bits))
}

// --- histogram -------------------------------------------------------------

// Histogram counts observations into fixed buckets (upper-bound
// inclusive, implicit +Inf overflow bucket) and tracks count and sum.
type Histogram struct {
	bounds  []float64 // ascending upper bounds, not including +Inf
	counts  []int64   // len(bounds)+1, atomic
	count   int64     // atomic
	sumBits uint64    // atomic float64
}

func newHistogram(buckets []float64) *Histogram {
	bounds := append([]float64(nil), buckets...)
	sort.Float64s(bounds)
	return &Histogram{bounds: bounds, counts: make([]int64, len(bounds)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Binary search for the first bound >= v.
	i := sort.SearchFloat64s(h.bounds, v)
	atomic.AddInt64(&h.counts[i], 1)
	atomic.AddInt64(&h.count, 1)
	for {
		old := atomic.LoadUint64(&h.sumBits)
		s := math.Float64frombits(old) + v
		if atomic.CompareAndSwapUint64(&h.sumBits, old, math.Float64bits(s)) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return atomic.LoadInt64(&h.count)
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(atomic.LoadUint64(&h.sumBits))
}

// Quantile approximates the q-th quantile from the bucket counts,
// assuming a uniform distribution within each bucket. Pinned semantics
// (see TestQuantileTable):
//
//   - empty histogram, or NaN q: NaN;
//   - q is clamped into [0, 1];
//   - q = 0: the lower bound of the first occupied bucket;
//   - q = 1: the upper bound of the last occupied bucket;
//   - the overflow (+Inf) bucket has no upper bound, so any quantile
//     landing there reports the bucket's floor (the largest finite
//     bound; 0 for a histogram with no finite buckets);
//   - otherwise: linear interpolation between the occupied bucket's
//     bounds at the fraction of its mass below the target rank.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return math.NaN()
	}
	total := atomic.LoadInt64(&h.count)
	if total == 0 || math.IsNaN(q) {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(total)
	var cum float64
	for i := range h.counts {
		n := float64(atomic.LoadInt64(&h.counts[i]))
		if n == 0 {
			continue
		}
		// q=0 (target 0) resolves here too: the first occupied bucket at
		// interpolation fraction 0, i.e. its lower bound.
		if cum+n >= target {
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			if i == len(h.bounds) { // overflow bucket: report its floor
				return lo
			}
			frac := (target - cum) / n
			return lo + (h.bounds[i]-lo)*frac
		}
		cum += n
	}
	// Counts moved between the total load and the scan (concurrent
	// writers); fall back to the largest bound seen.
	if len(h.bounds) == 0 {
		return 0
	}
	return h.bounds[len(h.bounds)-1]
}

// --- bucket helpers ---------------------------------------------------------

// ExpBuckets returns n exponentially spaced upper bounds start,
// start*factor, ...
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := 0; i < n; i++ {
		out[i] = v
		v *= factor
	}
	return out
}

// LatencyBuckets spans 50 µs .. ~26 s, the range of SONIC stage
// latencies from a single cell decode to a full-page OFDM modulate.
var LatencyBuckets = ExpBuckets(50e-6, 2, 20)

// WaitBuckets spans 100 µs .. ~29.8 h — the full range of lifecycle stage
// and carousel waits, from a warm render-cache hit to a page queued
// behind a day of backlog. The top bound sits past the 24 h page TTL, so
// every wait of a page still worth airing lands in a finite bucket.
var WaitBuckets = ExpBuckets(100e-6, 2, 31)
