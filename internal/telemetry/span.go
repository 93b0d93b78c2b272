package telemetry

import (
	"math"
	"sync/atomic"
	"time"
)

// Span tracing. A span measures one stage of the pipeline; child spans
// nest inside a parent, and the parent's *self* time is its total minus
// the time spent in children, so a snapshot shows exactly where inside
// encode→FM→decode the wall clock went.
//
// Spans use the registry clock (monotonic by default). A single span and
// its children belong to one goroutine; distinct goroutines each start
// their own spans, and the shared per-name accumulators are atomic.
//
// All methods are nil-safe: a nil *Registry yields a nil *Span and the
// whole trace collapses to nil checks.

// spanStat is the shared accumulator for one span name.
type spanStat struct {
	dur      *Histogram
	selfBits uint64 // atomic float64: cumulative self seconds
}

func (s *spanStat) observe(total, self time.Duration) {
	s.dur.Observe(total.Seconds())
	for {
		old := atomic.LoadUint64(&s.selfBits)
		v := math.Float64frombits(old) + self.Seconds()
		if atomic.CompareAndSwapUint64(&s.selfBits, old, math.Float64bits(v)) {
			return
		}
	}
}

// spanStatFor returns the accumulator for a span name, creating it on
// first use.
func (r *Registry) spanStatFor(name string) *spanStat {
	r.mu.RLock()
	s := r.spans[name]
	r.mu.RUnlock()
	if s != nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if s = r.spans[name]; s == nil {
		s = &spanStat{dur: newHistogram(LatencyBuckets)}
		r.spans[name] = s
	}
	return s
}

// Span is one in-flight stage measurement. Obtain with StartSpan /
// StartChild; finish with End.
type Span struct {
	reg      *Registry
	name     string
	parent   *Span
	start    time.Time
	childDur time.Duration
}

// StartSpan opens a root span. Returns nil (a valid no-op span) on a nil
// registry.
func (r *Registry) StartSpan(name string) *Span {
	if r == nil {
		return nil
	}
	return &Span{reg: r, name: name, start: r.now()}
}

// StartChild opens a nested span whose duration is charged against the
// parent's self time. The child's name is parent-name + "/" + name.
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	return &Span{reg: s.reg, name: s.name + "/" + name, parent: s, start: s.reg.now()}
}

// End closes the span, records (total, self) into the registry, and
// returns the total duration.
func (s *Span) End() time.Duration {
	if s == nil {
		return 0
	}
	d := s.reg.now().Sub(s.start)
	if s.parent != nil {
		s.parent.childDur += d
	}
	self := d - s.childDur
	if self < 0 {
		self = 0
	}
	s.reg.spanStatFor(s.name).observe(d, self)
	return d
}
