package telemetry

import (
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"strings"
	"sync/atomic"
	"time"
)

// Snapshot is a consistent-enough point-in-time copy of every registered
// metric (individual values are read atomically; the set is collected
// under a read lock). It marshals directly to JSON.
type Snapshot struct {
	TakenAt    time.Time                    `json:"taken_at"`
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
	Spans      map[string]SpanSnapshot      `json:"spans,omitempty"`
}

// HistogramSnapshot is one histogram's state.
type HistogramSnapshot struct {
	Count   int64    `json:"count"`
	Sum     float64  `json:"sum"`
	P50     float64  `json:"p50"`
	P99     float64  `json:"p99"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Bucket is one histogram bucket: the count of samples at or below Le
// (exclusive of lower buckets). Le is "+Inf" for the overflow bucket —
// kept as a string so the snapshot marshals cleanly.
type Bucket struct {
	Le    string `json:"le"`
	Count int64  `json:"count"`
}

// SpanSnapshot summarizes one span name.
type SpanSnapshot struct {
	Count        int64   `json:"count"`
	TotalSeconds float64 `json:"total_seconds"`
	SelfSeconds  float64 `json:"self_seconds"`
	P50Seconds   float64 `json:"p50_seconds"`
	P99Seconds   float64 `json:"p99_seconds"`
}

func histSnapshot(h *Histogram) HistogramSnapshot {
	hs := HistogramSnapshot{Count: h.Count(), Sum: h.Sum()}
	if hs.Count > 0 {
		hs.P50, hs.P99 = h.Quantile(0.5), h.Quantile(0.99)
	}
	for i := range h.counts {
		n := atomic.LoadInt64(&h.counts[i])
		if n == 0 {
			continue
		}
		le := "+Inf"
		if i < len(h.bounds) {
			le = fmt.Sprintf("%g", h.bounds[i])
		}
		hs.Buckets = append(hs.Buckets, Bucket{Le: le, Count: n})
	}
	return hs
}

// Snapshot captures the current state of every metric. Returns a zero
// snapshot on a nil registry.
func (r *Registry) Snapshot() Snapshot {
	snap := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramSnapshot{},
		Spans:      map[string]SpanSnapshot{},
	}
	if r == nil {
		return snap
	}
	snap.TakenAt = r.now()
	r.mu.RLock()
	defer r.mu.RUnlock()
	for k, c := range r.counters {
		snap.Counters[k] = c.Value()
	}
	for k, g := range r.gauges {
		snap.Gauges[k] = g.Value()
	}
	for k, h := range r.hists {
		snap.Histograms[k] = histSnapshot(h)
	}
	for k, s := range r.spans {
		hs := histSnapshot(s.dur)
		snap.Spans[k] = SpanSnapshot{
			Count:        atomic.LoadInt64(&s.count),
			TotalSeconds: s.dur.Sum(),
			SelfSeconds:  math.Float64frombits(atomic.LoadUint64(&s.selfBits)),
			P50Seconds:   hs.P50,
			P99Seconds:   hs.P99,
		}
	}
	return snap
}

// TraceView is the /trace/<id> response: one request's stage timeline
// reconstructed from the lifecycle event ring.
type TraceView struct {
	Trace        string  `json:"trace"`
	URL          string  `json:"url,omitempty"`
	Events       []Event `json:"events"`
	TotalSeconds float64 `json:"total_seconds"`
	LastStage    string  `json:"last_stage"`
}

// traceView reconstructs a trace timeline from ring events (oldest
// first). ok is false when the ring retains no events for the ID.
func traceView(ring *EventRing, id string) (TraceView, bool) {
	events := ring.Events(id)
	if len(events) == 0 {
		return TraceView{}, false
	}
	v := TraceView{Trace: id, Events: events}
	for _, e := range events {
		if e.URL != "" {
			v.URL = e.URL
		}
		v.LastStage = e.Stage
	}
	v.TotalSeconds = events[len(events)-1].At.Sub(events[0].At).Seconds()
	if v.TotalSeconds < 0 {
		v.TotalSeconds = 0
	}
	return v, true
}

// Handler returns the live ops endpoint for a registry:
//
//	/metrics        Prometheus text exposition
//	/metrics.json   JSON snapshot
//	/trace/<id>     one request's lifecycle timeline (event ring)
//	/events.json    the lifecycle event ring (?trace= filters)
//	/debug/pprof/*  the standard Go profiler
func Handler(r *Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", PromContentType)
		r.Snapshot().WriteProm(w)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(r.Snapshot())
	})
	mux.HandleFunc("/trace/", func(w http.ResponseWriter, req *http.Request) {
		id := strings.TrimPrefix(req.URL.Path, "/trace/")
		ring := r.Lifecycle().Ring()
		if id == "" || ring == nil {
			http.Error(w, "trace: want /trace/<id> (lifecycle tracing must be enabled)", http.StatusNotFound)
			return
		}
		view, ok := traceView(ring, id)
		if !ok {
			http.Error(w, fmt.Sprintf("trace %q: no retained events", id), http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(view)
	})
	mux.HandleFunc("/events.json", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = r.Lifecycle().Ring().WriteJSON(w, req.URL.Query().Get("trace"))
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/" {
			http.NotFound(w, req)
			return
		}
		fmt.Fprintln(w, "sonic telemetry: /metrics (Prometheus text) /metrics.json /trace/<id> /events.json /debug/pprof/")
	})
	return mux
}

// Serve starts the ops endpoint on addr (e.g. ":6060") in a background
// goroutine and returns the bound listener address (useful with ":0").
func Serve(addr string, r *Registry) (string, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: Handler(r)}
	go func() { _ = srv.Serve(l) }()
	return l.Addr().String(), nil
}
