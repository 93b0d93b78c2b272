package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestLifecycleStampsAndHistograms(t *testing.T) {
	reg := New()
	lc := NewLifecycle(reg, LifecycleConfig{
		SLOTargets: SLOTargets{
			RequestToOnAir:     time.Minute,
			RequestToDelivered: time.Minute,
		},
	})
	if reg.Lifecycle() != lc {
		t.Fatal("NewLifecycle did not install itself on the registry")
	}

	t0 := time.Unix(1000, 0)
	tr := lc.BeginAt("a.pk/", "+92300", t0)
	tr.StampAt(StageAdmitted, t0)
	tr.StampAt(StageRenderStart, t0.Add(10*time.Millisecond))
	tr.StampAt(StageRenderDone, t0.Add(200*time.Millisecond))
	tr.StampAt(StageEnqueued, t0.Add(200*time.Millisecond))
	tr.StampAt(StageOnAirStart, t0.Add(30*time.Second))
	tr.StampAt(StageOnAirDone, t0.Add(110*time.Second)) // breaches the 1m on-air SLO
	tr.StampAt(StageDelivered, t0.Add(115*time.Second))

	snap := reg.Snapshot()
	onAir := snap.Histograms["request_to_on_air_seconds"]
	if onAir.Count != 1 || onAir.Sum != 110 {
		t.Errorf("request_to_on_air = %+v, want one 110s observation", onAir)
	}
	deliv := snap.Histograms["request_to_delivered_seconds"]
	if deliv.Count != 1 || deliv.Sum != 115 {
		t.Errorf("request_to_delivered = %+v, want one 115s observation", deliv)
	}
	if w := snap.Histograms["lifecycle_stage_wait_seconds{stage=on_air_start}"]; w.Count != 1 || w.Sum < 29.79 || w.Sum > 29.81 {
		t.Errorf("on_air_start wait = %+v, want ~29.8s", w)
	}
	if got := snap.Counters["lifecycle_slo_breach_total{slo=request_to_on_air}"]; got != 1 {
		t.Errorf("on-air SLO breach = %d, want 1", got)
	}
	if got := snap.Counters["lifecycle_slo_breach_total{slo=request_to_delivered}"]; got != 1 {
		t.Errorf("delivered SLO breach = %d, want 1", got)
	}
	if open := snap.Gauges["lifecycle_open_traces"]; open != 0 {
		t.Errorf("open traces = %v after delivery, want 0", open)
	}

	// The ring reconstructs the timeline in stage order.
	events := lc.Ring().Events(tr.id)
	if len(events) != 8 {
		t.Fatalf("ring has %d events for the trace, want 8: %+v", len(events), events)
	}
	if events[0].Detail != "+92300" || events[0].Stage != "received" {
		t.Errorf("first event = %+v", events[0])
	}
}

// TestOnAirWaitBelowTTLIsFinite pins WaitBuckets' reach: a request that
// waits a whole page TTL (24 h) for its airing lands in a finite bucket,
// so the on-air quantiles read the wait instead of the histogram's top
// bound.
func TestOnAirWaitBelowTTLIsFinite(t *testing.T) {
	reg := New()
	lc := NewLifecycle(reg, LifecycleConfig{})
	t0 := time.Unix(0, 0)
	lc.BeginAt("a.pk/", "api", t0).StampAt(StageOnAirDone, t0.Add(24*time.Hour))
	h := reg.Histogram("request_to_on_air_seconds", WaitBuckets)
	if q := h.Quantile(1); q < 86400 {
		t.Fatalf("p100 of one 86400 s wait = %.1f s, want >= 86400", q)
	}
}

func TestLifecycleIdempotentAndClamped(t *testing.T) {
	reg := New()
	lc := NewLifecycle(reg, LifecycleConfig{})
	t0 := time.Unix(0, 0)
	tr := lc.BeginAt("a.pk/", "api", t0.Add(time.Hour))
	// First stamp wins; a re-stamp must not move the timestamp or
	// observe a second wait.
	tr.StampAt(StageEnqueued, t0.Add(time.Hour+time.Second))
	tr.StampAt(StageEnqueued, t0.Add(2*time.Hour))
	// A stamp earlier than the previous stage (mixed clock domains)
	// clamps the wait at zero instead of recording a negative value.
	tr.StampAt(StageOnAirStart, t0)

	snap := reg.Snapshot()
	if w := snap.Histograms["lifecycle_stage_wait_seconds{stage=enqueued}"]; w.Count != 1 || w.Sum != 1 {
		t.Errorf("enqueued wait = %+v, want one 1s observation", w)
	}
	if w := snap.Histograms["lifecycle_stage_wait_seconds{stage=on_air_start}"]; w.Count != 1 || w.Sum != 0 {
		t.Errorf("clamped wait = %+v, want one 0s observation", w)
	}
}

func TestLifecycleDeliveredAtClosesAllOpenTraces(t *testing.T) {
	reg := New()
	lc := NewLifecycle(reg, LifecycleConfig{})
	t0 := time.Unix(0, 0)
	lc.BeginAt("a.pk/", "u1", t0)
	lc.BeginAt("a.pk/", "u2", t0.Add(time.Second))
	lc.BeginAt("b.pk/", "u3", t0) // different URL stays open
	lc.DeliveredAt("a.pk/", t0.Add(time.Minute))

	snap := reg.Snapshot()
	if got := snap.Counters["lifecycle_delivered_total"]; got != 2 {
		t.Errorf("delivered = %d, want 2", got)
	}
	if open := snap.Gauges["lifecycle_open_traces"]; open != 1 {
		t.Errorf("open = %v, want 1", open)
	}
	// Delivering again is a no-op (the traces are closed).
	lc.DeliveredAt("a.pk/", t0.Add(2*time.Minute))
	if got := reg.Snapshot().Counters["lifecycle_delivered_total"]; got != 2 {
		t.Errorf("re-delivery bumped the counter to %d", got)
	}
}

func TestLifecycleAbort(t *testing.T) {
	reg := New()
	lc := NewLifecycle(reg, LifecycleConfig{})
	tr := lc.BeginAt("a.pk/", "api", time.Unix(0, 0))
	tr.Abort(time.Unix(1, 0), "no coverage")
	tr.Abort(time.Unix(2, 0), "again") // idempotent

	snap := reg.Snapshot()
	if got := snap.Counters["lifecycle_aborted_total"]; got != 1 {
		t.Errorf("aborted = %d, want 1", got)
	}
	events := lc.Ring().Events(tr.id)
	if len(events) != 2 || events[1].Detail != "no coverage" {
		t.Fatalf("abort events = %+v", events)
	}
}

func TestLifecycleMaxOpenTracesEviction(t *testing.T) {
	reg := New()
	lc := NewLifecycle(reg, LifecycleConfig{MaxOpenTraces: 4})
	t0 := time.Unix(0, 0)
	for i := 0; i < 10; i++ {
		lc.BeginAt(fmt.Sprintf("p%d.pk/", i), "api", t0)
	}
	if open := reg.Snapshot().Gauges["lifecycle_open_traces"]; open != 4 {
		t.Fatalf("open = %v, want cap 4", open)
	}
	// The evicted head no longer confirms delivery...
	lc.DeliveredAt("p0.pk/", t0.Add(time.Second))
	if got := reg.Snapshot().Counters["lifecycle_delivered_total"]; got != 0 {
		t.Errorf("evicted trace delivered = %d, want 0", got)
	}
	// ...but retained ones do.
	lc.DeliveredAt("p9.pk/", t0.Add(time.Second))
	if got := reg.Snapshot().Counters["lifecycle_delivered_total"]; got != 1 {
		t.Errorf("retained trace delivered = %d, want 1", got)
	}
}

func TestLifecycleNilSafe(t *testing.T) {
	var lc *Lifecycle
	tr := lc.BeginAt("a.pk/", "api", time.Unix(0, 0))
	if tr != nil {
		t.Fatal("nil lifecycle returned a trace")
	}
	tr.StampAt(StageEnqueued, time.Unix(1, 0))
	tr.Abort(time.Unix(2, 0), "x")
	lc.DeliveredAt("a.pk/", time.Unix(3, 0))
	if lc.Ring() != nil {
		t.Fatal("nil handles not inert")
	}
	var reg *Registry
	if reg.Lifecycle() != nil {
		t.Fatal("nil registry returned a lifecycle")
	}
	if NewLifecycle(nil, LifecycleConfig{}) != nil {
		t.Fatal("NewLifecycle(nil) should be nil")
	}
}

// TestLifecycleConcurrent hammers trace creation, stamping, and delivery
// confirmation from many goroutines; run under -race it proves the
// tracker's locking discipline.
func TestLifecycleConcurrent(t *testing.T) {
	reg := New()
	lc := NewLifecycle(reg, LifecycleConfig{})
	t0 := time.Unix(0, 0)
	const workers, perWorker = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				url := fmt.Sprintf("p%d.pk/", (w+i)%5)
				tr := lc.BeginAt(url, "api", t0)
				tr.StampAt(StageAdmitted, t0.Add(time.Millisecond))
				tr.StampAt(StageEnqueued, t0.Add(2*time.Millisecond))
				tr.StampAt(StageOnAirStart, t0.Add(time.Second))
				tr.StampAt(StageOnAirDone, t0.Add(2*time.Second))
				lc.DeliveredAt(url, t0.Add(3*time.Second))
				lc.Ring().Events("")
			}
		}(w)
	}
	wg.Wait()
	snap := reg.Snapshot()
	total := int64(workers * perWorker)
	if got := snap.Counters["lifecycle_requests_total"]; got != total {
		t.Errorf("requests = %d, want %d", got, total)
	}
	if got := snap.Histograms["request_to_on_air_seconds"]; got.Count != total {
		t.Errorf("on-air observations = %d, want %d", got.Count, total)
	}
	// DeliveredAt(url) can close traces opened by other workers, so only
	// the aggregate holds: everything begun was eventually delivered.
	if got := snap.Counters["lifecycle_delivered_total"]; got != total {
		t.Errorf("delivered = %d, want %d", got, total)
	}
}

// TestOpenTracesGaugeAtQuiescence releases many goroutines at once to
// begin, deliver and abort traces, and after every round checks
// lifecycle_open_traces against the traces left open. The gauge is set
// under the lock that changes the count, so the last writer publishes
// the current count; a gauge set after releasing that lock can land an
// older count last.
func TestOpenTracesGaugeAtQuiescence(t *testing.T) {
	reg := New()
	lc := NewLifecycle(reg, LifecycleConfig{})
	t0 := time.Unix(0, 0)
	const workers, rounds = 8, 300
	prev := make([]*Trace, workers)
	open := 0
	for r := 0; r < rounds; r++ {
		start := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				<-start
				tr := lc.BeginAt(fmt.Sprintf("r%d-w%d.pk/", r, w), "api", t0)
				if r%2 == 0 {
					prev[w] = tr
					return
				}
				// Odd rounds close the trace the worker opened last round,
				// by delivery confirmation or by abort.
				if w%2 == 0 {
					lc.DeliveredAt(prev[w].url, t0.Add(time.Second))
				} else {
					prev[w].Abort(t0.Add(time.Second), "test")
				}
			}(w)
		}
		close(start)
		wg.Wait()
		if open += workers; r%2 == 1 {
			open -= workers
		}
		if got := reg.Snapshot().Gauges["lifecycle_open_traces"]; got != float64(open) {
			t.Fatalf("round %d: lifecycle_open_traces = %v at quiescence, want %d", r, got, open)
		}
	}
}

// TestTraceEndpoint drives the ops handler end to end: a stamped trace
// is served back by /trace/<id> with its stage timeline, and /events.json
// honors the ?trace= filter.
func TestTraceEndpoint(t *testing.T) {
	reg := New()
	lc := NewLifecycle(reg, LifecycleConfig{})
	t0 := time.Unix(500, 0)
	tr := lc.BeginAt("a.pk/", "+92300", t0)
	tr.StampAt(StageAdmitted, t0)
	tr.StampAt(StageEnqueued, t0.Add(time.Second))
	tr.StampAt(StageOnAirStart, t0.Add(time.Minute))
	tr.StampAt(StageOnAirDone, t0.Add(2*time.Minute))

	srv := httptest.NewServer(Handler(reg))
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}

	code, body := get("/trace/" + tr.id)
	if code != 200 {
		t.Fatalf("GET /trace/%s = %d: %s", tr.id, code, body)
	}
	var view TraceView
	if err := json.Unmarshal([]byte(body), &view); err != nil {
		t.Fatal(err)
	}
	if view.Trace != tr.id || view.URL != "a.pk/" || view.LastStage != "on_air_done" {
		t.Errorf("view = %+v", view)
	}
	if view.TotalSeconds != 120 {
		t.Errorf("TotalSeconds = %v, want 120", view.TotalSeconds)
	}
	if len(view.Events) != 5 {
		t.Errorf("view has %d events, want 5", len(view.Events))
	}

	if code, _ := get("/trace/t-ffffff"); code != 404 {
		t.Errorf("unknown trace = %d, want 404", code)
	}
	if code, _ := get("/trace/"); code != 404 {
		t.Errorf("bare /trace/ = %d, want 404", code)
	}

	code, body = get("/events.json?trace=" + tr.id)
	if code != 200 {
		t.Fatalf("events.json = %d", code)
	}
	var events []Event
	if err := json.Unmarshal([]byte(body), &events); err != nil || len(events) != 5 {
		t.Errorf("filtered events = %d (%v)", len(events), err)
	}

	// The Prometheus view of the same registry carries the lifecycle
	// histogram.
	code, body = get("/metrics")
	if code != 200 || !strings.Contains(body, "request_to_on_air_seconds_count 1") {
		t.Errorf("prom exposition missing lifecycle family:\n%s", body)
	}
}
