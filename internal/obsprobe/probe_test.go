package obsprobe

import (
	"testing"

	"sonic/internal/telemetry"
)

// TestRunPopulatesAllFamilies is the acceptance check behind the ops
// endpoint: after one probe run the snapshot must hold non-zero server,
// artifact and lifecycle families and every stage's span. The carousel
// families are sonic-sim's own (broadcast's TestCarouselGaugesMatchAirtime).
func TestRunPopulatesAllFamilies(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline round trip")
	}
	reg := telemetry.New()
	if err := Run(reg); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()

	wantCounters := []string{
		"server_sms_requests_total",
		"server_render_cache_hits_total",
		"server_render_cache_misses_total",
		"server_pages_enqueued_total",
		"lifecycle_requests_total",
		"lifecycle_on_air_total",
		"lifecycle_delivered_total",
	}
	for _, name := range wantCounters {
		if v, ok := snap.Counters[name]; !ok || v == 0 {
			t.Errorf("counter %s: got %d, want > 0", name, v)
		}
	}

	wantGauges := []string{
		"artifact_cache_bytes",
		"artifact_cache_entries",
	}
	for _, name := range wantGauges {
		if v, ok := snap.Gauges[name]; !ok || v <= 0 {
			t.Errorf("gauge %s: got %v, want > 0", name, v)
		}
	}
	if _, ok := snap.Gauges["server_queue_depth_pages{tx=tx-probe}"]; !ok {
		t.Error("gauge server_queue_depth_pages{tx=tx-probe} missing")
	}

	wantHists := []string{
		"request_to_on_air_seconds",
		"request_to_delivered_seconds",
	}
	for _, name := range wantHists {
		if h, ok := snap.Histograms[name]; !ok || h.Count == 0 {
			t.Errorf("histogram %s empty", name)
		}
	}

	wantSpans := []string{
		"core.encode_page",
		"core.encode_page/modulate",
		"core.decode_page",
		"core.decode_page/demodulate",
		"core.decode_page/fec_decode",
		"fm.transmit",
		"server.render_page",
	}
	for _, name := range wantSpans {
		if s, ok := snap.Spans[name]; !ok || s.Count == 0 {
			t.Errorf("span %s empty", name)
		}
	}
}

// TestRunPopulatesLifecycle pins the acceptance contract the ops smoke
// relies on: one probe run yields non-zero request→on-air latency
// quantiles, a delivery confirmation, and reconstructable traces in the
// event ring.
func TestRunPopulatesLifecycle(t *testing.T) {
	if testing.Short() {
		t.Skip("DSP-heavy probe")
	}
	reg := telemetry.New()
	if err := Run(reg); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()

	h, ok := snap.Histograms["request_to_on_air_seconds"]
	if !ok || h.Count == 0 {
		t.Fatalf("request_to_on_air_seconds not populated: %+v", h)
	}
	if h.P50 <= 0 || h.P99 <= 0 {
		t.Errorf("request->on-air p50=%g p99=%g, want > 0", h.P50, h.P99)
	}
	if snap.Counters["lifecycle_delivered_total"] == 0 {
		t.Error("no decode-side delivery confirmations recorded")
	}
	if snap.Counters["lifecycle_requests_total"] < 2 {
		t.Errorf("lifecycle requests = %d, want >= 2 (queue churn + SMS loop)",
			snap.Counters["lifecycle_requests_total"])
	}

	ring := reg.Lifecycle().Ring()
	events := ring.Events("")
	if len(events) == 0 {
		t.Fatal("event ring empty after probe")
	}
	// Every event belongs to a trace that /trace/<id> can reconstruct.
	byTrace := map[string]int{}
	for _, e := range events {
		if e.Trace == "" {
			t.Fatalf("event without trace ID: %+v", e)
		}
		byTrace[e.Trace]++
	}
	for id, n := range byTrace {
		if got := ring.Events(id); len(got) != n {
			t.Errorf("trace %s: filter returned %d events, want %d", id, len(got), n)
		}
	}
}
