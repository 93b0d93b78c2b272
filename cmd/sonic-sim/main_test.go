package main

import (
	"testing"

	"sonic/internal/telemetry"
)

// TestDeliveredOnlyToCapturingRequester pins the sim's stamping: a
// request is on air from its page's first airing, but delivered only at
// an airing its own requester captured whole. A listener who lost a
// frame keeps waiting, and the delivered histogram counts nobody for
// that airing.
func TestDeliveredOnlyToCapturingRequester(t *testing.T) {
	reg := telemetry.New()
	lc := telemetry.NewLifecycle(reg, telemetry.LifecycleConfig{})
	reqs := []pendingReq{
		{who: 0, t0: 0, tr: lc.BeginAt("a/", "sim-user-0", simTime(0))},
		{who: 1, t0: 5, tr: lc.BeginAt("a/", "sim-user-1", simTime(5))},
	}
	hist := func(name string) telemetry.HistogramSnapshot {
		return reg.Snapshot().Histograms[name]
	}

	// First airing, 100-200 s: listener 0 captures it, listener 1 loses a frame.
	reqs, lat := serveAiring(reqs, 100, 200, []bool{true, false}, nil)
	if len(lat) != 1 || lat[0] != 200 {
		t.Fatalf("after the first airing: latencies %v, want [200]", lat)
	}
	if len(reqs) != 1 || reqs[0].who != 1 {
		t.Fatalf("after the first airing: pending %+v, want only listener 1", reqs)
	}
	if h := hist("request_to_delivered_seconds"); h.Count != 1 {
		t.Fatalf("delivered histogram counts %d after the first airing, want 1", h.Count)
	}

	// Second airing, 300-400 s: listener 1 captures it.
	reqs, lat = serveAiring(reqs, 300, 400, []bool{false, true}, lat)
	if len(reqs) != 0 || len(lat) != 2 || lat[1] != 395 {
		t.Fatalf("after the second airing: pending %+v, latencies %v, want none and [200 395]", reqs, lat)
	}
	deliv := hist("request_to_delivered_seconds")
	if deliv.Count != 2 || deliv.Sum != 200+395 {
		t.Fatalf("delivered histogram: n=%d sum=%g, want n=2 sum=595", deliv.Count, deliv.Sum)
	}
	// Both requests went on air at the first airing: 200 s and 195 s.
	onAir := hist("request_to_on_air_seconds")
	if onAir.Count != 2 || onAir.Sum != 200+195 {
		t.Fatalf("on-air histogram: n=%d sum=%g, want n=2 sum=395 (first airing wins)", onAir.Count, onAir.Sum)
	}
}
