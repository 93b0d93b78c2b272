// Command sonic-sim runs a day-scale discrete-event simulation of a
// SONIC deployment: a transmitter broadcasting the corpus carousel, a
// population of listeners with the paper's three capability classes
// (Figure 3), hourly content churn, and SMS requests from uplink users.
// It reports what such a deployment actually delivers: catalog
// freshness, per-user pages received, request latency.
//
//	sonic-sim -hours 24 -listeners 200 -rate 10000
//
// With -telemetry :7380 it also serves the live ops endpoint
// (/metrics in the Prometheus text format, /metrics.json,
// /debug/pprof), runs an instrumented
// end-to-end probe so every pipeline stage reports, and stays alive
// for scraping after the report.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	"sonic/internal/broadcast"
	"sonic/internal/core"
	"sonic/internal/corpus"
	"sonic/internal/obsprobe"
	"sonic/internal/stats"
	"sonic/internal/telemetry"
)

func main() {
	var (
		hours     = flag.Int("hours", 24, "simulated hours")
		listeners = flag.Int("listeners", 200, "listener population")
		rate      = flag.Float64("rate", 10000, "channel rate (bps)")
		uplinkPct = flag.Int("uplink", 20, "percent of listeners with SMS uplink (user-C)")
		seed      = flag.Int64("seed", 1, "simulation seed")
		telAddr   = flag.String("telemetry", "", "serve the ops endpoint (/metrics Prometheus text, /metrics.json, /debug/pprof) on this address, e.g. :7380; keeps the process alive after the report")
		sloAir    = flag.Duration("slo-on-air", 45*time.Minute, "request->on-air SLO budget (0 disables the evaluator)")
		sloDeliv  = flag.Duration("slo-delivered", time.Hour, "request->delivered SLO budget (0 disables the evaluator)")
	)
	flag.Parse()

	var reg *telemetry.Registry // nil unless -telemetry: all records below are no-ops
	var lc *telemetry.Lifecycle
	if *telAddr != "" {
		reg = telemetry.New()
		lc = telemetry.NewLifecycle(reg, telemetry.LifecycleConfig{
			SLOTargets: telemetry.SLOTargets{
				RequestToOnAir:     *sloAir,
				RequestToDelivered: *sloDeliv,
			},
		})
		bound, err := telemetry.Serve(*telAddr, reg)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("telemetry: http://%s/metrics (Prometheus text; JSON at /metrics.json, traces at /trace/<id>, profiles at /debug/pprof)\n", bound)
	}

	pipe, err := core.NewPipeline(core.DefaultConfig())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	pipe.Instrument(reg)
	// -rate is the FEC-coded channel rate; framing takes its share on
	// top, so a page's bytes air at the pipeline's net goodput scaled to
	// that channel — the rate behind AirtimeSeconds and the server's ETAs.
	payloadBps := pipe.NetGoodputBps() * *rate / pipe.TransportRateBps()
	rng := rand.New(rand.NewSource(*seed))
	pages := corpus.Pages()

	car, err := broadcast.CorpusCarousel(pages, broadcast.ModelSize, broadcast.PolicySqrt)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	car.Instrument(reg, payloadBps)

	// Listener state: which page each listener last received and when.
	type listener struct {
		uplink   bool
		lossRate float64 // per-frame loss of their reception setup
		received int
		misses   int // transmissions they failed to capture
	}
	pop := make([]listener, *listeners)
	for i := range pop {
		pop[i].uplink = rng.Intn(100) < *uplinkPct
		// Receiver mix per Fig. 3: most on tuner/cable (lossless), some
		// over the air at varying distances.
		switch {
		case rng.Float64() < 0.6: // user-B/C: tuner or jack
			pop[i].lossRate = 0
		case rng.Float64() < 0.8: // near radio
			pop[i].lossRate = 0.03
		default: // across the room
			pop[i].lossRate = 0.15
		}
	}

	// Broadcast loop: schedule pages with the carousel; each transmission
	// takes airtime = bytes*8/payloadBps seconds; listeners capture it if no
	// frame of the bitstream is lost (bitstream transport: all or
	// nothing per page).
	sched := car.Schedule(100000)
	entries := car.Entries()
	// Lifecycle traces are stamped in simulation time: second 0 of the
	// sim is the Unix epoch, so request→on-air latencies land on the
	// histograms at their simulated (minutes-scale) values.
	base := time.Unix(0, 0)
	simTime := func(s float64) time.Time {
		return base.Add(time.Duration(s * float64(time.Second)))
	}
	type pendingReq struct {
		t0 float64
		tr *telemetry.Trace
	}
	var (
		simT         float64 // seconds
		horizonS     = float64(*hours) * 3600
		transmission int
		freshAt      = map[string]int{} // url -> hour of content last aired
		requests     []float64          // request-to-delivery latencies
		pending      = map[string][]pendingReq{}
	)
	for _, idx := range sched {
		if simT >= horizonS {
			break
		}
		e := entries[idx]
		hour := int(simT / 3600)
		bytes := broadcast.ModelSize(e.Ref, hour)
		air := float64(bytes) * 8 / payloadBps
		airStart := simT
		simT += air
		transmission++
		freshAt[e.Ref.URL] = hour

		// Deliveries.
		frames := bytes / 85
		for i := range pop {
			if pop[i].lossRate == 0 || rng.Float64() < probAllFrames(pop[i].lossRate, frames) {
				pop[i].received++
			} else {
				pop[i].misses++
			}
		}
		// Outstanding requests for this page are satisfied now.
		for _, p := range pending[e.Ref.URL] {
			requests = append(requests, simT-p.t0)
			p.tr.StampAt(telemetry.StageOnAirStart, simTime(airStart))
			p.tr.StampAt(telemetry.StageOnAirDone, simTime(simT))
			p.tr.StampAt(telemetry.StageDelivered, simTime(simT))
		}
		delete(pending, e.Ref.URL)

		// Uplink users occasionally request a random page (Zipf-ish).
		if rng.Float64() < 0.3 {
			who := rng.Intn(len(pop))
			if pop[who].uplink {
				ref := pages[rng.Intn(10)] // popular head
				at := simTime(simT)
				tr := lc.BeginAt(ref.URL, fmt.Sprintf("sim-user-%d", who), at)
				tr.StampAt(telemetry.StageAdmitted, at)
				// The carousel broadcasts pre-rendered content, so the
				// request is queue-bound from admission on.
				tr.StampAt(telemetry.StageEnqueued, at)
				pending[ref.URL] = append(pending[ref.URL], pendingReq{t0: simT, tr: tr})
			}
		}
	}
	// Requests never aired within the horizon are aborted, not leaked.
	for url, reqs := range pending {
		for _, p := range reqs {
			p.tr.Abort(simTime(horizonS), "sim horizon reached")
		}
		delete(pending, url)
	}

	// --- report -----------------------------------------------------------
	fmt.Printf("sonic-sim: %d h at %.0f kbps (net %.1f kbps page goodput), %d listeners (%d%% uplink)\n",
		*hours, *rate/1000, payloadBps/1000, *listeners, *uplinkPct)
	fmt.Printf("transmissions: %d pages aired (%.1f/hour)\n",
		transmission, float64(transmission)/float64(*hours))
	distinct := len(freshAt)
	fmt.Printf("catalog coverage: %d/%d corpus pages aired at least once\n", distinct, len(pages))

	var cableRecv, airRecv []float64
	for _, l := range pop {
		if l.lossRate == 0 {
			cableRecv = append(cableRecv, float64(l.received))
		} else {
			airRecv = append(airRecv, float64(l.received))
		}
	}
	fmt.Printf("cable/tuner listeners (%d): pages received %s\n",
		len(cableRecv), stats.BoxplotOf(cableRecv))
	fmt.Printf("over-the-air listeners (%d): pages received %s\n",
		len(airRecv), stats.BoxplotOf(airRecv))
	fmt.Println("  (bitstream transport: one lost frame voids the page, so over-the-air")
	fmt.Println("   listeners need the cell transport — see DESIGN.md section 5a)")

	if len(requests) > 0 {
		rb := stats.BoxplotOf(requests)
		fmt.Printf("request-to-delivery latency (s): %s (n=%d)\n", rb, len(requests))
		fmt.Printf("  (median %.1f min; the SMS ack promises an ETA in this range)\n",
			rb.Median/60)
	} else {
		fmt.Println("no uplink requests were satisfied in the horizon")
	}
	wait := car.ExpectedWaitSeconds(payloadBps)
	fmt.Printf("carousel expected wait for a random popular page: %s\n",
		time.Duration(wait*float64(time.Second)).Round(time.Second))

	if reg != nil {
		snap := reg.Snapshot()
		if h, ok := snap.Histograms["request_to_on_air_seconds"]; ok && h.Count > 0 {
			fmt.Printf("lifecycle: request->on-air p50 %s p99 %s over %d traced requests\n",
				time.Duration(h.P50*float64(time.Second)).Round(time.Second),
				time.Duration(h.P99*float64(time.Second)).Round(time.Second), h.Count)
		}
		breaches := int64(0)
		for k, v := range snap.Counters {
			if name, _ := telemetry.ParseMetricKey(k); name == "lifecycle_slo_breach_total" {
				breaches += v
			}
		}
		fmt.Printf("lifecycle: %d SLO breaches (budgets: on-air %s, delivered %s)\n",
			breaches, *sloAir, *sloDeliv)
	}

	if reg != nil {
		// The discrete-event loop above models the channel analytically,
		// so run one real end-to-end page through every instrumented
		// stage to populate the per-stage spans, then
		// keep serving so the endpoint stays scrapeable.
		fmt.Println("telemetry: running instrumented end-to-end probe...")
		if err := obsprobe.Run(reg); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println("telemetry: probe complete; serving until interrupted (ctrl-C to exit)")
		select {}
	}
}

// probAllFrames is the probability all n frames survive at per-frame
// loss p.
func probAllFrames(p float64, n int) float64 {
	q := 1.0
	for i := 0; i < n; i++ {
		q *= 1 - p
		if q < 1e-12 {
			return 0
		}
	}
	return q
}
