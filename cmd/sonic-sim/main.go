// Command sonic-sim runs a day-scale discrete-event simulation of a
// SONIC deployment: a transmitter broadcasting the corpus carousel, a
// population of listeners with the paper's three capability classes
// (Figure 3), hourly content churn, and SMS requests from uplink users.
// It reports what such a deployment actually delivers: catalog
// freshness, per-user pages received, request latency. Pages air at the
// sizes the server renders at hour 0 (experiments.PageSizes), each for
// the pipeline's airtime spread over the station's frequencies.
//
//	sonic-sim -hours 24 -listeners 200 -frequencies 1
//
// With -telemetry :7380 it also serves the live ops endpoint
// (/metrics in the Prometheus text format, /metrics.json,
// /debug/pprof) and stays alive for scraping after the report. The
// endpoint holds what the simulation recorded and nothing else: the
// request lifecycle families and the carousel families.
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
	"sonic/internal/experiments"
	"sonic/internal/frame"
	"sonic/internal/stats"
	"sonic/internal/telemetry"
)

func main() {
	var (
		hours     = flag.Int("hours", 24, "simulated hours")
		listeners = flag.Int("listeners", 200, "listener population")
		freqs     = flag.Int("frequencies", 1, "parallel FM frequencies (1, 2, 4: the paper's 10/20/40 kbps)")
		uplinkPct = flag.Int("uplink", 20, "percent of listeners with SMS uplink (user-C)")
		seed      = flag.Int64("seed", 1, "simulation seed")
		telAddr   = flag.String("telemetry", "", "serve the ops endpoint (/metrics Prometheus text, /metrics.json, /debug/pprof) on this address, e.g. :7380; keeps the process alive after the report")
		sloAir    = flag.Duration("slo-on-air", 45*time.Minute, "request->on-air SLO budget (0 disables the evaluator)")
		sloDeliv  = flag.Duration("slo-delivered", time.Hour, "request->delivered SLO budget (0 disables the evaluator)")
	)
	flag.Parse()
	if *freqs < 1 {
		fmt.Fprintln(os.Stderr, "sonic-sim: -frequencies must be at least 1")
		os.Exit(2)
	}

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
	rng := rand.New(rand.NewSource(*seed))
	pages := corpus.Pages()

	size, err := experiments.PageSizes(pages)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	car, err := broadcast.CorpusCarousel(pages, size, broadcast.PolicySqrt)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	car.Instrument(reg, pipe, *freqs)

	// Listener state: uplink, reception setup and pages received.
	type listener struct {
		uplink   bool
		lossRate float64 // per-frame loss of their reception setup
		received int
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
	// holds the station for the pipeline's airtime over its frequencies;
	// listeners capture it if no frame of the bitstream is lost
	// (bitstream transport: all or nothing per page).
	sched := car.Schedule(100000)
	entries := car.Entries()
	var (
		simT         float64 // seconds
		horizonS     = float64(*hours) * 3600
		transmission int
		freshAt      = map[string]int{} // url -> hour of content last aired
		requests     []float64          // request-to-delivery latencies
		pending      = map[string][]pendingReq{}
		captured     = make([]bool, len(pop)) // who captured the current airing
	)
	for _, idx := range sched {
		if simT >= horizonS {
			break
		}
		e := entries[idx]
		hour := int(simT / 3600)
		air := pipe.AirtimeSeconds(e.Bytes) / float64(*freqs)
		airStart := simT
		simT += air
		transmission++
		freshAt[e.Ref.URL] = hour

		// Deliveries.
		frames := (e.Bytes + frame.PayloadSize - 1) / frame.PayloadSize
		for i := range pop {
			captured[i] = pop[i].lossRate == 0 || rng.Float64() < probAllFrames(pop[i].lossRate, frames)
			if captured[i] {
				pop[i].received++
			}
		}
		pending[e.Ref.URL], requests = serveAiring(pending[e.Ref.URL], airStart, simT, captured, requests)

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
				pending[ref.URL] = append(pending[ref.URL], pendingReq{who: who, t0: simT, tr: tr})
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
	fmt.Printf("sonic-sim: %d h, %d FM frequency(ies) (net %.1f kbps page goodput), %d listeners (%d%% uplink)\n",
		*hours, *freqs, pipe.NetGoodputBps()*float64(*freqs)/1000, *listeners, *uplinkPct)
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
	fmt.Println("  (bitstream transport: one lost frame voids the page, so an over-the-air")
	fmt.Println("   listener waits for an airing they capture whole — see DESIGN.md section 5a)")

	if len(requests) > 0 {
		rb := stats.BoxplotOf(requests)
		fmt.Printf("request-to-delivery latency (s): %s (n=%d)\n", rb, len(requests))
		fmt.Printf("  (median %.1f min; the SMS ack promises an ETA in this range)\n",
			rb.Median/60)
	} else {
		fmt.Println("no uplink requests were satisfied in the horizon")
	}
	wait := car.ExpectedWaitSeconds(pipe, *freqs)
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
		fmt.Println("telemetry: report complete; serving until interrupted (ctrl-C to exit)")
		select {}
	}
}

// simTime is the clock lifecycle traces are stamped in: second 0 of the
// sim is the Unix epoch, so request→on-air latencies land on the
// histograms at their simulated (minutes-scale) values.
func simTime(s float64) time.Time {
	return time.Unix(0, 0).Add(time.Duration(s * float64(time.Second)))
}

// pendingReq is an uplink request: who asked, when, and its trace.
type pendingReq struct {
	who int
	t0  float64
	tr  *telemetry.Trace
}

// serveAiring settles the requests pending on one airing of their page,
// from start to end (simulated seconds). A request is on air from its
// first airing (the first stamp wins) but delivered, with its latency
// appended, only at an airing its requester captured; the rest stay
// pending.
func serveAiring(reqs []pendingReq, start, end float64, captured []bool, latencies []float64) ([]pendingReq, []float64) {
	kept := reqs[:0]
	for _, p := range reqs {
		p.tr.StampAt(telemetry.StageOnAirStart, simTime(start))
		p.tr.StampAt(telemetry.StageOnAirDone, simTime(end))
		if !captured[p.who] {
			kept = append(kept, p)
			continue
		}
		latencies = append(latencies, end-p.t0)
		p.tr.StampAt(telemetry.StageDelivered, simTime(end))
	}
	return kept, latencies
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
