package main

import (
	"fmt"
	"math/rand"
	"time"

	"sonic/internal/admission"
	"sonic/internal/broadcast"
	"sonic/internal/core"
	"sonic/internal/corpus"
)

// churn_day: closed loop, one worker. One tower replays H simulated
// hours of the whole-corpus √-policy carousel from 07:00 of a seeded
// day, the way `sonic-bench -day` does, over public calls: every slot
// resolves through server.RenderPage at its simulated air time (a cold
// render + SIC encode whenever the page changed since it last aired, a
// cache hit otherwise), is marshaled, and advances the clock by its
// airtime. An op is one transmission resolved. Starting in the morning
// keeps the hours in the part of the day where newsrooms publish, so
// most ops are misses: this workload runs the render path the way
// sms_storm does not.

// churnStride thins the traced run's budget: one op in churnStride is
// accounted layer by layer (replaying every miss would double the run).
const churnStride = 8

func runChurn(e *env) (*report, error) {
	rep := &report{budgetTitle: "churn_day, one transmission"}
	tr := e.tr
	rng := rand.New(rand.NewSource(e.seed))

	// --- set-up --------------------------------------------------------
	rg, err := newRig(e.sz, admission.Config{}, 0)
	if err != nil {
		return nil, err
	}
	base := 24*(1+rng.Intn(28)) + 7 // 07:00 on a seeded day
	var missMs []float64
	sizes, err := rg.renderCorpus(base, &missMs) // the morning cold build
	if err != nil {
		return nil, err
	}
	sizeOf := make(map[string]int, len(rg.pages))
	// seen mirrors the render cache's (url, effective hour) key, so the
	// harness knows which slots must render cold.
	seen := make(map[string]int, len(rg.pages))
	for i, ref := range rg.pages {
		sizeOf[ref.URL] = sizes[i]
		seen[ref.URL] = corpus.EffectiveHour(ref, base)
	}
	t0 := time.Now()
	car, err := broadcast.CorpusCarousel(rg.pages, func(ref corpus.PageRef, _ int) int { return sizeOf[ref.URL] }, broadcast.PolicySqrt)
	if err != nil {
		return nil, err
	}
	entries := car.Entries()
	hours := e.sz.ChurnHours
	sched := car.Schedule(4 * (hours + 1) * len(rg.pages))
	scheduleMs := float64(time.Since(t0)) / 1e6
	pageIdx := make(map[string]int, len(rg.pages))
	for i, ref := range rg.pages {
		pageIdx[ref.URL] = i
	}
	rep.inputDigest = newDigest("churn_day", base, hours, len(rg.pages))
	settle()
	rep.setup = time.Since(e.start)

	// --- timed region --------------------------------------------------
	missesBefore := rg.counter("server_render_cache_misses_total")
	var log []airing
	var hitNs, opMissMs []float64
	var bundleBytes float64
	predicted := 0
	horizon := float64(hours) * 3600
	simT := 0.0
	k := 0
	settledHour := base // set-up settled this one
	rep.m.start()
replay:
	for {
		for _, idx := range sched {
			if simT >= horizon {
				break replay
			}
			ref := entries[idx].Ref
			hour := base + int(simT/3600)
			eff := corpus.EffectiveHour(ref, hour)
			miss := seen[ref.URL] != eff
			rep.attempted++
			// On the hour — when the corpus publishes, and dozens of the
			// runtime's own two-minute collections after the last one on the
			// simulated clock — collect off the clock. Without it the
			// collector's pacing locks onto the op cycle in one of several
			// modes for a whole run, and identical runs differ by a quarter in
			// memory in use.
			if hour != settledHour {
				settledHour = hour
				rep.m.stop()
				settle()
				rep.m.start()
			}
			opStart := time.Now()
			root := tr.begin("op", 0, k)
			var b core.Bundle
			rs := tr.begin("server.render", root, k)
			b, err = rg.srv.RenderPage(ref.URL, rg.at(base, simT))
			tr.end(rs)
			if err != nil {
				// nothing to air and no airtime to advance the clock by
				rep.m.stop()
				return nil, fmt.Errorf("%s at hour %d: %w", ref.URL, hour, err)
			}
			renderNs := float64(time.Since(opStart))
			var n int
			tr.do("core.marshal", root, k, func() { n = len(core.MarshalBundle(b)) })
			air := rg.pipe.AirtimeSeconds(n)
			tr.end(root)
			rep.opWallMs = append(rep.opWallMs, float64(time.Since(opStart))/1e6)

			if miss {
				seen[ref.URL] = eff
				predicted++
				opMissMs = append(opMissMs, renderNs/1e6)
			} else {
				hitNs = append(hitNs, renderNs)
			}
			// Traced: every churnStride-th hit and every churnStride-th miss
			// enter the budget, so it keeps the mix of the whole run; a
			// sampled miss is replayed layer by layer, off the clock (a hit
			// has nothing hidden in it).
			if tr.on() {
				if miss && predicted%churnStride == 1 {
					rep.m.stop()
					staged, err := stagedRender(tr, rs, k, ref, hour, rg.cfg.Quality)
					if err != nil || !bundlesEqual(staged, b) {
						rep.fail(1, "%s at hour %d: staged render differs from the server's bundle (err=%v)", ref.URL, hour, err)
					}
					tr.markBudget(root, 0)
					rep.m.start()
				} else if !miss && len(hitNs)%churnStride == 1 {
					tr.markBudget(root, 0)
				}
			}
			log = append(log, airing{page: pageIdx[ref.URL], start: simT, end: simT + air})
			rep.airS = append(rep.airS, air)
			bundleBytes += float64(n)
			simT += air
			rep.ops++
			k++
		}
	}
	rep.m.stop()

	// --- verification --------------------------------------------------
	// The server must have rendered cold exactly where the corpus's churn
	// model says content changed, and nowhere else.
	if got := int(rg.counter("server_render_cache_misses_total") - missesBefore); got != predicted {
		rep.fail(abs(got-predicted), "server rendered %d pages cold, corpus.EffectiveHour predicts %d", got, predicted)
	}
	weights := make([]float64, len(rg.pages))
	for i, ref := range rg.pages {
		weights[i] = corpus.PopularityWeight(ref)
	}
	rep.onAirS, rep.unserved = listenerWaits(rng, log, weights, horizon/2, e.sz.Listeners)

	// --- per-layer -----------------------------------------------------
	st := newSpanStats(tr.snapshot())
	rep.set("server.render_hit_ns", mean(hitNs))
	rep.set("server.render_miss_ms", mean(opMissMs))
	rep.set("server.render_misses", float64(predicted))
	rep.set("webrender.generate_ms", st.perCall("webrender.generate")/1e6)
	rep.set("webrender.raster_ms", st.perCall("webrender.raster")/1e6)
	rep.set("imagecodec.sic_encode_ms", st.perCall("imagecodec.sic_encode")/1e6)
	rep.set("imagecodec.bundle_bytes", bundleBytes/float64(max(rep.ops, 1)))
	rep.set("core.marshal_us", st.perCall("core.marshal")/1e3)
	rep.set("broadcast.schedule_ms", scheduleMs)
	rep.set("broadcast.transmissions", float64(rep.ops))
	rep.set("airtime.on_air_s", mean(rep.airS))
	rep.set("airtime.utilization", 1) // a carousel is always on air
	rep.set("airtime.oversubscription", 1)
	rep.budgetRows = []budgetRow{
		{Label: "render: generate", Span: "webrender.generate"},
		{Label: "render: raster", Span: "webrender.raster"},
		{Label: "render: SIC encode", Span: "imagecodec.sic_encode"},
		{Label: "render: click map", Span: "clickmap.marshal"},
		{Label: "server (render, self)", Span: "server.render"},
		{Label: "marshal", Span: "core.marshal"},
		{Label: "airtime", SimS: mean(rep.airS)},
	}
	return rep, nil
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
