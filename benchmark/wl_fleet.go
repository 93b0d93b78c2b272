package main

import (
	"math"
	"math/rand"
	"slices"
	"time"

	"sonic/internal/admission"
	"sonic/internal/artifact"
	"sonic/internal/broadcast"
	"sonic/internal/core"
	"sonic/internal/corpus"
)

// fleet_rotation: closed loop, two workers. T towers each air one
// simulated hour of the same √-policy rotation of eight pages through
// broadcast.RunFleet over one shared artifact.Chain at its default
// 256 MiB cap. An op is one transmission aired. Render is on the hit
// path (set-up rendered the corpus), so what is timed is the chain —
// hit, miss, evict — with marshal, FEC framing and modulation behind it.
// Eight pages of ~60 MB audio each do not fit the cap, which is the
// point: this is the configuration a deployed server runs.

// fleetDemand is the request mix every tower reports: Zipf(1.1) counts
// over the rotation's pages in the order given. Giving every tower the
// same measured demand keeps the towers' schedules identical (as they
// are without demand) while making the rotation's shape independent of
// which corpus ranks the draw happened to pick.
func fleetDemand(pages []corpus.PageRef) map[string]float64 {
	d := make(map[string]float64, len(pages))
	for k, ref := range pages {
		d[ref.URL] = math.Round(1000 / math.Pow(float64(k+1), 1.1))
	}
	return d
}

func runFleet(e *env) (*report, error) {
	rep := &report{budgetTitle: "fleet_rotation, one RunFleet call"}
	tr := e.tr
	rng := rand.New(rand.NewSource(e.seed))

	// --- set-up --------------------------------------------------------
	rg, err := newRig(e.sz, admission.Config{}, 0)
	if err != nil {
		return nil, err
	}
	var missMs []float64
	corpusSizes, err := rg.renderCorpus(0, &missMs)
	if err != nil {
		return nil, err
	}
	// Demand falls with a page's position, and the middle size classes
	// come first, so the pages that air most are of middling size whatever
	// the seed: the seed chooses the pages, not the shape of the rotation.
	picks := middleOut(stratified(rng, corpusSizes, e.sz.FleetPages))
	pages := make([]corpus.PageRef, len(picks))
	for i, pi := range picks {
		pages[i] = rg.pages[pi]
	}
	demand := fleetDemand(pages)
	chain := artifact.NewChain(rg.pipe, 0)
	chain.Instrument(rg.reg)
	rep.inputDigest = newDigest("fleet_rotation", picks, e.sz.FleetTowers)

	root := 0
	render := func(ref corpus.PageRef, hour int) (core.Bundle, error) {
		id := tr.begin("server.render_hit", root, 0)
		b, err := rg.srv.RenderPage(ref.URL, rg.at(hour, 0))
		tr.end(id)
		return b, err
	}
	cfg := broadcast.FleetConfig{
		Towers:  e.sz.FleetTowers,
		Workers: 2,
		Hours:   1,
		Pages:   pages,
		Policy:  broadcast.PolicySqrt,
		Chain:   chain,
		Render:  render,
		Demand:  func(int) map[string]float64 { return demand },
	}
	settle()
	rep.setup = time.Since(e.start)

	// --- timed region --------------------------------------------------
	missesBefore := rg.counter("server_render_cache_misses_total")
	rep.m.start()
	root = tr.begin("op", 0, 0)
	res, err := broadcast.RunFleet(cfg)
	tr.end(root)
	rep.m.stop()
	if err != nil {
		return nil, err
	}
	rep.ops = res.Transmissions
	rep.attempted = res.Transmissions

	// --- the schedule, replayed from the layer's public calls -----------
	// RunFleet reports totals per tower; the order pages went on air in is
	// rebuilt here the way runTower builds it, and must land on the same
	// totals to the last bit.
	sizeOf := map[string]int{}
	for i, pi := range picks {
		sizeOf[pages[i].URL] = corpusSizes[pi]
	}
	var log []airing
	t0 := time.Now()
	car, err := broadcast.MeasuredCarousel(pages, func(ref corpus.PageRef, _ int) int { return sizeOf[ref.URL] }, demand, broadcast.PolicySqrt)
	if err != nil {
		return nil, err
	}
	entries := car.Entries()
	sched := car.Schedule(4 * (cfg.Hours + 1) * len(pages))
	scheduleMs := float64(time.Since(t0)) / 1e6
	pageIdx := map[string]int{}
	for i, ref := range pages {
		pageIdx[ref.URL] = i
	}
	simT, horizon := 0.0, float64(cfg.Hours)*3600
replay:
	for {
		for _, idx := range sched {
			if simT >= horizon {
				break replay
			}
			air := rg.pipe.AirtimeSeconds(entries[idx].Bytes)
			log = append(log, airing{page: pageIdx[entries[idx].Ref.URL], start: simT, end: simT + air})
			simT += air
		}
	}
	for _, tw := range res.Towers {
		if tw.Transmissions != len(log) || tw.AirSeconds != simT {
			rep.fail(tw.Transmissions, "tower %d: RunFleet aired %d transmissions over %.6fs, replayed schedule %d over %.6fs",
				tw.Tower, tw.Transmissions, tw.AirSeconds, len(log), simT)
		}
		for _, a := range log {
			rep.airS = append(rep.airS, a.end-a.start)
		}
	}

	// The audience: every tower airs the same schedule, so one log serves
	// them all. Listeners tune in during the first half hour.
	weights := make([]float64, len(pages))
	for i, ref := range pages {
		weights[i] = demand[ref.URL] + corpus.PopularityWeight(ref)
	}
	rep.onAirS, rep.unserved = listenerWaits(rng, log, weights, horizon/2, e.sz.Listeners)

	// --- verification: the chain's audio is the pipeline's audio --------
	sample := rng.Intn(len(pages))
	ref := pages[sample]
	bundle, err := rg.srv.RenderPage(ref.URL, rg.at(0, 0))
	if err != nil {
		return nil, err
	}
	key := chain.Key(ref.URL, corpus.EffectiveHour(ref, 0), uint16(sample+1))
	got, err := chain.Audio(key, func() (core.Bundle, error) { return bundle, nil })
	if err != nil {
		return nil, err
	}
	want, err := rg.pipe.EncodePageAudio(uint16(sample+1), bundle)
	if err != nil || !slices.Equal(got, want) {
		rep.fail(res.Transmissions, "%s: chain audio differs from Pipeline.EncodePageAudio (err=%v)", ref.URL, err)
	}
	if misses := rg.counter("server_render_cache_misses_total") - missesBefore; misses != 0 {
		rep.fail(int(misses), "%d renders missed in the timed region; set-up should have left none", misses)
	}

	// --- per-layer -----------------------------------------------------
	rep.set("server.render_hit_ns", newSpanStats(tr.snapshot()).perCall("server.render_hit"))
	rep.set("server.render_miss_ms", mean(missMs))
	if tr.on() {
		// Unit costs of the chain's three stages, replayed on every page
		// of the rotation; the chain's own counters say how often each ran.
		var hitUs, chainMissMs []float64
		var bundleBytes, streamBytes float64
		for i, ref := range pages {
			b, err := rg.srv.RenderPage(ref.URL, rg.at(0, 0))
			if err != nil {
				return nil, err
			}
			k := chain.Key(ref.URL, corpus.EffectiveHour(ref, 0), uint16(i+1))
			for call := 0; call < 2; call++ {
				before := chain.Stats().Audio.Misses
				t0 := time.Now()
				if _, err := chain.Audio(k, func() (core.Bundle, error) { return b, nil }); err != nil {
					return nil, err
				}
				d := float64(time.Since(t0))
				if chain.Stats().Audio.Misses > before {
					chainMissMs = append(chainMissMs, d/1e6)
				} else {
					hitUs = append(hitUs, d/1e3)
				}
			}
			blob, stream, _, err := stagedEncode(tr, 0, -1-i, rg.pipe, uint16(i+1), b)
			if err != nil {
				return nil, err
			}
			bundleBytes += float64(len(blob))
			streamBytes += float64(len(stream))
		}
		rep.set("artifact.hit_us", mean(hitUs))
		rep.set("artifact.miss_ms", mean(chainMissMs))
		unit := newSpanStats(tr.snapshot())
		now := time.Now()
		for _, u := range []struct {
			name  string
			times int64
		}{
			{"core.marshal", res.Cache.Blob.Misses},
			{"frame.fec_encode", res.Cache.Stream.Misses},
			{"modem.modulate", res.Cache.Audio.Misses},
		} {
			tr.add(span{Parent: root, Op: 0, Name: u.name, Replay: true, Times: float64(u.times)},
				now, time.Duration(unit.perCall(u.name)))
		}
		tr.markBudget(root, res.Transmissions)
		rep.set("core.marshal_us", unit.perCall("core.marshal")/1e3)
		rep.set("frame.fec_encode_ms", unit.perCall("frame.fec_encode")/1e6)
		rep.set("modem.modulate_ms", unit.perCall("modem.modulate")/1e6)
		rep.set("imagecodec.bundle_bytes", bundleBytes/float64(len(pages)))
		if bundleBytes > 0 {
			rep.set("frame.stream_expansion", streamBytes/bundleBytes)
		}
	}
	var audioSamples int64
	for _, tw := range res.Towers {
		audioSamples += tw.AudioSamples
	}
	rep.set("modem.audio_mb_per_page", float64(audioSamples*8)/float64(max(res.Transmissions, 1))/1e6)
	setArtifactStats(rep, artifact.Stats{}, res.Cache)
	rep.set("broadcast.schedule_ms", scheduleMs)
	rep.set("broadcast.transmissions", float64(res.Transmissions))
	rep.set("airtime.on_air_s", mean(rep.airS))
	rep.set("airtime.utilization", 1) // a carousel is always on air
	rep.set("airtime.oversubscription", 1)
	rep.budgetRows = []budgetRow{
		{Label: "render (hit)", Span: "server.render_hit"},
		{Label: "marshal x blob misses", Span: "core.marshal"},
		{Label: "FEC encode x stream misses", Span: "frame.fec_encode"},
		{Label: "modulate x audio misses", Span: "modem.modulate"},
		{Label: "airtime", SimS: mean(rep.airS)},
	}
	return rep, nil
}
