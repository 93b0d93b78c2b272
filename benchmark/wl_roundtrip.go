package main

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"sonic/internal/admission"
	"sonic/internal/client"
	"sonic/internal/core"
	"sonic/internal/corpus"
	"sonic/internal/fm"
	"sonic/internal/frame"
	"sonic/internal/imagecodec"
	"sonic/internal/routing"
	"sonic/internal/server"
	"sonic/internal/sms"
	"sonic/internal/telemetry"
)

// page_roundtrip: closed loop, one client. Each op is one page from the
// listener's SMS to the pixels on their 720 px screen, every stage cold:
//
//	client.Request -> SMSC -> server.HandleSMS (synchronous path: parse,
//	route, render, enqueue) -> DequeueAudioAt (marshal, FEC, modulate) ->
//	fm.CableLink -> DecodePageAudio -> client.HandleBroadcast -> Open
//
// The pages are a seeded draw from the middle of the corpus's size range
// (see middling).

// uplink wraps the server's SMS handler so the harness sees each
// delivery: when it happened on the simulated clock, and — traced — how
// long the handler ran, as a span inside the SMSC.Advance that called it.
type uplink struct {
	handle    sms.Handler
	tr        *tracer
	parent    int // the Advance span deliveries nest under
	op        int
	delivered *sms.Message
	span      int // the last handler span
}

func (u *uplink) deliver(m sms.Message) {
	u.span = u.tr.begin("server.handle_sms", u.parent, u.op)
	u.handle(m)
	u.tr.end(u.span)
	u.delivered = &m
}

func runRoundtrip(e *env) (*report, error) {
	rep := &report{budgetTitle: "page_roundtrip, request -> delivered", enforce: true}
	rng := rand.New(rand.NewSource(e.seed))

	// --- set-up --------------------------------------------------------
	rg, err := newRig(e.sz, admission.Config{}, 0)
	if err != nil {
		return nil, err
	}
	tower := server.Transmitter{ID: "tx-khi", FreqMHz: 93.7, Lat: 24.86, Lon: 67.00, RadiusKm: 40}
	rg.srv.AddTransmitter(tower)
	index := routing.Build([]routing.Tower{{ID: tower.ID, Lat: tower.Lat, Lon: tower.Lon, RadiusKm: tower.RadiusKm}})

	smsc := sms.NewSMSC(time.Second, 5*time.Second, e.seed)
	up := &uplink{handle: rg.srv.HandleSMS(smsc)}
	smsc.Register(rg.cfg.Number, up.deliver)
	ccfg := client.Config{
		Number: "+923001234567", SonicNumber: rg.cfg.Number, ScreenWidth: 720,
		// anywhere within ±0.2° of the tower is well inside its 40 km disc
		Lat: tower.Lat + (rng.Float64()-0.5)*0.4, Lon: tower.Lon + (rng.Float64()-0.5)*0.4,
		Capability: client.UplinkSMS,
	}
	cl := client.New(ccfg)
	cl.AttachSMSC(smsc)
	cl.Instrument(rg.reg)

	var missMs []float64
	sizes, err := rg.renderCorpus(0, &missMs)
	if err != nil {
		return nil, err
	}
	picks := middling(rng, sizes, e.sz.RoundtripPages)
	// the warm-up page is the corpus's smallest whatever the seed: it takes
	// the lazy initialisation of every layer out of the first op at the
	// least cost to set-up, and the same cost on every seed
	warm := bySize(sizes)[0]
	rg.srv.FlushRenderCache() // the ops render cold
	rep.inputDigest = newDigest("page_roundtrip", picks, warm, ccfg.Lat, ccfg.Lon)

	rate := core.DefaultConfig().Modem.SampleRate
	scale := cl.ScalingFactor()
	now := rg.cfg.Epoch
	var uplinkS, queueS []float64
	var hitNs, artifactHitUs []float64
	var bundleBytes, streamBytes, audioBytes, framesLost, framesTotal float64

	// one page, SMS to screen; timed and verified when rec is true
	runOp := func(tr *tracer, k int, ref corpus.PageRef, rec bool) error {
		url := ref.URL
		up.tr, up.op, up.delivered = tr, k, nil
		if rec {
			// Ops are minutes apart on the simulated clock (airtime alone is
			// ~160 s), longer than the two minutes after which the runtime
			// collects on its own; the harness's wall clock skips that gap.
			settle()
			rep.m.start()
		}
		root := tr.begin("op", 0, k)
		sent := now
		var rerr error
		tr.do("client.request", root, k, func() { rerr = cl.Request(url, now) })
		if rerr != nil {
			return rerr
		}
		for ticks := 0; up.delivered == nil; ticks++ {
			if ticks > 10 {
				return errors.New("request never delivered")
			}
			now = now.Add(time.Second)
			up.parent = tr.begin("sms.smsc_deliver", root, k)
			smsc.Advance(now)
			tr.end(up.parent)
		}
		handleSpan, deliveredAt := up.span, up.delivered.DeliverAt
		body := up.delivered.Body

		var audio []float64
		var gotURL string
		var ok bool
		dq := tr.begin("server.dequeue_audio", root, k)
		gotURL, audio, ok, rerr = rg.srv.DequeueAudioAt(tower.ID, now)
		tr.end(dq)
		if rerr != nil || !ok || gotURL != url {
			return fmt.Errorf("dequeue %s: got %q ok=%v err=%v", url, gotURL, ok, rerr)
		}
		onAir := now
		air := float64(len(audio)) / float64(rate)

		var rx []float64
		tr.do("fm.link", root, k, func() { rx = fm.CableLink{}.Transmit(audio, rate) })

		// Untraced, the receiver is the composite DecodePageAudio. Traced,
		// it is the same four layers called one by one.
		var bundle core.Bundle
		var pageID uint16
		lost, total := 0, 0
		if !tr.on() {
			res, err := rg.pipe.DecodePageAudio(rx)
			if err != nil || !res.Complete {
				return fmt.Errorf("decode %s: complete=%v err=%v", url, res != nil && res.Complete, err)
			}
			bundle, pageID, lost, total = res.Bundle, res.PageID, res.FramesLost, res.FramesTotal
		} else {
			var payload []byte
			tr.do("modem.demodulate", root, k, func() {
				dem, err := rg.pipe.Modem().Demodulate(rx)
				if err != nil {
					rerr = err
					return
				}
				payload = dem.Payload
			})
			if rerr != nil {
				return rerr
			}
			var frames []*frame.Frame
			tr.do("frame.fec_decode", root, k, func() { frames, lost = rg.pipe.Codec().DecodeStream(payload) })
			if len(frames) == 0 {
				return fmt.Errorf("decode %s: no frames", url)
			}
			var blob []byte
			tr.do("frame.reassemble", root, k, func() {
				pageID = frames[0].PageID
				r := frame.NewReassembler(pageID)
				for _, f := range frames {
					r.Add(f)
				}
				total = r.Total()
				blob, ok = r.Bytes()
			})
			if !ok {
				return fmt.Errorf("decode %s: %d of %d frames", url, len(frames), total)
			}
			tr.do("core.unmarshal", root, k, func() { bundle, rerr = core.UnmarshalBundle(blob) })
			if rerr != nil {
				return rerr
			}
		}

		done := onAir.Add(time.Duration(air * float64(time.Second)))
		up.parent = tr.begin("sms.smsc_deliver", root, k)
		smsc.Advance(done) // the ack reaches the client while the page is on air
		tr.end(up.parent)
		tr.do("client.handle_broadcast", root, k, func() {
			cl.HandleBroadcast(url, bundle, done, rg.srv.PageTTL(), corpus.PopularityWeight(ref))
		})
		var page *client.Page
		open := tr.begin("client.open", root, k)
		page, rerr = cl.Open(url, done)
		tr.end(open)
		tr.end(root)
		if rerr != nil {
			return rerr
		}
		now = done.Add(10 * time.Second)
		if !rec {
			return nil
		}
		wall, cpu := rep.m.stop()
		rep.opWallMs = append(rep.opWallMs, float64(wall)/1e6)
		rep.opCPUs = append(rep.opCPUs, cpu.Seconds())
		tr.markBudget(root, 0)
		rep.ops++

		// --- verification and replays, between ops and off the clock ----
		uplinkS = append(uplinkS, deliveredAt.Sub(sent).Seconds())
		queueS = append(queueS, onAir.Sub(deliveredAt).Seconds())
		rep.onAirS = append(rep.onAirS, done.Sub(deliveredAt).Seconds())
		framesLost += float64(lost)
		framesTotal += float64(total)

		t0 := time.Now()
		want, err := rg.srv.RenderPage(url, onAir)
		hitNs = append(hitNs, float64(time.Since(t0)))
		if err != nil || !bundlesEqual(want, bundle) {
			rep.fail(1, "%s: received bundle differs from the server's (err=%v)", url, err)
		}
		blobLen := len(core.MarshalBundle(want))
		rep.airS = append(rep.airS, rg.pipe.AirtimeSeconds(blobLen))
		if rg.pipe.AirtimeSeconds(blobLen) != air {
			rep.fail(1, "%s: scheduled airtime %.6fs, burst lasts %.6fs", url, rg.pipe.AirtimeSeconds(blobLen), air)
		}
		bundleBytes += float64(blobLen)
		audioBytes += float64(len(audio) * 8)

		var full, ref720 *imagecodec.Raster
		tr.replay("imagecodec.sic_decode", open, k, func() { full, err = imagecodec.DecodeSIC(bundle.Image) })
		if err == nil {
			tr.replay("imagecodec.resize", open, k, func() { ref720 = full.ResizeNearest(scale) })
		}
		if ref720 == nil || !ref720.Equal(page.Image) {
			rep.fail(1, "%s: opened raster differs from DecodeSIC+ResizeNearest (err=%v)", url, err)
		}

		t0 = time.Now()
		if _, err := rg.srv.PageAudio(url, onAir); err == nil {
			artifactHitUs = append(artifactHitUs, float64(time.Since(t0))/1e3)
		}
		if !tr.on() {
			return nil
		}
		tr.replay("sms.format_parse", handleSpan, k, func() {
			req, err := sms.ParseRequest(body)
			if err != nil || sms.FormatRequest(req) != body {
				rep.fail(1, "%s: request body does not survive parse+format", url)
			}
		})
		tr.replay("routing.lookup", handleSpan, k, func() {
			if t, _, ok := index.Lookup(ccfg.Lat, ccfg.Lon); !ok || t.ID != tower.ID {
				rep.fail(1, "%s: routing replay missed the tower", url)
			}
		})
		staged, err := stagedRender(tr, handleSpan, k, ref, 0, rg.cfg.Quality)
		if err != nil || !bundlesEqual(staged, want) {
			rep.fail(1, "%s: staged render differs from the server's bundle (err=%v)", url, err)
		}
		tr.replay("core.marshal", handleSpan, k, func() { _ = core.MarshalBundle(want) })
		// the op encoded on a settled heap; so does its replay, or the 65 MB
		// of audio land on fresh pages and modulate reads a third dearer
		settle()
		_, stream, audio2, err := stagedEncode(tr, dq, k, rg.pipe, pageID, want)
		if err != nil || !slices.Equal(audio2, audio) {
			rep.fail(1, "%s: staged encode differs from the dequeued audio (err=%v)", url, err)
		}
		streamBytes += float64(len(stream))
		if k == 0 || k == e.sz.RoundtripPages-1 {
			res, err := rg.pipe.DecodePageAudio(rx)
			if err != nil || !res.Complete || !bundlesEqual(res.Bundle, bundle) || res.FramesLost != lost || res.PageID != pageID {
				rep.fail(1, "%s: staged receive path differs from DecodePageAudio (err=%v)", url, err)
			}
		}
		return nil
	}

	if e.sz.WarmUp {
		if err := runOp(nil, -1, rg.pages[warm], false); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	rep.setup = time.Since(e.start)

	// --- timed region --------------------------------------------------
	before := rg.srv.ArtifactStats()
	missesBefore := rg.counter("server_render_cache_misses_total")
	enqBefore := rg.counter("server_pages_enqueued_total")
	for k, pi := range picks {
		rep.attempted++
		if err := runOp(e.tr, k, rg.pages[pi], true); err != nil {
			rep.m.stop()
			rep.fail(1, "op %d: %v", k, err)
		}
	}

	// every request must have been confirmed delivered by the client
	delivered := rg.reg.Histogram("request_to_delivered_seconds", telemetry.WaitBuckets).Count()
	wantDelivered := int64(rep.ops)
	if e.sz.WarmUp {
		wantDelivered++
	}
	if delivered != wantDelivered {
		rep.fail(1, "lifecycle saw %d deliveries, harness %d", delivered, wantDelivered)
	}

	// --- per-layer -----------------------------------------------------
	n := float64(max(rep.ops, 1))
	st := newSpanStats(e.tr.snapshot())
	after := rg.srv.ArtifactStats()
	rep.set("sms.format_parse_ns", st.perCall("sms.format_parse"))
	rep.set("sms.smsc_deliver_ns", st.selfTotal("sms.smsc_deliver")/n)
	rep.set("routing.lookup_ns", st.perCall("routing.lookup"))
	rep.set("server.handle_sms_us", st.perCall("server.handle_sms")/1e3)
	rep.set("server.render_hit_ns", mean(hitNs))
	rep.set("server.render_miss_ms", mean(missMs))
	rep.set("server.render_misses", float64(rg.counter("server_render_cache_misses_total")-missesBefore))
	// the stages are replayed on a settled heap and may come out dearer than
	// inside the call; the budget reports that as over-attribution
	rep.set("server.dequeue_us", max(0, st.selfPerCall("server.dequeue_audio")/1e3))
	rep.set("server.enqueued", float64(rg.counter("server_pages_enqueued_total")-enqBefore))
	rep.set("server.requests_per_broadcast", 1)
	rep.set("server.peak_queue_pages", 1)
	rep.set("webrender.generate_ms", st.perCall("webrender.generate")/1e6)
	rep.set("webrender.raster_ms", st.perCall("webrender.raster")/1e6)
	rep.set("imagecodec.sic_encode_ms", st.perCall("imagecodec.sic_encode")/1e6)
	rep.set("imagecodec.sic_decode_ms", st.selfPerCall("imagecodec.sic_decode")/1e6)
	rep.set("imagecodec.bundle_bytes", bundleBytes/n)
	rep.set("core.marshal_us", st.perCall("core.marshal")/1e3)
	rep.set("core.unmarshal_us", st.perCall("core.unmarshal")/1e3)
	rep.set("frame.fec_encode_ms", st.perCall("frame.fec_encode")/1e6)
	rep.set("frame.fec_decode_ms", st.perCall("frame.fec_decode")/1e6)
	if bundleBytes > 0 {
		rep.set("frame.stream_expansion", streamBytes/bundleBytes)
	}
	if framesTotal > 0 {
		rep.set("frame.frames_lost_share", framesLost/framesTotal)
	}
	rep.set("modem.modulate_ms", st.perCall("modem.modulate")/1e6)
	rep.set("modem.demodulate_ms", st.perCall("modem.demodulate")/1e6)
	rep.set("modem.audio_mb_per_page", audioBytes/n/1e6)
	rep.set("fm.link_ms", st.perCall("fm.link")/1e6)
	rep.set("artifact.hit_us", mean(artifactHitUs))
	rep.set("artifact.miss_ms", st.perCall("server.dequeue_audio")/1e6)
	setArtifactStats(rep, before, after)
	rep.set("broadcast.transmissions", float64(rep.ops))
	rep.set("client.handle_broadcast_us", st.perCall("client.handle_broadcast")/1e3)
	rep.set("client.open_ms", st.perCall("client.open")/1e6)
	rep.set("airtime.sms_uplink_s", mean(uplinkS))
	rep.set("airtime.queue_wait_s", mean(queueS))
	rep.set("airtime.on_air_s", mean(rep.airS))
	// one tower, one page at a time: the channel is busy while a page is
	// on air and idle while the next request travels
	var airSum float64
	for _, a := range rep.airS {
		airSum += a
	}
	if span := now.Sub(rg.cfg.Epoch).Seconds(); span > 0 {
		rep.set("airtime.utilization", airSum/span)
		rep.set("airtime.oversubscription", airSum/span)
	}

	rep.budgetRows = []budgetRow{
		{Label: "sms uplink wait", SimS: mean(uplinkS)},
		{Label: "sms format + submit", Span: "client.request"},
		{Label: "smsc deliver", Span: "sms.smsc_deliver"},
		{Label: "parse", Span: "sms.format_parse"},
		{Label: "route", Span: "routing.lookup"},
		{Label: "render: generate", Span: "webrender.generate"},
		{Label: "render: raster", Span: "webrender.raster"},
		{Label: "render: SIC encode", Span: "imagecodec.sic_encode"},
		{Label: "render: click map", Span: "clickmap.marshal"},
		{Label: "marshal", Span: "core.marshal"},
		{Label: "server (handle_sms, self)", Span: "server.handle_sms"},
		{Label: "FEC encode", Span: "frame.fec_encode"},
		{Label: "modulate", Span: "modem.modulate"},
		{Label: "server+artifact (dequeue, self)", Span: "server.dequeue_audio"},
		{Label: "queue wait", SimS: mean(queueS)},
		{Label: "airtime", SimS: mean(rep.airS)},
		{Label: "link", Span: "fm.link"},
		{Label: "demodulate", Span: "modem.demodulate"},
		{Label: "FEC decode", Span: "frame.fec_decode"},
		{Label: "reassemble", Span: "frame.reassemble"},
		{Label: "unmarshal", Span: "core.unmarshal"},
		{Label: "client cache", Span: "client.handle_broadcast"},
		{Label: "SIC decode", Span: "imagecodec.sic_decode"},
		{Label: "display (resize)", Span: "imagecodec.resize"},
		{Label: "client (open, self)", Span: "client.open"},
	}
	return rep, nil
}
