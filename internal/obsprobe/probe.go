// Package obsprobe exercises every instrumented layer of the SONIC
// stack — core pipeline, frame/FEC codec, FM link, server and client —
// with one small end-to-end workload so that a telemetry snapshot taken
// afterwards holds every span and the server, artifact and lifecycle
// families. sonic-sim -telemetry uses it to light up the ops endpoint;
// the carousel families are the simulation's own.
package obsprobe

import (
	"fmt"
	"math/rand"
	"time"

	"sonic/internal/client"
	"sonic/internal/core"
	"sonic/internal/corpus"
	"sonic/internal/fm"
	"sonic/internal/server"
	"sonic/internal/sms"
	"sonic/internal/telemetry"
)

// sampleRate matches core.DefaultConfig's modem rate.
const sampleRate = 48000

// Run drives the probe workload against reg. Every layer is touched at
// least once: a page render (cache miss then hit), queue churn on a
// transmitter, a full encode → FM channel → decode round trip of a
// synthetic bundle, a client broadcast ingest, and a complete SMS
// request → enqueue → on-air → decode-side delivery loop so the request
// lifecycle histograms (request_to_on_air_seconds,
// request_to_delivered_seconds, per-stage waits) are all populated.
func Run(reg *telemetry.Registry) error {
	pipe, err := core.NewPipeline(core.DefaultConfig())
	if err != nil {
		return fmt.Errorf("obsprobe: pipeline: %w", err)
	}
	pipe.Instrument(reg)

	// Lifecycle tracing: reuse the process's tracker when one is already
	// installed, otherwise install one so the probe populates the
	// lifecycle families too.
	if reg != nil && reg.Lifecycle() == nil {
		telemetry.NewLifecycle(reg, telemetry.LifecycleConfig{})
	}

	// Server: render the same page twice (miss, then hit), queue churn.
	srv := server.New(server.DefaultConfig(), pipe)
	srv.Instrument(reg)
	srv.AddTransmitter(server.Transmitter{
		ID: "tx-probe", FreqMHz: 93.7, Lat: 24.86, Lon: 67.00, RadiusKm: 40,
	})
	now := time.Unix(0, 0)
	url := corpus.Pages()[0].URL
	bundle, err := srv.RenderPage(url, now)
	if err != nil {
		return fmt.Errorf("obsprobe: render: %w", err)
	}
	if _, err := srv.RenderPage(url, now); err != nil {
		return fmt.Errorf("obsprobe: render (cached): %w", err)
	}
	if _, err := srv.EnqueuePage(url, 24.87, 67.01, now); err != nil {
		return fmt.Errorf("obsprobe: enqueue: %w", err)
	}
	if _, _, _, ok := srv.DequeuePageAt("tx-probe", now); !ok {
		return fmt.Errorf("obsprobe: dequeue returned empty queue")
	}

	// Core + frame/FEC + FM: a small synthetic bundle over the radio hop
	// at healthy RSSI (the §4 clean band), decoded back.
	rng := rand.New(rand.NewSource(7))
	img := make([]byte, 2000)
	rng.Read(img)
	audio, err := pipe.EncodePageAudio(1, core.Bundle{Image: img})
	if err != nil {
		return fmt.Errorf("obsprobe: encode: %w", err)
	}
	link := &fm.FMLink{RSSI: -70, Rng: rng, Telemetry: reg}
	rx := link.Transmit(audio, sampleRate)
	res, err := pipe.DecodePageAudio(rx)
	if err != nil {
		return fmt.Errorf("obsprobe: decode: %w", err)
	}
	if !res.Complete {
		return fmt.Errorf("obsprobe: probe page incomplete (%d frames lost)", res.FramesLost)
	}

	// Client: ingest the rendered bundle as a broadcast and open it. The
	// ingest confirms delivery of the enqueue/dequeue churn above, closing
	// that trace end to end.
	cl := client.New(client.Config{
		Number: "+920000000001", SonicNumber: "+92111",
		ScreenWidth: 720, Lat: 24.87, Lon: 67.01,
		Capability: client.UplinkSMS,
	})
	cl.Instrument(reg)
	cl.HandleBroadcast(url, bundle, now, srv.PageTTL(), 1.0)
	if _, err := cl.Open(url, now); err != nil {
		return fmt.Errorf("obsprobe: client open: %w", err)
	}

	// Lifecycle loop: a real SMS request travels the whole stack —
	// uplink delivery, admission, render, enqueue, transmitter dequeue
	// (on air), and a broadcast ingest that confirms delivery.
	smsc := sms.NewSMSC(time.Second, 2*time.Second, 11)
	smsc.Register("+92111", srv.HandleSMS(smsc))
	cl.AttachSMSC(smsc)
	reqURL := corpus.Pages()[1].URL
	if err := cl.Request(reqURL, now); err != nil {
		return fmt.Errorf("obsprobe: sms request: %w", err)
	}
	smsc.Advance(now.Add(3 * time.Second)) // deliver request; server queues + acks
	gotURL, _, reqBundle, ok := srv.DequeuePageAt("tx-probe", now.Add(3*time.Second))
	if !ok || gotURL != reqURL {
		return fmt.Errorf("obsprobe: sms-requested page not queued (got %q ok=%v)", gotURL, ok)
	}
	cl.HandleBroadcast(gotURL, reqBundle, now.Add(10*time.Second), srv.PageTTL(), 1.0)
	return nil
}
