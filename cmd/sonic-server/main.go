// Command sonic-server runs the SONIC server side.
//
// Two modes:
//
//	# one-shot: render a page and emit its broadcast audio as WAV
//	sonic-server -emit khabar.pk/ -hour 9 -out page.wav
//
//	# service: accept transmitter control links over TCP and queue the
//	# most popular pages for broadcast
//	sonic-server -serve -listen 127.0.0.1:7333 -push 10
//
// Either mode accepts -telemetry :addr to serve the live ops endpoint
// (/metrics in the Prometheus text format, /metrics.json, /debug/pprof)
// while the server runs.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"time"

	"sonic/internal/audio"
	"sonic/internal/core"
	"sonic/internal/server"
	"sonic/internal/telemetry"
)

func main() {
	var (
		emit   = flag.String("emit", "", "URL to render and emit as a WAV broadcast")
		hour   = flag.Int("hour", 0, "corpus hour for -emit")
		out    = flag.String("out", "page.wav", "output WAV for -emit")
		serve  = flag.Bool("serve", false, "run the transmitter control service")
		listen = flag.String("listen", "127.0.0.1:7333", "control-link listen address")
		push   = flag.Int("push", 10, "popular pages to pre-queue in -serve mode")
		tel    = flag.String("telemetry", "", "serve the ops endpoint (/metrics Prometheus text, /metrics.json, /debug/pprof) on this address, e.g. :7380")
		sloAir = flag.Duration("slo-on-air", 0, "request->on-air SLO budget (0 disables the evaluator)")
	)
	flag.Parse()

	var reg *telemetry.Registry // nil unless -telemetry: all records are no-ops
	if *tel != "" {
		reg = telemetry.New()
		telemetry.NewLifecycle(reg, telemetry.LifecycleConfig{
			SLOTargets: telemetry.SLOTargets{RequestToOnAir: *sloAir},
		})
		bound, err := telemetry.Serve(*tel, reg)
		if err != nil {
			fatalf("telemetry: %v", err)
		}
		fmt.Printf("telemetry: http://%s/metrics (Prometheus text; JSON at /metrics.json, traces at /trace/<id>, profiles at /debug/pprof)\n", bound)
	}

	pipe, err := core.NewPipeline(core.DefaultConfig())
	if err != nil {
		fatalf("pipeline: %v", err)
	}
	pipe.Instrument(reg)
	srv := server.New(server.DefaultConfig(), pipe)
	srv.Instrument(reg)
	// A Karachi-class metro transmitter; -serve deployments would add
	// one per covered city.
	srv.AddTransmitter(server.Transmitter{
		ID: "tx-karachi", FreqMHz: 93.7, Lat: 24.86, Lon: 67.00, RadiusKm: 40,
	})

	switch {
	case *emit != "":
		now := time.Unix(0, 0).Add(time.Duration(*hour) * time.Hour)
		bundle, err := srv.RenderPage(*emit, now)
		if err != nil {
			fatalf("render: %v", err)
		}
		samples, err := pipe.EncodePageAudio(1, bundle)
		if err != nil {
			fatalf("encode: %v", err)
		}
		buf := &audio.Buffer{Rate: 48000, Samples: samples}
		f, err := os.Create(*out)
		if err != nil {
			fatalf("create: %v", err)
		}
		defer f.Close()
		if err := audio.WriteWAV(f, buf); err != nil {
			fatalf("wav: %v", err)
		}
		fmt.Printf("emitted %s (image %d KB, clickmap %d B) as %.1fs of audio -> %s\n",
			*emit, len(bundle.Image)/1024, len(bundle.ClickMap), buf.Duration(), *out)

	case *serve:
		if err := srv.PushPopular(*push, time.Now()); err != nil {
			fatalf("push: %v", err)
		}
		l, err := net.Listen("tcp", *listen)
		if err != nil {
			fatalf("listen: %v", err)
		}
		pages, bytes := srv.QueueDepth("tx-karachi")
		fmt.Printf("sonic-server on %s: %d pages (%d KB) queued for tx-karachi; airtime %.0fs at %.1f kbps\n",
			l.Addr(), pages, bytes/1024, pipe.AirtimeSeconds(bytes), pipe.NetGoodputBps()/1000)
		if err := srv.Serve(l); err != nil {
			fatalf("serve: %v", err)
		}

	default:
		flag.Usage()
		os.Exit(2)
	}
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
