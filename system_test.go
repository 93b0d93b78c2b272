package sonic

// Whole-system integration test: the paper's Figure 3 scenario end to
// end — a server with a transmitter control link over real TCP, an SMS
// network, three receiver classes (user-A over the air, user-B internal
// tuner, user-C audio jack + SMS), a full broadcast cycle including the
// preemptive popularity push, hyperlink navigation, and cache expiry.

import (
	"net"
	"testing"
	"time"

	"sonic/internal/corpus"
	"sonic/internal/server"
	"sonic/internal/telemetry"
)

func TestSystemDayInTheLife(t *testing.T) {
	if testing.Short() {
		t.Skip("DSP-heavy system test")
	}
	pipe, err := NewPipeline(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}

	// --- deployment ---------------------------------------------------
	reg := telemetry.New()
	lc := telemetry.NewLifecycle(reg, telemetry.LifecycleConfig{})
	srv := NewServer(DefaultServerConfig(), pipe)
	srv.Instrument(reg)
	srv.AddTransmitter(Transmitter{
		ID: "tx-khi", FreqMHz: 93.7, ExtraFreqsMHz: []float64{95.1},
		Lat: 24.86, Lon: 67.00, RadiusKm: 40,
	})
	smsc := NewSMSC(time.Second, 4*time.Second, 99)
	smsc.Register("+92300SONIC", srv.HandleSMS(smsc))

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	serveDone := make(chan struct{})
	go func() {
		defer close(serveDone)
		_ = srv.Serve(l)
	}()
	tx, err := server.DialTransmitter(l.Addr().String(), "tx-khi")
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Close()

	// --- users ----------------------------------------------------------
	userC := NewClient(ClientConfig{
		Number: "+92300111", SonicNumber: "+92300SONIC",
		ScreenWidth: 720, Lat: 24.87, Lon: 67.01, Capability: UplinkSMS,
	})
	userC.AttachSMSC(smsc)
	userC.Instrument(reg)
	userB := NewClient(ClientConfig{ScreenWidth: 540}) // internal tuner, no SMS

	now := time.Unix(0, 0)

	// --- morning push (§3.1: popular pages pushed early) ----------------
	if err := srv.PushPopular(2, now); err != nil {
		t.Fatal(err)
	}

	// --- user-C requests a specific page via SMS -------------------------
	target := corpus.Pages()[8].URL // a landing page outside the 2-page push set
	if err := userC.Request(target, now); err != nil {
		t.Fatal(err)
	}
	now = now.Add(10 * time.Second)
	smsc.Advance(now) // request delivered; server queues + acks
	now = now.Add(10 * time.Second)
	smsc.Advance(now) // ack delivered
	if _, ok := userC.PendingETA(target); !ok {
		t.Fatal("user-C never received the SMS ack")
	}

	// --- the transmitter drains its queue and broadcasts -----------------
	broadcasts := 0
	for {
		url, pageID, bundle, ok, err := tx.Poll()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		broadcasts++
		audio, err := pipe.EncodePageAudio(pageID, bundle)
		if err != nil {
			t.Fatal(err)
		}
		// Everyone in range hears the same burst (the broadcast win).
		for _, rx := range []struct {
			name string
			c    *Client
			link Link
		}{
			// Cable links here: the FM+acoustic physics is exercised by
			// the core and experiments tests; full pages through the
			// 192 kHz FM chain would cost minutes per broadcast.
			{"user-C", userC, NewCableLink()},
			{"user-B", userB, NewCableLink()},
		} {
			got := rx.link.Transmit(audio, 48000)
			res, err := pipe.DecodePageAudio(got)
			if err != nil {
				t.Fatalf("%s: %v", rx.name, err)
			}
			if !res.Complete {
				t.Fatalf("%s lost %d frames at high RSSI", rx.name, res.FramesLost)
			}
			rx.c.HandleBroadcast(url, res.Bundle, now, srv.PageTTL(), 1)
		}
	}
	if broadcasts != 3 { // 2 pushed + 1 requested
		t.Fatalf("broadcast %d pages, want 3", broadcasts)
	}

	// --- both devices now have a catalog ---------------------------------
	if got := len(userB.Catalog(now)); got != 3 {
		t.Errorf("user-B catalog has %d pages", got)
	}
	if _, ok := userC.PendingETA(target); ok {
		t.Error("delivery should clear user-C's pending request")
	}

	// --- user-C browses and follows a link --------------------------------
	page, err := userC.Open(target, now)
	if err != nil {
		t.Fatal(err)
	}
	if page.Image.W != 720 {
		t.Errorf("scaled width %d", page.Image.W)
	}
	// Downlink-only user-B cannot request uncached content.
	if err := userB.Request("x.pk/", now); err == nil {
		t.Error("user-B has no uplink; request should fail")
	}

	// --- cache expiry ------------------------------------------------------
	later := now.Add(srv.PageTTL() + time.Hour)
	if _, err := userC.Open(target, later); err == nil {
		t.Error("page should have expired")
	}
	if got := len(userC.Catalog(later)); got != 0 {
		t.Errorf("catalog after expiry has %d pages", got)
	}

	// --- telemetry closed the loop ---------------------------------------
	snap := reg.Snapshot()
	if received := len(userC.Catalog(now)); received != 3 {
		t.Errorf("user-C pages received = %d, want 3", received)
	}
	// user-C's one SMS request is the one the server counted.
	if reqs := snap.Counters["server_sms_requests_total"]; reqs != 1 {
		t.Errorf("server requests = %d, want 1", reqs)
	}

	// The one SMS request was traced end to end: it went on air with a
	// positive request→on-air latency (the page's airtime at minimum) and
	// user-C's broadcast ingest confirmed delivery.
	onAir, ok := snap.Histograms["request_to_on_air_seconds"]
	if !ok || onAir.Count != 1 {
		t.Fatalf("request_to_on_air_seconds count = %+v, want 1 observation", onAir)
	}
	if onAir.Sum <= 0 {
		t.Errorf("request->on-air latency = %v s, want > 0", onAir.Sum)
	}
	if delivered := snap.Counters["lifecycle_delivered_total"]; delivered != 1 {
		t.Errorf("lifecycle delivered = %d, want 1", delivered)
	}

	// The event ring reconstructs the request's timeline in stage order.
	var traceID string
	for _, e := range lc.Ring().Events("") {
		if e.URL == target && e.Stage == "received" {
			traceID = e.Trace
		}
	}
	if traceID == "" {
		t.Fatal("no received event for the SMS-requested page in the event ring")
	}
	wantStages := []string{"received", "admitted", "render_start", "render_done",
		"enqueued", "on_air_start", "on_air_done", "delivered"}
	events := lc.Ring().Events(traceID)
	if len(events) != len(wantStages) {
		t.Fatalf("trace %s has %d events, want %d: %+v", traceID, len(events), len(wantStages), events)
	}
	for i, e := range events {
		if e.Stage != wantStages[i] {
			t.Errorf("trace event %d stage = %q, want %q", i, e.Stage, wantStages[i])
		}
		if e.WaitSeconds < 0 {
			t.Errorf("trace event %d wait = %v, want >= 0", i, e.WaitSeconds)
		}
	}
}
