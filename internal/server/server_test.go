package server

import (
	"bytes"
	"errors"
	"io"
	"math"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"sonic/internal/core"
	"sonic/internal/corpus"
	"sonic/internal/routing"
	"sonic/internal/sms"
	"sonic/internal/telemetry"
)

// EnqueuePage admits a request for url from a location, as HandleSMS
// does without the SMS, and returns the ETA the SMS ack would carry.
// With lifecycle tracing on, the call opens its own trace (origin
// "api").
func (s *Server) EnqueuePage(url string, lat, lon float64, now time.Time) (time.Duration, error) {
	return s.admitTraced(url, lat, lon, now, s.lc.BeginAt(url, "api", now))
}

func testServer(t *testing.T) *Server {
	t.Helper()
	p, err := core.NewPipeline(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := New(DefaultConfig(), p)
	s.AddTransmitter(Transmitter{
		ID: "khi-1", FreqMHz: 93.7, Lat: 24.86, Lon: 67.00, RadiusKm: 40,
	})
	s.AddTransmitter(Transmitter{
		ID: "lhe-1", FreqMHz: 95.1, Lat: 31.55, Lon: 74.34, RadiusKm: 40,
	})
	return s
}

func TestHaversineSanity(t *testing.T) {
	// Karachi to Lahore is just over 1000 km.
	d := routing.DistanceKm(24.86, 67.00, 31.55, 74.34)
	if d < 900 || d > 1200 {
		t.Errorf("karachi-lahore = %.0f km", d)
	}
	if routing.DistanceKm(10, 10, 10, 10) != 0 {
		t.Error("zero distance wrong")
	}
}

func TestRenderPageCaches(t *testing.T) {
	s := testServer(t)
	reg := telemetry.New()
	s.Instrument(reg)
	now := time.Unix(0, 0)
	url := corpus.Pages()[0].URL
	b1, err := s.RenderPage(url, now)
	if err != nil {
		t.Fatal(err)
	}
	if len(b1.Image) == 0 || len(b1.ClickMap) == 0 {
		t.Fatal("empty bundle")
	}
	// Second render within the same content epoch must hit the cache.
	_, err = s.RenderPage(url, now.Add(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if hits := reg.Snapshot().Counters["server_render_cache_hits_total"]; hits != 1 {
		t.Errorf("cache hits = %d, want 1", hits)
	}
}

func TestEnqueueAndDequeue(t *testing.T) {
	s := testServer(t)
	reg := telemetry.New()
	s.Instrument(reg)
	now := time.Unix(0, 0)
	url := corpus.Pages()[1].URL
	eta, err := s.EnqueuePage(url, 24.87, 67.01, now)
	if err != nil {
		t.Fatal(err)
	}
	if eta <= 0 || eta > time.Hour {
		t.Errorf("eta = %v", eta)
	}
	if pages, bytes := s.QueueDepth("khi-1"); pages != 1 || bytes == 0 {
		t.Errorf("queue = %d pages, %d bytes", pages, bytes)
	}
	// Second page's ETA includes the first page's airtime.
	eta2, err := s.EnqueuePage(corpus.Pages()[2].URL, 24.87, 67.01, now)
	if err != nil {
		t.Fatal(err)
	}
	if eta2 <= eta {
		t.Errorf("eta2 %v should exceed eta1 %v", eta2, eta)
	}
	gotURL, pageID, b, ok := s.DequeuePageAt("khi-1", now)
	if !ok || gotURL != url || pageID == 0 || len(b.Image) == 0 {
		t.Fatalf("dequeue: %q %d ok=%v", gotURL, pageID, ok)
	}
	// Lahore queue untouched.
	if pages, _ := s.QueueDepth("lhe-1"); pages != 0 {
		t.Error("wrong transmitter received the page")
	}
	// The per-tower gauges sonic-top reads follow the queue.
	gauges := reg.Snapshot().Gauges
	pages, bytes := s.QueueDepth("khi-1")
	if got := gauges["server_queue_depth_pages{tx=khi-1}"]; got != float64(pages) || pages != 1 {
		t.Errorf("server_queue_depth_pages{tx=khi-1} = %v, queue holds %d pages (want 1)", got, pages)
	}
	if got := gauges["server_queue_depth_bytes{tx=khi-1}"]; got != float64(bytes) {
		t.Errorf("server_queue_depth_bytes{tx=khi-1} = %v, queue holds %d bytes", got, bytes)
	}
}

func TestEnqueueNoCoverage(t *testing.T) {
	s := testServer(t)
	if _, err := s.EnqueuePage("x.pk/", 0, 0, time.Unix(0, 0)); err != ErrNoCoverage {
		t.Errorf("err = %v", err)
	}
}

func TestPushPopular(t *testing.T) {
	s := testServer(t)
	now := time.Unix(0, 0)
	if err := s.PushPopular(3, now); err != nil {
		t.Fatal(err)
	}
	for _, tx := range []string{"khi-1", "lhe-1"} {
		if pages, _ := s.QueueDepth(tx); pages != 3 {
			t.Errorf("%s queue = %d, want 3", tx, pages)
		}
	}
	// Re-push must not duplicate.
	if err := s.PushPopular(3, now); err != nil {
		t.Fatal(err)
	}
	if pages, _ := s.QueueDepth("khi-1"); pages != 3 {
		t.Errorf("duplicate push: %d pages", pages)
	}
}

func TestHandleSMSFlow(t *testing.T) {
	s := testServer(t)
	smsc := sms.NewSMSC(time.Second, 2*time.Second, 1)
	smsc.Register(s.cfg.Number, s.HandleSMS(smsc))
	var acks []string
	smsc.Register("+user", func(m sms.Message) { acks = append(acks, m.Body) })

	t0 := time.Unix(0, 0)
	body := sms.FormatRequest(sms.Request{URL: corpus.Pages()[0].URL, Lat: 24.87, Lon: 67.0})
	if err := smsc.Submit(t0, "+user", s.cfg.Number, body); err != nil {
		t.Fatal(err)
	}
	smsc.Advance(t0.Add(3 * time.Second))  // deliver request (server acks)
	smsc.Advance(t0.Add(10 * time.Second)) // deliver ack
	if len(acks) != 1 {
		t.Fatalf("acks = %v", acks)
	}
	url, eta, err := sms.ParseAck(acks[0])
	if err != nil || url != corpus.Pages()[0].URL || eta <= 0 {
		t.Errorf("ack %q parsed to %q %v %v", acks[0], url, eta, err)
	}
	if pages, _ := s.QueueDepth("khi-1"); pages != 1 {
		t.Error("request did not reach the queue")
	}

	// Malformed request gets an error reply.
	acks = nil
	_ = smsc.Submit(t0.Add(20*time.Second), "+user", s.cfg.Number, "gibberish")
	smsc.Advance(t0.Add(30 * time.Second))
	smsc.Advance(t0.Add(40 * time.Second))
	if len(acks) != 1 || acks[0] != "ERR bad request" {
		t.Errorf("error reply = %v", acks)
	}
}

func TestTransportOverTCP(t *testing.T) {
	s := testServer(t)
	now := time.Unix(0, 0)
	url := corpus.Pages()[0].URL
	if _, err := s.EnqueuePage(url, 24.87, 67.01, now); err != nil {
		t.Fatal(err)
	}

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = s.Serve(l)
	}()

	c, err := DialTransmitter(l.Addr().String(), "khi-1")
	if err != nil {
		t.Fatal(err)
	}
	gotURL, pageID, bundle, ok, err := c.Poll()
	if err != nil || !ok {
		t.Fatalf("poll: ok=%v err=%v", ok, err)
	}
	if gotURL != url || pageID == 0 || len(bundle.Image) == 0 {
		t.Errorf("polled %q id=%d imglen=%d", gotURL, pageID, len(bundle.Image))
	}
	// Queue now empty.
	_, _, _, ok, err = c.Poll()
	if err != nil || ok {
		t.Errorf("second poll: ok=%v err=%v", ok, err)
	}
	c.Close()
	l.Close()
	<-done
}

// TestTransmitterClientMatchesDequeue: a transmitter polling over the
// control link gets what an in-process DequeuePageAt gets from a server
// in the same state — URL, page ID and bundle bytes, in the same order —
// and then an empty queue.
func TestTransmitterClientMatchesDequeue(t *testing.T) {
	remote, local := testServer(t), testServer(t)
	now := time.Unix(0, 0)
	for _, p := range corpus.Pages()[:2] {
		for _, s := range []*Server{remote, local} {
			if _, err := s.EnqueuePage(p.URL, 24.87, 67.01, now); err != nil {
				t.Fatal(err)
			}
		}
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = remote.Serve(l)
	}()
	defer func() { l.Close(); <-done }()
	c, err := DialTransmitter(l.Addr().String(), "khi-1")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; ; i++ {
		url, pageID, b, ok, err := c.Poll()
		if err != nil {
			t.Fatalf("poll %d: %v", i, err)
		}
		wantURL, wantID, want, wantOK := local.DequeuePageAt("khi-1", time.Now())
		if ok != wantOK || url != wantURL || pageID != wantID {
			t.Fatalf("poll %d: %q id %d ok=%v, in-process %q id %d ok=%v", i, url, pageID, ok, wantURL, wantID, wantOK)
		}
		if !ok {
			if i != 2 {
				t.Fatalf("queue drained after %d pages, want 2", i)
			}
			return
		}
		if !bytes.Equal(core.MarshalBundle(b), core.MarshalBundle(want)) {
			t.Fatalf("poll %d (%s): bundle differs from the in-process dequeue", i, url)
		}
	}
}

func TestTransportRejectsGarbage(t *testing.T) {
	srv, cli := net.Pipe()
	go func() {
		// Garbage hello (wrong type byte).
		_ = writeMsg(cli, msgPoll, nil)
		cli.Close()
	}()
	s := testServer(t)
	s.handleConn(srv) // must return without panicking
}

// TestControlLinkBoundsPeerAllocation: the server reads from a peer that
// has not identified itself, so a 5-byte header announcing 64 MiB must
// close the connection instead of allocating (and waiting for) the
// payload; the same holds for a poll that claims a body.
func TestControlLinkBoundsPeerAllocation(t *testing.T) {
	s := testServer(t)
	for name, hdrs := range map[string][][]byte{
		"huge hello": {{msgHello, 0x04, 0, 0, 0}},
		"fat poll":   {{msgHello, 0, 0, 0, 2, 'k', 'h'}, {msgPoll, 0, 0, 0, 1}},
	} {
		srv, cli := net.Pipe()
		t.Cleanup(func() { cli.Close() }) // unblocks the server side if the test gave up on it
		done := make(chan uint64, 1)
		go func() {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			s.handleConn(srv)
			runtime.ReadMemStats(&after)
			done <- after.TotalAlloc - before.TotalAlloc
		}()
		for _, h := range hdrs {
			if _, err := cli.Write(h); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		select {
		case grew := <-done:
			if grew > 16<<20 { // process-wide counter: leave room for bystanders
				t.Errorf("%s: server allocated %d bytes for an unread payload", name, grew)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: server is waiting for the announced payload", name)
		}
	}
}

// TestTransmitterPollBoundsAllocation: the transmitter allocates for
// the payload bytes that arrive, not for the length a PAGE header
// announces. A header announcing 64 MiB followed by EOF allocated the
// 64 MiB and returned io.EOF; a payload shorter than announced is
// io.ErrUnexpectedEOF.
func TestTransmitterPollBoundsAllocation(t *testing.T) {
	for name, sent := range map[string][]byte{
		"64 MiB announced, none sent": {msgPage, 0x04, 0, 0, 0},
		"100 B announced, 10 sent":    append([]byte{msgPage, 0, 0, 0, 100}, make([]byte, 10)...),
	} {
		srv, cli := net.Pipe()
		go func() {
			defer srv.Close()
			for range 2 { // hello, then the poll
				if _, _, err := readMsg(srv, fromTransmitter); err != nil {
					return
				}
			}
			srv.Write(sent)
		}()
		c, err := NewTransmitterClient(cli, "khi-1")
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, _, ok, err := c.Poll()
		runtime.ReadMemStats(&after)
		c.Close()
		if ok || !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("%s: poll ok=%v err=%v, want io.ErrUnexpectedEOF", name, ok, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
			t.Errorf("%s: poll allocated %d bytes, want < 1 MiB", name, grew)
		}
	}
}

// TestQueueAgeAtPollTime: a TCP poll dequeues at the wall clock, so the
// queue-age gauge reads how long the new head page has waited. With the
// server's own clock stopped at the last push, it read 0 however long
// pages waited.
func TestQueueAgeAtPollTime(t *testing.T) {
	s := testServer(t)
	reg := telemetry.New()
	s.Instrument(reg)
	pushed := time.Now().Add(-time.Hour)
	for _, ref := range corpus.Pages()[:2] {
		if _, err := s.EnqueuePage(ref.URL, 24.87, 67.01, pushed); err != nil {
			t.Fatal(err)
		}
	}
	srv, cli := net.Pipe()
	go s.handleConn(srv)
	c, err := NewTransmitterClient(cli, "khi-1")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, _, _, ok, err := c.Poll(); !ok || err != nil {
		t.Fatalf("poll: ok=%v err=%v", ok, err)
	}
	age := reg.Snapshot().Gauges["server_queue_age_seconds{tx=khi-1}"]
	if age < 3600 || age > 3600+60 {
		t.Fatalf("queue age after the poll = %.0f s, want about 3600 s", age)
	}
}

// TestControlLinkRefusesOversizeURL: PAGE carries the URL length in 16
// bits; a longer URL closes the link rather than going out truncated.
func TestControlLinkRefusesOversizeURL(t *testing.T) {
	s := testServer(t)
	long := "khabar.pk/" + strings.Repeat("a", math.MaxUint16)
	if _, err := s.EnqueuePage(long, 24.87, 67.01, time.Unix(0, 0)); err != nil {
		t.Fatal(err)
	}
	srv, cli := net.Pipe()
	go s.handleConn(srv)
	c, err := NewTransmitterClient(cli, "khi-1")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if url, _, _, ok, err := c.Poll(); err == nil {
		t.Fatalf("poll returned ok=%v url of %d bytes, want the link closed", ok, len(url))
	}
}
