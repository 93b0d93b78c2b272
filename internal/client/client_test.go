package client

import (
	"fmt"
	"testing"
	"time"

	"sonic/internal/clickmap"
	"sonic/internal/core"
	"sonic/internal/imagecodec"
	"sonic/internal/sms"
	"sonic/internal/telemetry"
)

// makeBundle builds a small page bundle with one link region.
func makeBundle(t *testing.T, url, linkTo string) core.Bundle {
	t.Helper()
	img := imagecodec.NewRaster(imagecodec.PageWidth, 60)
	img.FillRect(0, 0, imagecodec.PageWidth, 20, imagecodec.RGB{R: 10, G: 30, B: 120})
	enc, err := imagecodec.EncodeSIC(img, 50)
	if err != nil {
		t.Fatal(err)
	}
	cm := &clickmap.Map{PageURL: url}
	cm.Add(100, 30, 300, 20, linkTo)
	cmJSON, err := cm.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	return core.Bundle{Image: enc, ClickMap: cmJSON}
}

func TestScalingFactor(t *testing.T) {
	c := New(Config{ScreenWidth: 720})
	if f := c.ScalingFactor(); f != 720.0/1080 {
		t.Errorf("factor = %g", f)
	}
	d := New(Config{}) // default width
	if d.ScalingFactor() <= 0 {
		t.Error("default factor must be positive")
	}
}

func TestBroadcastOpenAndScale(t *testing.T) {
	c := New(Config{ScreenWidth: 540})
	now := time.Unix(0, 0)
	b := makeBundle(t, "a.pk/", "a.pk/story")
	c.HandleBroadcast("a.pk/", b, now, time.Hour, 1)

	p, err := c.Open("a.pk/", now)
	if err != nil {
		t.Fatal(err)
	}
	if p.Image.W != 540 {
		t.Errorf("scaled width = %d, want 540", p.Image.W)
	}
	// Click map scaled by the same factor.
	if len(p.Clicks.Regions) != 1 || p.Clicks.Regions[0].X != 50 {
		t.Errorf("scaled region = %+v", p.Clicks.Regions)
	}
	// Expiry honored.
	if _, err := c.Open("a.pk/", now.Add(2*time.Hour)); err != ErrNotCached {
		t.Errorf("expired open err = %v", err)
	}
}

func TestCatalog(t *testing.T) {
	c := New(Config{})
	now := time.Unix(0, 0)
	c.HandleBroadcast("low.pk/", makeBundle(t, "low.pk/", "x"), now, time.Hour, 1)
	c.HandleBroadcast("hot.pk/", makeBundle(t, "hot.pk/", "x"), now, time.Hour, 9)
	cat := c.Catalog(now)
	if len(cat) != 2 || cat[0] != "hot.pk/" {
		t.Errorf("catalog = %v", cat)
	}
}

// TestPageExpiry pins the server-set expiry (§3.1): a page is shown up to
// and including its expiry instant and not after; an unknown URL is
// never shown.
func TestPageExpiry(t *testing.T) {
	c := New(Config{})
	t0 := time.Unix(0, 0)
	c.HandleBroadcast("a.pk/", makeBundle(t, "a.pk/", "x"), t0, 100*time.Second, 1)
	for _, tc := range []struct {
		url  string
		at   time.Duration
		want error
	}{
		{"a.pk/", 50 * time.Second, nil},
		{"a.pk/", 100 * time.Second, nil},
		{"a.pk/", 101 * time.Second, ErrNotCached},
		{"nope.pk/", 0, ErrNotCached},
	} {
		if _, err := c.Open(tc.url, t0.Add(tc.at)); err != tc.want {
			t.Errorf("Open(%s, +%v) err = %v, want %v", tc.url, tc.at, err, tc.want)
		}
	}
}

// TestRebroadcastReplaces pins replace-on-receive: the newer bundle is
// the one shown, and its expiry is the one honored.
func TestRebroadcastReplaces(t *testing.T) {
	c := New(Config{ScreenWidth: 1080})
	t0 := time.Unix(0, 0)
	c.HandleBroadcast("a.pk/", makeBundle(t, "a.pk/", "a.pk/old"), t0, time.Hour, 1)
	c.HandleBroadcast("a.pk/", makeBundle(t, "a.pk/", "a.pk/new"), t0.Add(50*time.Minute), time.Hour, 1)
	p, err := c.Open("a.pk/", t0.Add(90*time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Clicks.Regions) != 1 || p.Clicks.Regions[0].URL != "a.pk/new" {
		t.Errorf("regions = %+v, want the rebroadcast's link", p.Clicks.Regions)
	}
	if got := c.Catalog(t0); len(got) != 1 {
		t.Errorf("catalog = %v, want one entry per URL", got)
	}
}

// TestCatalogOrder pins the catalog: fresh pages only, most popular
// first, ties broken by URL.
func TestCatalogOrder(t *testing.T) {
	c := New(Config{})
	t0 := time.Unix(0, 0)
	c.HandleBroadcast("b.pk/", core.Bundle{}, t0, 100*time.Second, 2)
	c.HandleBroadcast("a.pk/", core.Bundle{}, t0, 100*time.Second, 2)
	c.HandleBroadcast("top.pk/", core.Bundle{}, t0, 100*time.Second, 8)
	c.HandleBroadcast("stale.pk/", core.Bundle{}, t0, time.Second, 99)
	got := fmt.Sprint(c.Catalog(t0.Add(50 * time.Second)))
	if want := "[top.pk/ a.pk/ b.pk/]"; got != want {
		t.Errorf("catalog = %s, want %s", got, want)
	}
}

func TestClickCachedNavigatesInstantly(t *testing.T) {
	c := New(Config{ScreenWidth: 1080})
	now := time.Unix(0, 0)
	c.HandleBroadcast("a.pk/", makeBundle(t, "a.pk/", "a.pk/story"), now, time.Hour, 1)
	c.HandleBroadcast("a.pk/story", makeBundle(t, "a.pk/story", "a.pk/"), now, time.Hour, 1)
	p, err := c.Open("a.pk/", now)
	if err != nil {
		t.Fatal(err)
	}
	next, err := c.Click(p, 150, 35, now)
	if err != nil {
		t.Fatal(err)
	}
	if next.URL != "a.pk/story" {
		t.Errorf("navigated to %q", next.URL)
	}
	// Clicking dead space.
	if _, err := c.Click(p, 5, 5, now); err != ErrNotLink {
		t.Errorf("dead click err = %v", err)
	}
}

func TestClickUncachedRequestsViaSMS(t *testing.T) {
	smsc := sms.NewSMSC(time.Second, time.Second, 1)
	var serverGot []string
	smsc.Register("+SONIC", func(m sms.Message) { serverGot = append(serverGot, m.Body) })

	c := New(Config{
		Number: "+user1", SonicNumber: "+SONIC",
		ScreenWidth: 1080, Capability: UplinkSMS,
		Lat: 24.86, Lon: 67.0,
	})
	reg := telemetry.New()
	c.Instrument(reg)
	c.AttachSMSC(smsc)
	now := time.Unix(0, 0)
	c.HandleBroadcast("a.pk/", makeBundle(t, "a.pk/", "a.pk/story"), now, time.Hour, 1)
	p, _ := c.Open("a.pk/", now)
	if _, err := c.Click(p, 150, 35, now); err != ErrNotCached {
		t.Fatalf("uncached click err = %v", err)
	}
	smsc.Advance(now.Add(2 * time.Second))
	if len(serverGot) != 1 {
		t.Fatalf("server got %v", serverGot)
	}
	req, err := sms.ParseRequest(serverGot[0])
	if err != nil || req.URL != "a.pk/story" {
		t.Errorf("request = %+v %v", req, err)
	}
	if requested := reg.Snapshot().Counters["client_requests_sent_total"]; requested != 1 {
		t.Error("request counter wrong")
	}
}

func TestDownlinkOnlyCannotRequest(t *testing.T) {
	c := New(Config{Capability: DownlinkOnly})
	if err := c.Request("a.pk/", time.Unix(0, 0)); err != ErrNoUplink {
		t.Errorf("err = %v", err)
	}
}

func TestAckUpdatesPending(t *testing.T) {
	smsc := sms.NewSMSC(time.Second, time.Second, 2)
	c := New(Config{Number: "+user1", SonicNumber: "+SONIC", Capability: UplinkSMS})
	c.AttachSMSC(smsc)
	smsc.Register("+SONIC", func(m sms.Message) {
		_ = smsc.Submit(m.DeliverAt, "+SONIC", "+user1", sms.FormatAck("b.pk/", 90*time.Second))
	})
	now := time.Unix(0, 0)
	if err := c.Request("b.pk/", now); err != nil {
		t.Fatal(err)
	}
	smsc.Advance(now.Add(time.Second))
	smsc.Advance(now.Add(2 * time.Second))
	deadline, ok := c.PendingETA("b.pk/")
	if !ok {
		t.Fatal("no pending ETA recorded")
	}
	if deadline.Before(now.Add(90 * time.Second)) {
		t.Errorf("deadline = %v", deadline)
	}
	// Broadcast arrival clears the pending state.
	c.HandleBroadcast("b.pk/", makeBundle(t, "b.pk/", "x"), now.Add(time.Minute), time.Hour, 1)
	if _, ok := c.PendingETA("b.pk/"); ok {
		t.Error("pending not cleared by delivery")
	}
}
