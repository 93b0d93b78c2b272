// Package client implements the SONIC client application (§3.1): it
// receives page bundles from the radio downlink, caches them with the
// server-set expiry, shows a catalog of browsable pages, resolves
// hyperlink clicks through the click map (cache first, SMS uplink as the
// fallback), and applies the §3.2 scaling factor for the device screen.
package client

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"sonic/internal/clickmap"
	"sonic/internal/core"
	"sonic/internal/imagecodec"
	"sonic/internal/sms"
	"sonic/internal/telemetry"
)

// Capability describes what a user's hardware supports (the three user
// classes of the paper's Figure 3).
type Capability int

// Capability levels.
const (
	// DownlinkOnly is user-A/B: FM reception, no SMS.
	DownlinkOnly Capability = iota
	// UplinkSMS is user-C: FM reception plus SMS uplink.
	UplinkSMS
)

// Config describes one client device.
type Config struct {
	Number      string  // the device's phone number (uplink identity)
	SonicNumber string  // the SONIC service number
	ScreenWidth int     // pixels; drives the §3.2 scaling factor
	Lat, Lon    float64 // reported with each request
	Capability  Capability
}

// cachedPage is one received page: what the broadcast carried, the
// expiry the server set (§3.1), and the server's popularity hint that
// orders the catalog. It is never mutated once stored; a rebroadcast
// replaces it.
type cachedPage struct {
	image, clickMap []byte
	expires         time.Time
	popularity      float64
}

// fresh reports whether the page may still be shown at now.
func (p *cachedPage) fresh(now time.Time) bool { return !now.After(p.expires) }

// Client is a SONIC end-user device.
type Client struct {
	cfg Config

	mu      sync.Mutex
	pages   map[string]*cachedPage
	pending map[string]time.Time // URL -> ack ETA deadline
	smsc    *sms.SMSC

	// Telemetry (nil handles = off; see internal/telemetry).
	mReceived  *telemetry.Counter // client_pages_received_total
	mRequested *telemetry.Counter // client_requests_sent_total
	mOpened    *telemetry.Counter // client_pages_opened_total
	lc         *telemetry.Lifecycle
}

// Instrument registers the client's metric families on reg. If a
// request lifecycle tracker is installed on reg, every ingested
// broadcast also confirms delivery on the matching open traces —
// the decode-side receipt that closes the request loop end to end.
// Call once at setup, before the client starts handling broadcasts.
func (c *Client) Instrument(reg *telemetry.Registry) {
	c.mReceived = reg.Counter("client_pages_received_total")
	c.mRequested = reg.Counter("client_requests_sent_total")
	c.mOpened = reg.Counter("client_pages_opened_total")
	c.lc = reg.Lifecycle()
}

// New builds a client.
func New(cfg Config) *Client {
	if cfg.ScreenWidth <= 0 {
		cfg.ScreenWidth = 720
	}
	return &Client{
		cfg:     cfg,
		pages:   make(map[string]*cachedPage),
		pending: make(map[string]time.Time),
	}
}

// AttachSMSC wires the uplink (no-op for downlink-only devices) and
// registers the ack handler.
func (c *Client) AttachSMSC(smsc *sms.SMSC) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.smsc = smsc
	smsc.Register(c.cfg.Number, func(m sms.Message) {
		url, eta, err := sms.ParseAck(m.Body)
		if err != nil {
			return
		}
		c.mu.Lock()
		c.pending[url] = m.DeliverAt.Add(eta)
		c.mu.Unlock()
	})
}

// ScalingFactor returns screen width / 1080 (§3.2).
func (c *Client) ScalingFactor() float64 {
	return float64(c.cfg.ScreenWidth) / float64(imagecodec.PageWidth)
}

// HandleBroadcast ingests a received page bundle (already demodulated and
// reassembled by the core pipeline), caching it under url with the
// server-provided expiry.
func (c *Client) HandleBroadcast(url string, b core.Bundle, now time.Time, ttl time.Duration, popularity float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.pages[url] = &cachedPage{
		image:      b.Image,
		clickMap:   b.ClickMap,
		expires:    now.Add(ttl),
		popularity: popularity,
	}
	delete(c.pending, url)
	c.mReceived.Inc()
	c.lc.DeliveredAt(url, now)
}

// Page is a browsable cached page, decoded and scaled for this device.
type Page struct {
	URL    string
	Image  *imagecodec.Raster
	Clicks *clickmap.Map
}

// Errors from navigation.
var (
	ErrNotCached = errors.New("client: page not cached")
	ErrNoUplink  = errors.New("client: no SMS uplink available")
	ErrNotLink   = errors.New("client: nothing clickable at that point")
)

// Open decodes a cached page and scales image plus click map to the
// device screen.
func (c *Client) Open(url string, now time.Time) (*Page, error) {
	c.mu.Lock()
	e, ok := c.pages[url]
	c.mu.Unlock()
	if !ok || !e.fresh(now) {
		return nil, ErrNotCached
	}
	img, err := imagecodec.DecodeSIC(e.image)
	if err != nil {
		return nil, fmt.Errorf("client: decode %s: %w", url, err)
	}
	var cm clickmap.Map
	if len(e.clickMap) > 0 {
		if err := cm.UnmarshalJSON(e.clickMap); err != nil {
			return nil, err
		}
	}
	f := c.ScalingFactor()
	c.mOpened.Inc()
	return &Page{
		URL:    url,
		Image:  img.ResizeNearest(f),
		Clicks: cm.Scale(f),
	}, nil
}

// Catalog lists cached, fresh pages, most popular first and then by URL
// — the browsable list the SONIC app shows (§3.1: "the app shows a
// catalog of available webpages, organized by content, popularity...").
func (c *Client) Catalog(now time.Time) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var urls []string
	for url, e := range c.pages {
		if e.fresh(now) {
			urls = append(urls, url)
		}
	}
	sort.Slice(urls, func(i, j int) bool {
		pi, pj := c.pages[urls[i]].popularity, c.pages[urls[j]].popularity
		if pi != pj {
			return pi > pj
		}
		return urls[i] < urls[j]
	})
	return urls
}

// Click resolves a tap at device coordinates on an open page: if the
// target is cached it returns it immediately; otherwise, with an uplink,
// it sends an SMS request and returns ErrNotCached with a queued request
// (§3.1: "If the requested internal page is locally available ... the
// page would instantly load. If not, an active uplink is required").
func (c *Client) Click(p *Page, x, y int, now time.Time) (*Page, error) {
	target, ok := p.Clicks.Hit(x, y)
	if !ok {
		return nil, ErrNotLink
	}
	if next, err := c.Open(target, now); err == nil {
		return next, nil
	}
	if err := c.Request(target, now); err != nil {
		return nil, err
	}
	return nil, ErrNotCached
}

// Request sends an SMS page request for url.
func (c *Client) Request(url string, now time.Time) error {
	c.mu.Lock()
	smsc := c.smsc
	capab := c.cfg.Capability
	c.mu.Unlock()
	if capab != UplinkSMS || smsc == nil {
		return ErrNoUplink
	}
	body := sms.FormatRequest(sms.Request{URL: url, Lat: c.cfg.Lat, Lon: c.cfg.Lon})
	if err := smsc.Submit(now, c.cfg.Number, c.cfg.SonicNumber, body); err != nil {
		return err
	}
	c.mRequested.Inc()
	return nil
}

// PendingETA reports the acknowledged delivery deadline for url, if any.
func (c *Client) PendingETA(url string) (time.Time, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	t, ok := c.pending[url]
	return t, ok
}
