// Package sonic is a pure-Go implementation of SONIC ("Connect the
// Unconnected via FM Radio & SMS", CoNEXT 2024): a connectivity system
// that broadcasts pre-rendered webpages as sound over FM radio and takes
// page requests back over SMS.
//
// The package re-exports the stable surface of the internal subsystems:
//
//   - Pipeline: the end-to-end encoder/decoder (image -> SIC codec ->
//     100-byte frames -> rs8+v29 FEC -> 92-subcarrier OFDM audio).
//   - FM channel simulation: radio links at a measured RSSI, acoustic
//     speaker-to-microphone links, composite baseband (mono + pilot).
//   - Server and Client: the §3.1 workflow — SMS request intake,
//     render+cache, transmitter selection, broadcast queues, click-map
//     navigation, page cache with server-set expiry.
//   - The evaluation workloads: the 100-page Pakistani corpus, the
//     backlog simulator (Fig. 4c) and the simulated user study (Fig. 5).
//
// Quickstart (see examples/quickstart for the runnable version):
//
//	pipe, _ := sonic.NewPipeline(sonic.DefaultConfig())
//	page := sonic.GeneratePage("khabar.pk/", 0)
//	rendered := sonic.RenderPage(page)
//	bundle, _ := sonic.BundlePage(rendered, 10)
//	audio, _ := pipe.EncodePageAudio(1, bundle)
//	// ... play audio through an FM transmitter, or simulate:
//	rx := sonic.NewCableLink().Transmit(audio, 48000)
//	result, _ := pipe.DecodePageAudio(rx)
package sonic

import (
	"time"

	"sonic/internal/broadcast"
	"sonic/internal/client"
	"sonic/internal/core"
	"sonic/internal/fm"
	"sonic/internal/imagecodec"
	"sonic/internal/server"
	"sonic/internal/sms"
	"sonic/internal/webrender"
)

// Core pipeline types.
type (
	// Pipeline is the end-to-end SONIC transmission stack.
	Pipeline = core.Pipeline
	// Config selects modem profile, FEC stack and image settings.
	Config = core.Config
	// Bundle is the broadcast unit: encoded page image + click map.
	Bundle = core.Bundle
)

// Channel simulation types.
type (
	// Link is one hop of the downlink (FM, acoustic, cable...).
	Link = fm.Link
	// Chain composes links.
	Chain = fm.Chain
)

// System types.
type (
	// Server is the central SONIC server.
	Server = server.Server
	// ServerConfig tunes the server.
	ServerConfig = server.Config
	// Transmitter is one FM station.
	Transmitter = server.Transmitter
	// Client is a SONIC end-user device.
	Client = client.Client
	// ClientConfig describes the device.
	ClientConfig = client.Config
	// SMSC is the simulated SMS network.
	SMSC = sms.SMSC
	// Raster is the RGB image type pages render into.
	Raster = imagecodec.Raster
	// Rendered is a rasterized page with click map and row classes.
	Rendered = webrender.Rendered
	// Page is a synthetic webpage model.
	Page = webrender.Page
)

// Client capability levels (the paper's user classes A/B vs C).
const (
	DownlinkOnly = client.DownlinkOnly
	UplinkSMS    = client.UplinkSMS
)

// DefaultConfig returns the paper's configuration: the Sonic92 OFDM
// profile with rs8 outer and v29 inner FEC, SIC quality 10.
func DefaultConfig() Config { return core.DefaultConfig() }

// NewPipeline builds a transmission pipeline.
func NewPipeline(cfg Config) (*Pipeline, error) { return core.NewPipeline(cfg) }

// NewServer builds a SONIC server on the given pipeline.
func NewServer(cfg ServerConfig, p *Pipeline) *Server { return server.New(cfg, p) }

// DefaultServerConfig returns the paper's server settings.
func DefaultServerConfig() ServerConfig { return server.DefaultConfig() }

// NewClient builds a client device.
func NewClient(cfg ClientConfig) *Client { return client.New(cfg) }

// NewSMSC builds a simulated SMS network with the given delivery
// latency range.
func NewSMSC(minDelay, maxDelay time.Duration, seed int64) *SMSC {
	return sms.NewSMSC(minDelay, maxDelay, seed)
}

// NewCableLink returns the lossless downlink hop (audio jack / internal
// tuner).
func NewCableLink() Link { return fm.CableLink{} }

// NewFMLink returns the radio hop at the given RSSI (dB); the carrier-
// to-noise ratio is RSSI + 103 dB.
func NewFMLink(rssi float64) Link { return &fm.FMLink{RSSI: rssi} }

// NewAcousticLink returns the over-the-air hop at d meters (d <= 0 means
// a cable).
func NewAcousticLink(d float64) Link {
	return &fm.AcousticLink{DistanceM: d}
}

// GeneratePage builds the deterministic synthetic page for a URL at an
// hour index (the corpus substitute for live Chrome rendering).
func GeneratePage(url string, hour int) *Page {
	return webrender.Generate(url, hour, webrender.DefaultGenOptions())
}

// RenderPage rasterizes a page at the 1080 px reference width.
func RenderPage(p *Page) *Rendered { return webrender.Render(p) }

// BundlePage crops to the 10k pixel-height budget, encodes the image at
// the given quality, and packs the click map — producing what the server
// broadcasts for one page.
func BundlePage(r *Rendered, quality int) (Bundle, error) {
	img := r.Image.Crop(imagecodec.MaxPageHeight)
	enc, err := imagecodec.EncodeSIC(img, quality)
	if err != nil {
		return Bundle{}, err
	}
	cm, err := r.Clicks.MarshalJSON()
	if err != nil {
		return Bundle{}, err
	}
	return core.NewBundle(enc, cm), nil
}

// DecodePageImage decodes a bundle's image back into a raster.
func DecodePageImage(b Bundle) (*Raster, error) {
	return imagecodec.DecodeSIC(b.Image)
}

// Evaluation re-exports (for building custom experiment harnesses).
type (
	// BacklogConfig parameterizes the Fig. 4(c) backlog simulation.
	BacklogConfig = broadcast.Config
	// BacklogResult is a finished backlog run.
	BacklogResult = broadcast.Result
)

// SimulateBacklog runs the Fig. 4(c) model.
func SimulateBacklog(cfg BacklogConfig) (*BacklogResult, error) {
	return broadcast.Simulate(cfg)
}
