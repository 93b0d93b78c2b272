// Package sonic is a pure-Go implementation of SONIC ("Connect the
// Unconnected via FM Radio & SMS", CoNEXT 2024): a connectivity system
// that broadcasts pre-rendered webpages as sound over FM radio and takes
// page requests back over SMS.
//
// The package re-exports the stable surface of the internal subsystems:
//
//   - Pipeline: the end-to-end encoder/decoder (image -> SIC codec ->
//     100-byte frames -> rs8+v29 FEC -> 92-subcarrier OFDM audio).
//   - FM channel simulation: RSSI/path-loss radio links, acoustic
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
	"sonic/internal/corpus"
	"sonic/internal/fec"
	"sonic/internal/fm"
	"sonic/internal/imagecodec"
	"sonic/internal/interp"
	"sonic/internal/modem"
	"sonic/internal/server"
	"sonic/internal/sms"
	"sonic/internal/userstudy"
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
	// ReceiveResult summarizes one received transmission.
	ReceiveResult = core.ReceiveResult
)

// Channel simulation types.
type (
	// Link is one hop of the downlink (FM, acoustic, cable...).
	Link = fm.Link
	// Chain composes links.
	Chain = fm.Chain
	// RSSIModel maps distance to received signal strength.
	RSSIModel = fm.RSSIModel
	// AcousticModel is the over-the-air speaker-to-mic channel.
	AcousticModel = fm.AcousticModel
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
	// PageRef identifies a corpus page.
	PageRef = corpus.PageRef
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

// NewFMLink returns the radio hop at the given RSSI (dB).
func NewFMLink(rssi float64) Link {
	return &fm.FMLink{Model: fm.DefaultRSSIModel(), RSSIOverride: rssi}
}

// NewAcousticLink returns the over-the-air hop at d meters (d <= 0 means
// a cable).
func NewAcousticLink(d float64) Link {
	return &fm.AcousticLink{Model: fm.DefaultAcousticModel(), DistanceM: d}
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

// CorpusPages returns the 100-page evaluation corpus (25 Tranco-style
// .pk sites x 4 pages).
func CorpusPages() []PageRef { return corpus.Pages() }

// Interpolate repairs missing pixels in place using the paper's
// left-priority nearest-neighbor scheme.
func Interpolate(r *Raster, missing []bool) { interp.Interpolate(r, missing) }

// Evaluation re-exports (for building custom experiment harnesses).
type (
	// BacklogConfig parameterizes the Fig. 4(c) backlog simulation.
	BacklogConfig = broadcast.Config
	// BacklogResult is a finished backlog run.
	BacklogResult = broadcast.Result
	// StudyCondition is one user-study cell (loss rate x interpolation).
	StudyCondition = userstudy.Condition
	// StudyResult aggregates the simulated rating panel.
	StudyResult = userstudy.StudyResult
)

// SimulateBacklog runs the Fig. 4(c) model.
func SimulateBacklog(cfg BacklogConfig) (*BacklogResult, error) {
	return broadcast.Simulate(cfg)
}

// NewV29 and NewV27 expose the inner convolutional codes for custom
// pipeline configs and ablations.
func NewV29() *fec.ConvCode { return fec.NewV29() }

// NewV27 returns the weaker K=7 inner code (ablation baseline).
func NewV27() *fec.ConvCode { return fec.NewV27() }

// Sonic92Profile returns the paper's OFDM profile (92 subcarriers,
// 9.2 kHz center, 64-QAM).
func Sonic92Profile() modem.Profile { return modem.Sonic92() }

// NewFSK128Modem returns the GGwave-class FSK baseline modem (§2).
func NewFSK128Modem() *modem.FSK { return modem.NewFSK128() }

// NewGMSKModem returns the constant-envelope GMSK modem, the other
// modulation the Quiet library offers (§2).
func NewGMSKModem() *modem.GMSK { return modem.NewGMSK() }

// Audible7kProfile returns the Quiet-style QPSK profile SONIC's was
// derived from.
func Audible7kProfile() modem.Profile { return modem.Audible7k() }
