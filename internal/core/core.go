// Package core assembles SONIC's end-to-end transmission pipeline — the
// paper's primary contribution (§3). On the send side: a rendered
// webpage image is encoded (SIC, the WebP stand-in), bundled with its
// click map, chunked into 100-byte frames, protected with the rs8 outer
// and v29 inner FEC, and modulated into audio with the 92-subcarrier
// OFDM profile for FM broadcast. The receive side inverts each stage and
// repairs losses with nearest-neighbor interpolation where the
// cell-transport mode is used.
package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"

	"sonic/internal/fec"
	"sonic/internal/fm"
	"sonic/internal/frame"
	"sonic/internal/imagecodec"
	"sonic/internal/interp"
	"sonic/internal/modem"
	"sonic/internal/telemetry"
)

// Config selects the pieces of the transmission stack.
type Config struct {
	Modem modem.Profile
	// UseRS/InnerCode select the FEC stack (both on = the paper's stack).
	UseRS     bool
	InnerCode *fec.ConvCode // nil = no inner code
	// SoftDecision feeds the inner Viterbi decoder per-bit soft metrics
	// from the demodulator instead of hard decisions (~2 dB gain, the
	// way Quiet's decoder operates).
	SoftDecision bool
}

// Digest returns a stable fingerprint of every config field that can
// change the bytes the transmit pipeline emits: the modem profile and
// the FEC stack. SoftDecision is deliberately excluded: it only affects
// the receive side. The artifact cache (internal/artifact) keys entries
// on this digest so two pipelines share artifacts exactly when they would
// emit identical bytes.
func (c Config) Digest() uint64 {
	h := fnv.New64a()
	m := c.Modem
	constBits := 0
	if m.Constellation != nil {
		constBits = m.Constellation.Bits()
	}
	fmt.Fprintf(h, "modem:%s,%d,%d,%d,%g,%d,%d,%d,%g",
		m.Name, m.SampleRate, m.FFTSize, m.CyclicPrefix, m.CenterHz,
		m.DataCarriers, m.PilotCarriers, constBits, m.Amplitude)
	fmt.Fprintf(h, "|rs:%t", c.UseRS)
	if c.InnerCode != nil {
		fmt.Fprintf(h, "|conv:%d,%g", c.InnerCode.ConstraintLength(), c.InnerCode.Rate())
	}
	return h.Sum64()
}

// DefaultConfig is the paper's configuration: Sonic92 OFDM profile and
// rs8+v29 FEC (§3.3).
func DefaultConfig() Config {
	return Config{
		Modem:     modem.Sonic92(),
		UseRS:     true,
		InnerCode: fec.NewV29(),
	}
}

// Pipeline is a configured SONIC encoder/decoder pair.
type Pipeline struct {
	cfg   Config
	modem *modem.OFDM
	codec *frame.Codec

	// tel records per-stage spans (nil = off; see internal/telemetry).
	tel *telemetry.Registry
}

// Instrument starts recording per-stage spans on reg: encode and decode
// paths get a span tree whose self-times show where inside
// chunk→FEC→modulate / demodulate→FEC→reassemble the wall clock goes.
func (p *Pipeline) Instrument(reg *telemetry.Registry) {
	p.tel = reg
}

// NewPipeline validates the config and builds the pipeline.
func NewPipeline(cfg Config) (*Pipeline, error) {
	m, err := modem.NewOFDM(cfg.Modem)
	if err != nil {
		return nil, err
	}
	var rs *fec.RS
	if cfg.UseRS {
		rs = fec.NewRS8()
	}
	return &Pipeline{
		cfg:   cfg,
		modem: m,
		codec: frame.NewCodecWith(rs, cfg.InnerCode),
	}, nil
}

// Codec exposes the frame codec (for experiments).
func (p *Pipeline) Codec() *frame.Codec { return p.codec }

// Modem exposes the modem (for experiments).
func (p *Pipeline) Modem() *modem.OFDM { return p.modem }

// NetGoodputBps returns the post-FEC, post-framing payload rate the
// profile sustains — the paper's headline "10 kbps" figure for the
// default configuration.
func (p *Pipeline) NetGoodputBps() float64 {
	raw := p.cfg.Modem.RawBitRate() // modem payload bits per second
	payloadPerFrame := float64(frame.PayloadSize)
	onAirPerFrame := float64(p.codec.CodedFrameSize())
	return raw * payloadPerFrame / onAirPerFrame
}

// TransportRateBps returns the FEC-coded transport rate — the paper's
// headline "10 kbps" number: the modem rate times the code rates of the
// inner (1/2) and outer (223/255) FEC, before the 100-byte framing
// overhead that NetGoodputBps additionally charges.
func (p *Pipeline) TransportRateBps() float64 {
	r := p.cfg.Modem.RawBitRate()
	if p.cfg.InnerCode != nil {
		r *= p.cfg.InnerCode.Rate()
	}
	if p.cfg.UseRS {
		r *= 223.0 / 255.0
	}
	return r
}

// AirtimeSeconds returns the on-air time to broadcast n payload bytes
// (framing and FEC included, modem preamble amortized per burst).
func (p *Pipeline) AirtimeSeconds(n int) float64 {
	frames := (n + frame.PayloadSize - 1) / frame.PayloadSize
	coded := frames * p.codec.CodedFrameSize()
	return p.modem.BurstDuration(coded)
}

// --- page bundles ----------------------------------------------------------

// Bundle is the broadcast unit for one page: the encoded image and the
// serialized click map.
type Bundle struct {
	Image    []byte
	ClickMap []byte

	wire []byte // the marshaled form Image and ClickMap are views of (NewBundle)
}

// NewBundle marshals a page once, at render: it builds the wire form in
// one allocation and returns a bundle whose parts are views of it, so
// MarshalBundle of the result is free.
func NewBundle(image, clickMap []byte) Bundle {
	wire := MarshalBundle(Bundle{Image: image, ClickMap: clickMap})
	il := 8 + len(image)
	return Bundle{Image: wire[8:il:il], ClickMap: wire[il:], wire: wire}
}

// MarshalBundle frames the two parts with a length header. For a bundle
// from NewBundle whose parts are still the views it made, the result is
// that bundle's shared wire form; otherwise it is a fresh copy. Either
// way it must not be mutated.
func MarshalBundle(b Bundle) []byte {
	if w := b.wire; w != nil {
		il := 8 + int(binary.BigEndian.Uint32(w[0:4]))
		if sameView(b.Image, w[8:il]) && sameView(b.ClickMap, w[il:]) {
			return w
		}
	}
	out := make([]byte, 8, 8+len(b.Image)+len(b.ClickMap))
	binary.BigEndian.PutUint32(out[0:4], uint32(len(b.Image)))
	binary.BigEndian.PutUint32(out[4:8], uint32(len(b.ClickMap)))
	out = append(out, b.Image...)
	out = append(out, b.ClickMap...)
	return out
}

// sameView reports whether part is exactly view: same length and, when
// non-empty, the same first byte in memory.
func sameView(part, view []byte) bool {
	return len(part) == len(view) && (len(part) == 0 || &part[0] == &view[0])
}

// ErrBadBundle is returned for malformed bundle blobs.
var ErrBadBundle = errors.New("core: malformed page bundle")

// UnmarshalBundle parses a blob produced by MarshalBundle.
func UnmarshalBundle(blob []byte) (Bundle, error) {
	if len(blob) < 8 {
		return Bundle{}, ErrBadBundle
	}
	il := int(binary.BigEndian.Uint32(blob[0:4]))
	cl := int(binary.BigEndian.Uint32(blob[4:8]))
	// Compared against what is left, not summed: two hostile lengths
	// cannot overflow an int on any platform.
	if il < 0 || il > len(blob)-8 || cl < 0 || cl > len(blob)-8-il {
		return Bundle{}, ErrBadBundle
	}
	return Bundle{
		Image:    append([]byte(nil), blob[8:8+il]...),
		ClickMap: append([]byte(nil), blob[8+il:8+il+cl]...),
	}, nil
}

// --- transmit / receive ------------------------------------------------------

// ConfigDigest returns the pipeline config's transmit fingerprint (see
// Config.Digest) — the artifact-cache key component that ties cached
// streams and audio to the exact bytes this pipeline would emit.
func (p *Pipeline) ConfigDigest() uint64 { return p.cfg.Digest() }

// EncodePageAudio turns a page bundle into the broadcast audio burst.
func (p *Pipeline) EncodePageAudio(pageID uint16, b Bundle) ([]float64, error) {
	sp := p.tel.StartSpan("core.encode_page")
	defer sp.End()
	stream, err := p.encodeStream(sp, pageID, MarshalBundle(b))
	if err != nil {
		return nil, err
	}
	return p.modulateStream(sp, stream), nil
}

// BlobStream runs the transmit chain up to (not including) the modem
// over a marshaled bundle blob: the blob is chunked into frames and
// FEC-framed into the coded byte stream the modem would broadcast. It
// is the middle stage of the artifact chain — callers that fan one page
// out to many transmitters cache this stream once and modulate (or hand
// it to hardware) per carrier.
func (p *Pipeline) BlobStream(pageID uint16, blob []byte) ([]byte, error) {
	sp := p.tel.StartSpan("core.encode_page_stream")
	defer sp.End()
	return p.encodeStream(sp, pageID, blob)
}

// ModulateStream turns a FEC-framed stream (BlobStream) into the
// broadcast audio burst — the final artifact stage. The result is
// byte-identical to EncodePageAudio of the same bundle.
func (p *Pipeline) ModulateStream(stream []byte) []float64 {
	sp := p.tel.StartSpan("core.modulate_stream")
	defer sp.End()
	return p.modulateStream(sp, stream)
}

// encodeStream chunks a marshaled blob and FEC-frames it, with chunk and
// fec_encode child spans under parent (nil-safe).
func (p *Pipeline) encodeStream(parent *telemetry.Span, pageID uint16, blob []byte) ([]byte, error) {
	chunkSp := parent.StartChild("chunk")
	frames := frame.Chunk(pageID, blob)
	chunkSp.End()
	return p.framesStream(parent, frames)
}

// framesStream FEC-frames a frame list into the coded byte stream the
// modem broadcasts — the one frames→stream step behind the page, cell
// and probe transmit paths.
func (p *Pipeline) framesStream(parent *telemetry.Span, frames []*frame.Frame) ([]byte, error) {
	fecSp := parent.StartChild("fec_encode")
	defer fecSp.End()
	return p.codec.EncodeStream(frames)
}

// modulateStream is the modem stage — stream→audio — with its span
// scoped under parent (nil-safe).
func (p *Pipeline) modulateStream(parent *telemetry.Span, stream []byte) []float64 {
	modSp := parent.StartChild("modulate")
	audio := p.modem.Modulate(stream)
	modSp.End()
	return audio
}

// ReceiveResult summarizes one received page transmission.
type ReceiveResult struct {
	PageID        uint16
	Bundle        Bundle
	FramesTotal   int
	FramesLost    int
	Complete      bool
	ModemSNRdB    float64
	FrameLossRate float64
}

// DecodePageAudio demodulates a burst and reassembles the page bundle.
// A partially received page returns Complete=false with loss accounting
// (and no Bundle) — in bitstream transport any loss is fatal to the
// image, which is exactly the trade-off the cell transport removes.
func (p *Pipeline) DecodePageAudio(audio []float64) (*ReceiveResult, error) {
	sp := p.tel.StartSpan("core.decode_page")
	defer sp.End()

	frames, lost, snr, err := p.receiveFrames(sp, audio)
	if err != nil {
		return nil, err
	}
	res := &ReceiveResult{ModemSNRdB: snr, FramesLost: lost}
	if len(frames) == 0 {
		res.FramesTotal = lost
		res.FrameLossRate = 1
		return res, nil
	}
	asmSp := sp.StartChild("reassemble")
	res.PageID = frames[0].PageID
	r := frame.NewReassembler(res.PageID)
	for _, f := range frames {
		r.Add(f)
	}
	res.FramesTotal = r.Total()
	if r.Total() > 0 {
		res.FramesLost = r.Total() - r.Received()
		res.FrameLossRate = r.LossRate()
	}
	blob, ok := r.Bytes()
	asmSp.End()
	if ok {
		b, err := UnmarshalBundle(blob)
		if err != nil {
			return res, err
		}
		res.Bundle = b
		res.Complete = true
	}
	return res, nil
}

// receiveFrames demodulates a burst and decodes its frames through the
// configured hard or soft path. parent (nil-safe) scopes the per-stage
// spans under the caller's trace. Soft decisions only help the inner
// code, so without one the hard path runs.
func (p *Pipeline) receiveFrames(parent *telemetry.Span, audio []float64) (frames []*frame.Frame, lost int, snr float64, err error) {
	demSp := parent.StartChild("demodulate")
	var decode func() ([]*frame.Frame, int)
	if p.cfg.SoftDecision && p.cfg.InnerCode != nil {
		var dem *modem.SoftDemodResult
		if dem, err = p.modem.DemodulateSoft(audio); err == nil {
			snr = dem.SNRdB
			decode = func() ([]*frame.Frame, int) { return p.codec.DecodeStreamSoft(dem.Soft) }
		}
	} else {
		var dem *modem.DemodResult
		if dem, err = p.modem.Demodulate(audio); err == nil {
			snr = dem.SNRdB
			decode = func() ([]*frame.Frame, int) { return p.codec.DecodeStream(dem.Payload) }
		}
	}
	demSp.End()
	if err != nil {
		return nil, 0, 0, err
	}
	fecSp := parent.StartChild("fec_decode")
	frames, lost = decode()
	fecSp.End()
	return frames, lost, snr, nil
}

// --- cell transport ----------------------------------------------------------
//
// No binary, example or benchmark workload reaches this section: the
// system airs the bitstream transport above. It stays, pinned by
// cells_audio_test.go, because it is the paper's own §3.3 mechanism (1-px
// partitions, one independently decodable cell per frame) and the source
// of EXPERIMENTS.md's ~30x byte-cost comparison.

// EncodeImageCells converts a raster into per-frame cells (§3.3's 1-px
// partition scheme): each frame payload carries exactly one
// independently decodable cell.
func (p *Pipeline) EncodeImageCells(pageID uint16, img *imagecodec.Raster) ([]*frame.Frame, error) { //sonic:ignore deadcode ROADMAP 5(ii): kept for the cells-vs-strips chart
	sp := p.tel.StartSpan("core.encode_cells")
	defer sp.End()
	cells, err := imagecodec.EncodeColumns(img, frame.PayloadSize)
	if err != nil {
		return nil, err
	}
	// All payloads marshal into one exactly-sized buffer (frame.Marshal
	// copies the payload, so the sharing never escapes the frame layer).
	buf := make([]byte, 0, imagecodec.CellsSize(cells))
	frames := make([]*frame.Frame, len(cells))
	for i := range cells {
		start := len(buf)
		buf = cells[i].AppendMarshal(buf)
		frames[i] = &frame.Frame{
			PageID:  pageID,
			Seq:     uint32(i),
			Total:   uint32(len(cells)),
			Payload: buf[start:len(buf):len(buf)],
		}
	}
	return frames, nil
}

// DecodeImageCells rebuilds a raster (w×h) from whatever cell frames
// arrived, interpolating missing pixels per §3.3. It returns the healed
// image, the missing-pixel mask (before interpolation), and the pixel
// loss rate.
func DecodeImageCells(frames []*frame.Frame, w, h int) (*imagecodec.Raster, []bool, float64) { //sonic:ignore deadcode ROADMAP 5(ii): kept for the cells-vs-strips chart
	return decodeImageCells(nil, frames, w, h)
}

// decodeImageCells is DecodeImageCells with per-stage spans scoped under
// parent (nil-safe).
func decodeImageCells(parent *telemetry.Span, frames []*frame.Frame, w, h int) (*imagecodec.Raster, []bool, float64) { //sonic:ignore deadcode ROADMAP 5(ii): kept for the cells-vs-strips chart
	cellSp := parent.StartChild("cell_decode")
	var cells []imagecodec.Cell
	for _, f := range frames {
		c, err := imagecodec.UnmarshalCell(f.Payload)
		if err != nil {
			continue
		}
		cells = append(cells, c)
	}
	img, missing := imagecodec.DecodeColumns(cells, w, h)
	cellSp.End()
	lost := 0
	for _, m := range missing {
		if m {
			lost++
		}
	}
	rate := 0.0
	if len(missing) > 0 {
		rate = float64(lost) / float64(len(missing))
	}
	interpSp := parent.StartChild("interpolate")
	interp.Interpolate(img, missing)
	interpSp.End()
	return img, missing, rate
}

// EncodeCellsAudio modulates a raster's cell frames (§3.3's resilient
// transport) into one audio burst.
func (p *Pipeline) EncodeCellsAudio(pageID uint16, img *imagecodec.Raster) ([]float64, error) { //sonic:ignore deadcode ROADMAP 5(ii): kept for the cells-vs-strips chart
	frames, err := p.EncodeImageCells(pageID, img)
	if err != nil {
		return nil, err
	}
	sp := p.tel.StartSpan("core.encode_cells_audio")
	defer sp.End()
	stream, err := p.framesStream(sp, frames)
	if err != nil {
		return nil, err
	}
	return p.modulateStream(sp, stream), nil
}

// DecodeCellsAudio demodulates a cell-transport burst and reconstructs
// the w×h image, interpolating whatever frames were lost. It returns the
// healed image, the pixel loss rate, and the frame loss rate.
func (p *Pipeline) DecodeCellsAudio(audio []float64, w, h int) (*imagecodec.Raster, float64, float64, error) { //sonic:ignore deadcode ROADMAP 5(ii): kept for the cells-vs-strips chart
	sp := p.tel.StartSpan("core.decode_cells")
	defer sp.End()
	frames, lost, _, err := p.receiveFrames(sp, audio)
	if err != nil {
		return nil, 1, 1, err
	}
	img, _, pixelLoss := decodeImageCells(sp, frames, w, h)
	frameLoss := 0.0
	if total := len(frames) + lost; total > 0 {
		frameLoss = float64(lost) / float64(total)
	}
	return img, pixelLoss, frameLoss, nil
}

// CellAirtimeSeconds returns the on-air time to broadcast img through
// the cell transport — typically an order of magnitude above
// AirtimeSeconds of the compressed bitstream (the trade-off DESIGN.md
// §5a quantifies).
func (p *Pipeline) CellAirtimeSeconds(img *imagecodec.Raster) (float64, error) { //sonic:ignore deadcode ROADMAP 5(ii): kept for the cells-vs-strips chart
	cells, err := imagecodec.EncodeColumns(img, frame.PayloadSize)
	if err != nil {
		return 0, err
	}
	coded := len(cells) * p.codec.CodedFrameSize()
	return p.modem.BurstDuration(coded), nil
}

// --- channel probes ----------------------------------------------------------

// probeAudio broadcasts nFrames dummy frames (page id 0xBEEF) across link
// and returns what the receiver hears.
func (p *Pipeline) probeAudio(link fm.Link, nFrames int) ([]float64, error) {
	frames := make([]*frame.Frame, nFrames)
	for i := range frames {
		payload := make([]byte, frame.PayloadSize)
		for j := range payload {
			payload[j] = byte(i + j)
		}
		frames[i] = &frame.Frame{
			PageID:  0xBEEF,
			Seq:     uint32(i),
			Total:   uint32(nFrames),
			Payload: payload,
		}
	}
	stream, err := p.framesStream(nil, frames)
	if err != nil {
		return nil, err
	}
	return link.Transmit(p.modulateStream(nil, stream), p.cfg.Modem.SampleRate), nil
}

// FrameLossProbe measures the frame loss rate of this pipeline across a
// Link: it broadcasts nFrames dummy frames and counts survivors. This is
// the instrument behind Figure 4(a) and the RSSI sweep.
func (p *Pipeline) FrameLossProbe(link fm.Link, nFrames int) (lossRate float64, err error) {
	rx, err := p.probeAudio(link, nFrames)
	if err != nil {
		return 0, err
	}
	sp := p.tel.StartSpan("core.frame_loss_probe")
	got, _, _, err := p.receiveFrames(sp, rx)
	sp.End()
	if err != nil {
		return 1, nil // no sync at all: total loss, not an error
	}
	r := frame.NewReassembler(0xBEEF)
	for _, f := range got {
		r.Add(f)
	}
	return 1 - float64(r.Received())/float64(nFrames), nil
}
