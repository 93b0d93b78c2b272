package sonic

import (
	"bytes"
	"math"
	"slices"
	"testing"
	"time"

	"sonic/internal/audio"
)

// TestPublicAPIQuickstart exercises the documented quickstart flow end
// to end through the facade only.
func TestPublicAPIQuickstart(t *testing.T) {
	pipe, err := NewPipeline(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	page := GeneratePage("khabar.pk/", 0)
	rendered := RenderPage(page)
	// Small crop keeps the burst short for the test.
	rendered.Image = rendered.Image.Crop(600)
	bundle, err := BundlePage(rendered, 10)
	if err != nil {
		t.Fatal(err)
	}
	audio, err := pipe.EncodePageAudio(1, bundle)
	if err != nil {
		t.Fatal(err)
	}
	rx := NewCableLink().Transmit(audio, 48000)
	res, err := pipe.DecodePageAudio(rx)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatalf("lost %d frames over cable", res.FramesLost)
	}
	img, err := DecodePageImage(res.Bundle)
	if err != nil {
		t.Fatal(err)
	}
	if img.W != rendered.Image.W || img.H != 600 {
		t.Errorf("decoded %dx%d", img.W, img.H)
	}
}

// TestWAVHardwarePath is the path a real transmitter and receiver take
// (sonic-server -emit, then sonic-client): a whole rendered page encoded
// to audio, written as a 16-bit WAV, read back and decoded. The int16
// quantization is the only channel, and it must cost no frame.
func TestWAVHardwarePath(t *testing.T) {
	pipe, err := NewPipeline(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	bundle, err := BundlePage(RenderPage(GeneratePage("khabar.pk/", 9)), 10)
	if err != nil {
		t.Fatal(err)
	}
	samples, err := pipe.EncodePageAudio(1, bundle)
	if err != nil {
		t.Fatal(err)
	}
	var wav bytes.Buffer
	if err := audio.WriteWAV(&wav, &audio.Buffer{Rate: 48000, Samples: samples}); err != nil {
		t.Fatal(err)
	}
	buf, err := audio.ReadWAV(&wav)
	if err != nil {
		t.Fatal(err)
	}
	res, err := pipe.DecodePageAudio(buf.Samples)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete || res.FramesLost != 0 {
		t.Fatalf("lost %d of %d frames through the WAV", res.FramesLost, res.FramesTotal)
	}
	if !bytes.Equal(res.Bundle.Image, bundle.Image) || !bytes.Equal(res.Bundle.ClickMap, bundle.ClickMap) {
		t.Error("bundle read back from the WAV differs from the one encoded")
	}
}

func TestPublicAPISystemPieces(t *testing.T) {
	pipe, err := NewPipeline(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(DefaultServerConfig(), pipe)
	srv.AddTransmitter(Transmitter{ID: "t1", FreqMHz: 93.7, Lat: 24.86, Lon: 67.0, RadiusKm: 50})
	if len(srv.Transmitters()) != 1 {
		t.Error("transmitter not registered")
	}
	cli := NewClient(ClientConfig{ScreenWidth: 720, Capability: UplinkSMS})
	if cli.ScalingFactor() <= 0 {
		t.Error("bad scaling factor")
	}
	smsc := NewSMSC(time.Second, 2*time.Second, 1)
	cli.AttachSMSC(smsc)
}

func TestPublicAPISoftDecision(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SoftDecision = true
	pipe, err := NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	audio, err := pipe.EncodePageAudio(1, Bundle{Image: []byte("soft facade")})
	if err != nil {
		t.Fatal(err)
	}
	res, err := pipe.DecodePageAudio(audio)
	if err != nil || !res.Complete {
		t.Fatalf("soft pipeline through the facade failed: %v", err)
	}
}

// An RSSI of 0 dB is a signal 103 dB above the noise floor, not "unset":
// it must not air the same noise as some other RSSI.
func TestPublicAPIFMLinkZeroRSSI(t *testing.T) {
	audio := make([]float64, 4800)
	for i := range audio {
		audio[i] = 0.5 * math.Sin(2*math.Pi*1000*float64(i)/48000)
	}
	zero := NewFMLink(0).Transmit(audio, 48000)
	weak := NewFMLink(-55).Transmit(audio, 48000)
	if slices.Equal(zero, weak) {
		t.Fatal("NewFMLink(0) airs exactly what NewFMLink(-55) airs")
	}
}
