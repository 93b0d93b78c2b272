package sonic

import (
	"testing"
	"time"
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
