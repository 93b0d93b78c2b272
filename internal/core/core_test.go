package core

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"sonic/internal/fec"
	"sonic/internal/fm"
	"sonic/internal/frame"
	"sonic/internal/imagecodec"
	"sonic/internal/modem"
)

func newDefault(t *testing.T) *Pipeline {
	t.Helper()
	p, err := NewPipeline(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPipelineValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Modem.FFTSize = 999
	if _, err := NewPipeline(cfg); err == nil {
		t.Error("bad modem profile should fail")
	}
}

func TestNetGoodputNearTenKbps(t *testing.T) {
	// The paper's headline claim (§3.3/§4): "a rate of 10kbps is
	// sustainable" with the 92-subcarrier profile and rs8+v29.
	p := newDefault(t)
	g := p.NetGoodputBps()
	if g < 6500 || g > 11000 {
		t.Errorf("net goodput = %.0f bps, want in the ~10 kbps regime", g)
	}
	// Airtime for 100 KB at ~7-9 kbps net should be minutes, not hours.
	at := p.AirtimeSeconds(100 * 1024)
	if at < 60 || at > 600 {
		t.Errorf("airtime for 100KB = %.0fs", at)
	}
}

func TestBundleRoundTrip(t *testing.T) {
	b := Bundle{Image: []byte{1, 2, 3}, ClickMap: []byte(`{"page":"a.pk/"}`)}
	got, err := UnmarshalBundle(MarshalBundle(b))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Image, b.Image) || !bytes.Equal(got.ClickMap, b.ClickMap) {
		t.Error("bundle mismatch")
	}
	if _, err := UnmarshalBundle([]byte{1}); err != ErrBadBundle {
		t.Errorf("short bundle err = %v", err)
	}
	bad := MarshalBundle(b)
	bad[0] = 0xFF // huge image length
	if _, err := UnmarshalBundle(bad); err != ErrBadBundle {
		t.Errorf("inconsistent bundle err = %v", err)
	}
}

// TestNewBundleWire pins the marshal-once contract: a NewBundle bundle
// marshals to the same bytes as the plain literal, without allocating,
// and a part re-pointed after the fact marshals its new bytes.
func TestNewBundleWire(t *testing.T) {
	for _, tc := range []struct {
		name      string
		image, cm []byte
	}{
		{"both", []byte{1, 2, 3}, []byte(`{"page":"a.pk/"}`)},
		{"no clickmap", []byte{1, 2, 3}, nil},
		{"no image", nil, []byte("clicks")},
		{"empty", nil, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := MarshalBundle(Bundle{Image: tc.image, ClickMap: tc.cm})
			b := NewBundle(tc.image, tc.cm)
			if got := MarshalBundle(b); !bytes.Equal(got, want) {
				t.Fatalf("wired marshal = %x, want %x", got, want)
			}
			if !bytes.Equal(b.Image, tc.image) || !bytes.Equal(b.ClickMap, tc.cm) {
				t.Fatal("NewBundle parts differ from its inputs")
			}
			if n := testing.AllocsPerRun(100, func() { _ = MarshalBundle(b) }); n != 0 {
				t.Errorf("wired marshal allocates %v times, want 0", n)
			}
			other := []byte{9, 8, 7, 6}
			re := b
			re.Image = other
			if got, want := MarshalBundle(re), MarshalBundle(Bundle{Image: other, ClickMap: tc.cm}); !bytes.Equal(got, want) {
				t.Errorf("re-pointed image marshals %x, want %x", got, want)
			}
			re = b
			re.ClickMap = other
			if got, want := MarshalBundle(re), MarshalBundle(Bundle{Image: tc.image, ClickMap: other}); !bytes.Equal(got, want) {
				t.Errorf("re-pointed clickmap marshals %x, want %x", got, want)
			}
		})
	}
}

// TestWiredBundleConcurrentReaders: the wire form of a rendered page is
// shared by every reader, so concurrent marshals and encodes of one
// bundle must see identical bytes (and, under -race, no write).
func TestWiredBundleConcurrentReaders(t *testing.T) {
	p := newDefault(t)
	img := make([]byte, 2000)
	rand.New(rand.NewSource(6)).Read(img)
	b := NewBundle(img, []byte("clicks"))
	wantBlob := append([]byte(nil), MarshalBundle(b)...)
	wantAudio, err := p.EncodePageAudio(4, b)
	if err != nil {
		t.Fatal(err)
	}
	const readers = 32
	errs := make(chan error, readers)
	for i := 0; i < readers; i++ {
		go func() {
			if !bytes.Equal(MarshalBundle(b), wantBlob) {
				errs <- errors.New("marshal differs")
				return
			}
			audio, err := p.EncodePageAudio(4, b)
			if err == nil && !slices.Equal(audio, wantAudio) {
				err = errors.New("audio differs")
			}
			errs <- err
		}()
	}
	for i := 0; i < readers; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

func TestEndToEndCleanAudio(t *testing.T) {
	p := newDefault(t)
	rng := rand.New(rand.NewSource(1))
	img := make([]byte, 3000)
	rng.Read(img)
	b := Bundle{Image: img, ClickMap: []byte("clicks")}
	audio, err := p.EncodePageAudio(7, b)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.DecodePageAudio(audio)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete || res.PageID != 7 || res.FramesLost != 0 {
		t.Fatalf("result: %+v", res)
	}
	if !bytes.Equal(res.Bundle.Image, img) {
		t.Fatal("image corrupted")
	}
}

func TestEndToEndOverFMCable(t *testing.T) {
	// The full paper path at high RSSI, cable receiver: FM chain at
	// -70 dB RSSI must deliver with zero frame loss (§4: "no frame loss
	// recorded over cable... RSSI of -65 to -85 dB").
	p := newDefault(t)
	rng := rand.New(rand.NewSource(2))
	img := make([]byte, 2000)
	rng.Read(img)
	audio, err := p.EncodePageAudio(3, Bundle{Image: img})
	if err != nil {
		t.Fatal(err)
	}
	link := fm.Chain{
		&fm.FMLink{Model: fm.DefaultRSSIModel(), RSSIOverride: -70, Rng: rng},
		fm.CableLink{},
	}
	rx := link.Transmit(audio, 48000)
	res, err := p.DecodePageAudio(rx)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete || res.FramesLost != 0 {
		t.Fatalf("cable at -70 dB lost %d frames", res.FramesLost)
	}
	if !bytes.Equal(res.Bundle.Image, img) {
		t.Fatal("image corrupted over FM")
	}
}

func TestFrameLossProbeBands(t *testing.T) {
	// RSSI bands from §4: clean at -75, total loss below -90.
	p := newDefault(t)
	rng := rand.New(rand.NewSource(3))
	clean, err := p.FrameLossProbe(&fm.FMLink{
		Model: fm.DefaultRSSIModel(), RSSIOverride: -75, Rng: rng}, 12)
	if err != nil {
		t.Fatal(err)
	}
	if clean != 0 {
		t.Errorf("loss at -75 dB = %.2f, want 0", clean)
	}
	dead, err := p.FrameLossProbe(&fm.FMLink{
		Model: fm.DefaultRSSIModel(), RSSIOverride: -95, Rng: rng}, 12)
	if err != nil {
		t.Fatal(err)
	}
	if dead < 0.9 {
		t.Errorf("loss at -95 dB = %.2f, want ~1", dead)
	}
}

func TestCellTransportEndToEnd(t *testing.T) {
	p := newDefault(t)
	// Small page-like image.
	img := imagecodec.NewRaster(48, 160)
	img.FillRect(0, 0, 48, 20, imagecodec.RGB{R: 20, G: 40, B: 160})
	img.FillRect(10, 60, 28, 40, imagecodec.RGB{R: 200, G: 30, B: 30})
	frames, err := p.EncodeImageCells(5, img)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) < 48 {
		t.Fatalf("only %d cell frames", len(frames))
	}
	// Drop 10% of frames, reconstruct, verify bounded damage.
	rng := rand.New(rand.NewSource(4))
	var kept []*frame.Frame
	for _, f := range frames {
		if rng.Float64() >= 0.10 {
			kept = append(kept, f)
		}
	}
	healed, missing, rate := DecodeImageCells(kept, img.W, img.H)
	if rate <= 0 || rate > 0.5 {
		t.Errorf("pixel loss rate = %.3f", rate)
	}
	_ = missing
	// Healed image should be close to the original (interpolation only).
	var diff float64
	for i := range img.Pix {
		d := float64(img.Pix[i]) - float64(healed.Pix[i])
		diff += d * d
	}
	mse := diff / float64(len(img.Pix))
	if mse > 900 {
		t.Errorf("healed MSE = %.1f, interpolation too weak", mse)
	}
	// Full delivery is lossless.
	full, _, rate0 := DecodeImageCells(frames, img.W, img.H)
	if rate0 != 0 {
		t.Errorf("full delivery rate = %g", rate0)
	}
	if !bytes.Equal(full.Pix, img.Pix) {
		t.Fatal("full delivery changed pixels")
	}
}

func TestAblationInnerCodeMatters(t *testing.T) {
	// At an SNR where v29 saves frames, no-inner-code must lose more.
	mk := func(inner *fec.ConvCode) *Pipeline {
		cfg := DefaultConfig()
		cfg.InnerCode = inner
		p, err := NewPipeline(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	withV29 := mk(fec.NewV29())
	without := mk(nil)
	loss29, err := withV29.FrameLossProbe(&fm.AWGNLink{SNRdB: 17, Rng: rand.New(rand.NewSource(5))}, 15)
	if err != nil {
		t.Fatal(err)
	}
	loss0, err := without.FrameLossProbe(&fm.AWGNLink{SNRdB: 17, Rng: rand.New(rand.NewSource(5))}, 15)
	if err != nil {
		t.Fatal(err)
	}
	if loss29 > loss0 {
		t.Errorf("v29 loss %.2f worse than no-FEC %.2f", loss29, loss0)
	}
	if loss0 == 0 {
		t.Log("channel too clean to separate; acceptable but uninformative")
	}
}

func TestDecodePageAudioNoSignal(t *testing.T) {
	p := newDefault(t)
	if _, err := p.DecodePageAudio(make([]float64, 48000)); err != modem.ErrNoPreamble {
		t.Errorf("silence err = %v", err)
	}
}

func BenchmarkPipelineEncodePage10KB(b *testing.B) {
	p, _ := NewPipeline(DefaultConfig())
	img := make([]byte, 10*1024)
	b.SetBytes(int64(len(img)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.EncodePageAudio(1, Bundle{Image: img}); err != nil {
			b.Fatal(err)
		}
	}
}
