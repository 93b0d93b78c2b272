package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"sonic/internal/fec"
	"sonic/internal/fm"
	"sonic/internal/modem"
	"sonic/internal/telemetry"
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

// TestBundleWireMatchesReference pins the bundle's wire layout to a
// restatement of it: the image and click-map lengths as big-endian
// uint32s, then the two parts. MarshalBundle of a plain bundle and of a
// NewBundle one must both produce it, and UnmarshalBundle must read the
// parts back out of it.
func TestBundleWireMatchesReference(t *testing.T) {
	ref := func(image, cm []byte) []byte {
		out := binary.BigEndian.AppendUint32(nil, uint32(len(image)))
		out = binary.BigEndian.AppendUint32(out, uint32(len(cm)))
		return append(append(out, image...), cm...)
	}
	img := make([]byte, 3000)
	rand.New(rand.NewSource(5)).Read(img)
	for _, tc := range []struct{ image, cm []byte }{
		{img, []byte(`{"page":"a.pk/"}`)},
		{img[:1], nil},
		{nil, []byte("clicks")},
		{nil, nil},
	} {
		want := ref(tc.image, tc.cm)
		if got := MarshalBundle(Bundle{Image: tc.image, ClickMap: tc.cm}); !bytes.Equal(got, want) {
			t.Fatalf("%d+%d B: MarshalBundle differs from the reference layout", len(tc.image), len(tc.cm))
		}
		if got := MarshalBundle(NewBundle(tc.image, tc.cm)); !bytes.Equal(got, want) {
			t.Fatalf("%d+%d B: NewBundle's wire form differs from the reference layout", len(tc.image), len(tc.cm))
		}
		b, err := UnmarshalBundle(want)
		if err != nil || !bytes.Equal(b.Image, tc.image) || !bytes.Equal(b.ClickMap, tc.cm) {
			t.Fatalf("%d+%d B: UnmarshalBundle of the reference layout = %d+%d B, err %v",
				len(tc.image), len(tc.cm), len(b.Image), len(b.ClickMap), err)
		}
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
		&fm.FMLink{RSSI: -70, Rng: rng},
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

// TestReceiversDoNotWriteInput pins what makes a pass-through hop such
// as fm.CableLink safe: every receiver and every lossy link leaves the
// samples it is handed bit-identical, so one burst can feed many of
// them.
func TestReceiversDoNotWriteInput(t *testing.T) {
	p := newDefault(t)
	softCfg := DefaultConfig()
	softCfg.SoftDecision = true
	soft, err := NewPipeline(softCfg)
	if err != nil {
		t.Fatal(err)
	}
	img := make([]byte, 1500)
	rand.New(rand.NewSource(5)).Read(img)
	burst, err := p.EncodePageAudio(4, Bundle{Image: img})
	if err != nil {
		t.Fatal(err)
	}
	// Noise the burst once so the receivers see samples off the PCM grid.
	burst = (&fm.AWGNLink{SNRdB: 30, Rng: rand.New(rand.NewSource(6))}).Transmit(burst, 48000)
	want := slices.Clone(burst)
	for _, rx := range []struct {
		name string
		run  func([]float64)
	}{
		{"modem.Demodulate", func(a []float64) { p.modem.Demodulate(a) }},
		{"modem.DemodulateSoft", func(a []float64) { p.modem.DemodulateSoft(a) }},
		{"DecodePageAudio", func(a []float64) { p.DecodePageAudio(a) }},
		{"DecodePageAudio (soft)", func(a []float64) { soft.DecodePageAudio(a) }},
		{"fm.FMLink", func(a []float64) { (&fm.FMLink{RSSI: -80, Rng: rand.New(rand.NewSource(7))}).Transmit(a, 48000) }},
		{"fm.AcousticLink", func(a []float64) {
			(&fm.AcousticLink{DistanceM: 1, Rng: rand.New(rand.NewSource(8))}).Transmit(a, 48000)
		}},
	} {
		rx.run(burst)
		if !slices.Equal(burst, want) {
			t.Errorf("%s wrote the samples it was given", rx.name)
			copy(burst, want)
		}
	}
}

func TestFrameLossProbeBands(t *testing.T) {
	// RSSI bands from §4: clean at -75, total loss below -90.
	p := newDefault(t)
	rng := rand.New(rand.NewSource(3))
	clean, err := p.FrameLossProbe(&fm.FMLink{RSSI: -75, Rng: rng}, 12)
	if err != nil {
		t.Fatal(err)
	}
	if clean != 0 {
		t.Errorf("loss at -75 dB = %.2f, want 0", clean)
	}
	dead, err := p.FrameLossProbe(&fm.FMLink{RSSI: -95, Rng: rng}, 12)
	if err != nil {
		t.Fatal(err)
	}
	if dead < 0.9 {
		t.Errorf("loss at -95 dB = %.2f, want ~1", dead)
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

// TestDecodeSpansOnFailurePaths decodes two bursts that fail in
// different places and requires every stage span they entered to be
// closed: a burst the modem cannot open must still record
// core.decode_page/demodulate, and a page with a lost frame, which never
// completes, must still record core.decode_page/reassemble. A span left
// open on a failure path is dropped from the snapshot silently.
func TestDecodeSpansOnFailurePaths(t *testing.T) {
	p := newDefault(t)
	reg := telemetry.New()
	p.Instrument(reg)

	if _, err := p.DecodePageAudio(make([]float64, 48000)); err != modem.ErrNoPreamble {
		t.Fatalf("silence err = %v", err)
	}
	stream, err := p.BlobStream(1, MarshalBundle(Bundle{Image: bytes.Repeat([]byte("one frame lost "), 40)}))
	if err != nil {
		t.Fatal(err)
	}
	cl := p.codec.CodedFrameSize()
	clear(stream[cl : 2*cl]) // frame 1 fails its CRC
	res, err := p.DecodePageAudio(p.ModulateStream(stream))
	if err != nil {
		t.Fatal(err)
	}
	if res.Complete || res.FramesLost != 1 {
		t.Fatalf("lossy page: complete %v, %d frames lost; want incomplete with 1 lost", res.Complete, res.FramesLost)
	}

	spans := reg.Snapshot().Spans
	for name, want := range map[string]int64{
		"core.decode_page":            2,
		"core.decode_page/demodulate": 2,
		"core.decode_page/fec_decode": 1,
		"core.decode_page/reassemble": 1,
	} {
		if got := spans[name].Count; got != want {
			t.Errorf("span %s recorded %d times, want %d", name, got, want)
		}
	}
}

// TestEncodeSpans: one instrumented EncodePageAudio records the encode
// span and each of its stages once.
func TestEncodeSpans(t *testing.T) {
	p := newDefault(t)
	reg := telemetry.New()
	p.Instrument(reg)
	if _, err := p.EncodePageAudio(1, Bundle{Image: bytes.Repeat([]byte("spans "), 100)}); err != nil {
		t.Fatal(err)
	}
	spans := reg.Snapshot().Spans
	for _, name := range []string{
		"core.encode_page",
		"core.encode_page/chunk",
		"core.encode_page/fec_encode",
		"core.encode_page/modulate",
	} {
		if got := spans[name].Count; got != 1 {
			t.Errorf("span %s recorded %d times, want 1", name, got)
		}
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
