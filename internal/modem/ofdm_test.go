package modem

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"sonic/internal/audio"
)

// modulateFloat is Modulate's burst as the receive side takes it, the
// float view of its PCM.
func modulateFloat(m *OFDM, payload []byte) []float64 {
	return audio.Floats(m.Modulate(payload))
}

func addAWGN(samples []float64, snrDB float64, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	var sig float64
	for _, v := range samples {
		sig += v * v
	}
	sig /= float64(len(samples))
	noisePow := sig / math.Pow(10, snrDB/10)
	sigma := math.Sqrt(noisePow)
	out := make([]float64, len(samples))
	for i, v := range samples {
		out[i] = v + sigma*rng.NormFloat64()
	}
	return out
}

func TestProfileValidation(t *testing.T) {
	p := Sonic92()
	if err := p.Validate(); err != nil {
		t.Fatalf("Sonic92 invalid: %v", err)
	}
	p2 := p
	p2.FFTSize = 1000
	if err := p2.Validate(); err == nil {
		t.Error("non-power-of-two FFT should fail")
	}
	p3 := p
	p3.CenterHz = 23000
	if err := p3.Validate(); err == nil {
		t.Error("band above Nyquist should fail")
	}
	p4 := p
	p4.Constellation = nil
	if err := p4.Validate(); err == nil {
		t.Error("missing constellation should fail")
	}
	p5 := p
	p5.CyclicPrefix = p5.FFTSize
	if err := p5.Validate(); err == nil {
		t.Error("CP >= FFT should fail")
	}
	p6 := p
	p6.PilotCarriers = 0
	if err := p6.Validate(); err == nil {
		t.Error("zero pilots should fail")
	}
}

func TestSonic92ProfileRates(t *testing.T) {
	p := Sonic92()
	if p.DataCarriers != 92 {
		t.Errorf("DataCarriers = %d, want 92 (paper §3.3)", p.DataCarriers)
	}
	// Raw rate must be high enough that after r=1/2 conv + RS(255/223)
	// the net goodput is about 10 kbps.
	raw := p.RawBitRate()
	net := raw * 0.5 * 223.0 / 255.0
	if net < 8500 || net > 12000 {
		t.Errorf("net rate %.0f bps, want ~10kbps (raw %.0f)", net, raw)
	}
	if d := p.SymbolDuration(); math.Abs(d-0.024) > 1e-9 {
		t.Errorf("symbol duration = %g", d)
	}
}

func TestOFDMCleanRoundTrip(t *testing.T) {
	for _, prof := range []Profile{Sonic92(), Audible7k()} {
		m, err := NewOFDM(prof)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(1))
		for _, n := range []int{1, 10, 100, 1000} {
			payload := make([]byte, n)
			rng.Read(payload)
			audio := modulateFloat(m, payload)
			res, err := m.Demodulate(audio)
			if err != nil {
				t.Fatalf("%s n=%d: %v", prof.Name, n, err)
			}
			if !bytes.Equal(res.Payload, payload) {
				t.Fatalf("%s n=%d: payload mismatch", prof.Name, n)
			}
		}
	}
}

func TestOFDMEmptyPayload(t *testing.T) {
	m, _ := NewOFDM(Sonic92())
	audio := modulateFloat(m, nil)
	res, err := m.Demodulate(audio)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Payload) != 0 {
		t.Errorf("payload = %v, want empty", res.Payload)
	}
}

func TestOFDMWithLeadingNoiseAndOffset(t *testing.T) {
	m, _ := NewOFDM(Sonic92())
	payload := []byte("offset burst: the receiver must find the preamble")
	audio := modulateFloat(m, payload)
	rng := rand.New(rand.NewSource(2))
	pre := make([]float64, 9000)
	post := make([]float64, 3000)
	for i := range pre {
		pre[i] = 0.005 * rng.NormFloat64()
	}
	stream := append(append(pre, audio...), post...)
	res, err := m.Demodulate(stream)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Payload, payload) {
		t.Fatal("payload mismatch after offset")
	}
	sc := m.getScratch()
	defer m.putScratch(sc)
	if start := m.findPreamble(stream, sc); start < 8900 || start > 9100 {
		t.Errorf("preamble found at %d, want ~9000", start)
	}
}

func TestOFDMHighSNRNoise(t *testing.T) {
	m, _ := NewOFDM(Sonic92())
	rng := rand.New(rand.NewSource(3))
	payload := make([]byte, 300)
	rng.Read(payload)
	audio := modulateFloat(m, payload)
	noisy := addAWGN(audio, 35, 4)
	res, err := m.Demodulate(noisy)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Payload, payload) {
		t.Fatal("64-QAM should survive 35 dB SNR")
	}
	if res.SNRdB < 15 {
		t.Errorf("reported SNR %g dB implausibly low", res.SNRdB)
	}
}

func TestOFDMQPSKSurvivesModerateNoise(t *testing.T) {
	p := Sonic92()
	p.Constellation = QPSK
	m, _ := NewOFDM(p)
	rng := rand.New(rand.NewSource(5))
	payload := make([]byte, 200)
	rng.Read(payload)
	noisy := addAWGN(modulateFloat(m, payload), 18, 6)
	res, err := m.Demodulate(noisy)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Payload, payload) {
		t.Fatal("QPSK should survive 18 dB SNR")
	}
}

func TestOFDMDegradesGracefully(t *testing.T) {
	// Bit errors should appear as SNR drops, not panics or hangs; at very
	// low SNR demodulation may fail entirely (that's a frame loss).
	m, _ := NewOFDM(Sonic92())
	rng := rand.New(rand.NewSource(7))
	payload := make([]byte, 200)
	rng.Read(payload)
	audio := modulateFloat(m, payload)
	errsAt := func(snr float64) int {
		res, err := m.Demodulate(addAWGN(audio, snr, 8))
		if err != nil {
			return len(payload) * 8 // total loss
		}
		errs := 0
		for i := range payload {
			if i < len(res.Payload) {
				for b := 0; b < 8; b++ {
					if (payload[i]^res.Payload[i])>>uint(b)&1 == 1 {
						errs++
					}
				}
			} else {
				errs += 8
			}
		}
		return errs
	}
	clean := errsAt(40)
	noisy := errsAt(12)
	if clean != 0 {
		t.Errorf("40 dB SNR produced %d bit errors", clean)
	}
	if noisy <= clean {
		t.Errorf("12 dB SNR produced %d errors, expected degradation", noisy)
	}
}

func TestOFDMNoPreambleInSilence(t *testing.T) {
	m, _ := NewOFDM(Sonic92())
	if _, err := m.Demodulate(make([]float64, 48000)); err != ErrNoPreamble {
		t.Errorf("silence: err = %v, want ErrNoPreamble", err)
	}
	rng := rand.New(rand.NewSource(9))
	noise := make([]float64, 48000)
	for i := range noise {
		noise[i] = 0.3 * rng.NormFloat64()
	}
	if _, err := m.Demodulate(noise); err == nil {
		t.Error("pure noise should not demodulate")
	}
}

func TestOFDMTruncatedBurst(t *testing.T) {
	m, _ := NewOFDM(Sonic92())
	payload := make([]byte, 500)
	audio := modulateFloat(m, payload)
	if _, err := m.Demodulate(audio[:len(audio)/2]); err == nil {
		t.Error("truncated burst should fail")
	}
}

func TestOFDMBurstSamplesMatchesModulate(t *testing.T) {
	m, _ := NewOFDM(Sonic92())
	for _, n := range []int{0, 1, 99, 100, 1000} {
		want := m.BurstSamples(n)
		got := len(m.Modulate(make([]byte, n)))
		if got != want {
			t.Errorf("n=%d: BurstSamples=%d but Modulate produced %d", n, want, got)
		}
	}
	if m.BurstDuration(100) <= 0 {
		t.Error("BurstDuration should be positive")
	}
}

func TestHeaderCodec(t *testing.T) {
	h := headerPayload(123456, 6)
	n, bits, err := parseHeader(h)
	if err != nil || n != 123456 || bits != 6 {
		t.Fatalf("parseHeader = %d,%d,%v", n, bits, err)
	}
	h[3] ^= 0xFF
	if _, _, err := parseHeader(h); err == nil {
		t.Error("corrupted header should fail CRC")
	}
	if _, _, err := parseHeader([]byte{1, 2}); err == nil {
		t.Error("short header should fail")
	}
	bad := headerPayload(1, 2)
	bad[0] = 0
	if _, _, err := parseHeader(bad); err == nil {
		t.Error("bad magic should fail")
	}
}

func TestOFDMAllConstellationsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, c := range allConstellations() {
		p := Sonic92()
		p.Constellation = c
		m, err := NewOFDM(p)
		if err != nil {
			t.Fatal(err)
		}
		payload := make([]byte, 150)
		rng.Read(payload)
		res, err := m.Demodulate(modulateFloat(m, payload))
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		if !bytes.Equal(res.Payload, payload) {
			t.Fatalf("%s: clean round trip failed", c.Name())
		}
	}
}
