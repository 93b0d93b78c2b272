package modem

import (
	"bytes"
	"math/rand"
	"testing"
)

func TestCable64kRate(t *testing.T) {
	p := Cable64k()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// Quiet's claim: up to 64 kbps over an audio jack cable.
	if raw := p.RawBitRate(); raw < 64000 {
		t.Errorf("raw rate %.0f bps, want >= 64 kbps", raw)
	}
}

func TestCable64kCleanCableRoundTrip(t *testing.T) {
	m, err := NewOFDM(Cable64k())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	payload := make([]byte, 2000)
	rng.Read(payload)
	res, err := m.Demodulate(modulateFloat(m, payload))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Payload, payload) {
		t.Fatal("1024-QAM cable round trip failed")
	}
}

func TestCable64kFragileOverAir(t *testing.T) {
	// The reason the broadcast profile is 64-QAM: 1024-QAM cannot take
	// air-channel noise that the Sonic92 profile shrugs off.
	m64k, _ := NewOFDM(Cable64k())
	mAir, _ := NewOFDM(Sonic92())
	payload := make([]byte, 500)
	rand.New(rand.NewSource(2)).Read(payload)
	byteErrs := func(m *OFDM, snr float64) int {
		noisy := addAWGN(modulateFloat(m, payload), snr, 3)
		res, err := m.Demodulate(noisy)
		if err != nil {
			return len(payload)
		}
		errs := 0
		for i := range payload {
			if i >= len(res.Payload) || res.Payload[i] != payload[i] {
				errs++
			}
		}
		return errs
	}
	const snr = 26
	if e := byteErrs(mAir, snr); e != 0 {
		t.Errorf("Sonic92 at %v dB: %d byte errors, want 0", snr, e)
	}
	if e := byteErrs(m64k, snr); e == 0 {
		t.Errorf("Cable64k at %v dB should degrade (it is a cable-only profile)", snr)
	}
}
