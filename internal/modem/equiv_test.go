package modem

import (
	"bytes"
	"errors"
	"fmt"
	"math/cmplx"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"sonic/internal/dsp"
	"sonic/internal/fec"
)

// This file pins the optimized modem (pooled FFT scratch, preallocated
// burst buffer, FFT overlap-save preamble search) to verbatim copies of
// the pre-optimization implementations. Modulation must be bit-identical
// (the planned FFT is exact); preamble sync must pick the same sample.

func refSynthesize(m *OFDM, values []complex128) []float64 {
	n := m.p.FFTSize
	spec := make([]complex128, n)
	for i, bin := range m.bins {
		spec[bin] = values[i]
		spec[n-bin] = cmplx.Conj(values[i])
	}
	if err := dsp.IFFT(spec); err != nil {
		panic("modem: FFT size not power of two despite validation")
	}
	g := m.symbolGain()
	out := make([]float64, m.p.CyclicPrefix+n)
	for i := 0; i < n; i++ {
		out[m.p.CyclicPrefix+i] = g * real(spec[i])
	}
	copy(out, out[n:])
	return out
}

func refModSymbols(m *OFDM, bits []byte, c *Constellation) []float64 {
	bps := m.p.DataCarriers * c.Bits()
	var out []float64
	for off := 0; off < len(bits); off += bps {
		end := off + bps
		var chunk []byte
		if end <= len(bits) {
			chunk = bits[off:end]
		} else {
			chunk = make([]byte, bps)
			copy(chunk, bits[off:])
		}
		values := make([]complex128, len(m.bins))
		bi := 0
		for i := range m.bins {
			if m.isPilot[i] {
				values[i] = m.pilotVal[i]
				continue
			}
			values[i] = c.Map(chunk[bi : bi+c.Bits()])
			bi += c.Bits()
		}
		out = append(out, refSynthesize(m, values)...)
	}
	return out
}

func refModulate(m *OFDM, payload []byte) []float64 {
	var out []float64
	out = append(out, m.preamble...)
	out = append(out, make([]float64, guardSamples)...)
	out = append(out, refSynthesize(m, m.refSym)...)
	hdrBits := fec.BytesToBits(headerPayload(len(payload), m.p.Constellation.Bits()))
	var repBits []byte
	for r := 0; r < headerRep; r++ {
		repBits = append(repBits, hdrBits...)
	}
	out = append(out, refModSymbols(m, repBits, m.header)...)
	out = append(out, refModSymbols(m, fec.BytesToBits(payload), m.p.Constellation)...)
	dsp.Normalize(out, m.p.Amplitude)
	out = append(out, make([]float64, guardSamples)...)
	return out
}

func refFindPreamble(m *OFDM, samples []float64) int {
	const (
		window    = 1 << 16
		threshold = 0.25
	)
	n := len(samples) - len(m.preamble) + 1
	if n <= 0 {
		return -1
	}
	for off := 0; off < n; off += window {
		end := off + window + len(m.preamble) - 1
		if end > len(samples) {
			end = len(samples)
		}
		cc := dsp.NormalizedCrossCorrelate(samples[off:end], m.preamble)
		if cc == nil {
			continue
		}
		idx := dsp.ArgMax(cc)
		if idx >= 0 && cc[idx] >= threshold {
			return off + idx
		}
	}
	return -1
}

func TestModulateMatchesReference(t *testing.T) {
	for _, pc := range []struct {
		prof    Profile
		noiseDB float64 // enough noise for bit errors, not enough to lose sync
	}{{Sonic92(), 14}, {Audible7k(), 3}} {
		prof := pc.prof
		m, err := NewOFDM(prof)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(31))
		for _, n := range []int{1, 3, 184, 2048} {
			payload := make([]byte, n)
			rng.Read(payload)
			want := refModulate(m, payload)
			got := m.Modulate(payload)
			if len(got) != len(want) {
				t.Fatalf("%s n=%d: %d samples, want %d", prof.Name, n, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s n=%d: sample %d differs: %v != %v", prof.Name, n, i, got[i], want[i])
				}
			}
			if len(got) != m.BurstSamples(n) {
				t.Fatalf("%s n=%d: BurstSamples says %d, Modulate produced %d", prof.Name, n, m.BurstSamples(n), len(got))
			}
		}
	}
}

func TestFindPreambleMatchesReference(t *testing.T) {
	m, err := NewOFDM(Sonic92())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(33))
	payload := make([]byte, 512)
	rng.Read(payload)
	burst := m.Modulate(payload)

	sc := m.getScratch()
	defer m.putScratch(sc)

	for _, lead := range []int{0, 1000, 70000} { // 70000 crosses a search window
		samples := make([]float64, lead+len(burst))
		for i := 0; i < lead; i++ {
			samples[i] = 0.01 * rng.NormFloat64()
		}
		copy(samples[lead:], burst)
		// Mild channel noise on top.
		for i := range samples {
			samples[i] += 0.005 * rng.NormFloat64()
		}
		want := refFindPreamble(m, samples)
		got := m.findPreamble(samples, sc)
		if got != want {
			t.Fatalf("lead=%d: findPreamble=%d, reference=%d", lead, got, want)
		}
		if want < 0 {
			t.Fatalf("lead=%d: reference did not find the preamble (test setup broken)", lead)
		}
	}

	// Pure noise: both must reject.
	noise := make([]float64, 100000)
	for i := range noise {
		noise[i] = 0.3 * rng.NormFloat64()
	}
	if got, want := m.findPreamble(noise, sc), refFindPreamble(m, noise); got != want || got != -1 {
		t.Fatalf("noise: findPreamble=%d, reference=%d, want -1", got, want)
	}
}

// refDemodulate is Demodulate as it was before the symbol loop went
// parallel (one scratch, bits appended symbol by symbol, SNR summed as it
// goes), kept verbatim as the parity reference.
func refDemodulate(m *OFDM, samples []float64) (*DemodResult, error) {
	sc := m.getScratch()
	defer m.putScratch(sc)
	bh, err := m.decodePrologue(samples, sc)
	if err != nil {
		return nil, err
	}
	bps := m.p.DataCarriers * bh.c.Bits()
	totalBits := bh.payloadLen * 8
	nSym := (totalBits + bps - 1) / bps
	bits := make([]byte, 0, nSym*bps)
	pos := bh.pos
	var snrSum float64
	for s := 0; s < nSym; s++ {
		if pos+bh.symLen > len(samples) {
			return nil, fmt.Errorf("modem: burst truncated at symbol %d/%d", s, nSym)
		}
		vals, snr := m.eqSymbol(samples[pos:pos+bh.symLen], bh.h, sc)
		snrSum += snr
		bits = m.demapInto(bits, vals, bh.c)
		pos += bh.symLen
	}
	payload := fec.BitsToBytes(bits)
	if len(payload) > bh.payloadLen {
		payload = payload[:bh.payloadLen]
	}
	res := &DemodResult{
		Payload:  payload,
		Symbols:  nSym,
		StartIdx: bh.start,
	}
	if nSym > 0 {
		res.SNRdB = snrSum / float64(nSym)
	}
	return res, nil
}

// TestDemodulateParityAcrossGOMAXPROCS pins the parallel symbol loop to
// the serial reference at 1, 2 and 4 procs: same payload, bit-identical
// SNR (the per-symbol estimates are summed in index order), same symbol
// count and start, and the same error — text included — for a burst cut
// off mid-symbol.
func TestDemodulateParityAcrossGOMAXPROCS(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	payload := make([]byte, 8192) // ~119 payload symbols at 64-QAM
	rng.Read(payload)
	for _, pc := range []struct {
		prof    Profile
		noiseDB float64 // enough noise for bit errors, not enough to lose sync
	}{{Sonic92(), 14}, {Audible7k(), 3}} {
		prof := pc.prof
		m, err := NewOFDM(prof)
		if err != nil {
			t.Fatal(err)
		}
		clean := m.Modulate(payload)
		symLen := prof.FFTSize + prof.CyclicPrefix
		bursts := []struct {
			name    string
			samples []float64
		}{
			{"clean", clean},
			{"scattered bit errors", addAWGN(clean, pc.noiseDB, 5)},
			{"leading silence", append(make([]float64, 3001), clean...)},
			{"truncated mid-symbol", clean[:len(clean)-guardSamples-40*symLen-symLen/3]},
			{"truncated inside the first payload symbol", clean[:m.BurstSamples(0)-guardSamples+symLen/2]},
			{"three symbols", m.Modulate(payload[:3*m.bitsPerSymbol()/8])},
			{"empty payload", m.Modulate(nil)},
		}
		for _, procs := range []int{1, 2, 4} {
			prev := runtime.GOMAXPROCS(procs)
			for _, tc := range bursts {
				want, wantErr := refDemodulate(m, tc.samples)
				got, err := m.Demodulate(tc.samples)
				if fmt.Sprint(err) != fmt.Sprint(wantErr) {
					t.Errorf("%s GOMAXPROCS=%d %s: error %q, reference %q", prof.Name, procs, tc.name, err, wantErr)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s GOMAXPROCS=%d %s: result differs from the serial reference", prof.Name, procs, tc.name)
				}
			}
			runtime.GOMAXPROCS(prev)
		}
		// The cases above must be what their names say.
		if res, _ := m.Demodulate(bursts[1].samples); res == nil || bytes.Equal(res.Payload, payload) {
			t.Errorf("%s: the noisy burst carries no bit errors (or did not sync)", prof.Name)
		}
		if _, err := m.Demodulate(bursts[3].samples); err == nil {
			t.Errorf("%s: the truncated burst demodulated", prof.Name)
		}
	}
}

func TestOFDMConcurrentUse(t *testing.T) {
	// One OFDM shared by goroutines (run with -race): immutable tables +
	// pooled scratch must make Modulate/Demodulate independent.
	m, err := NewOFDM(Sonic92())
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 4)
	for g := 0; g < 4; g++ {
		go func(seed int64) {
			rng := rand.New(rand.NewSource(seed))
			payload := make([]byte, 256+rng.Intn(512))
			rng.Read(payload)
			burst := m.Modulate(payload)
			for i := 0; i < 3; i++ {
				res, err := m.Demodulate(burst)
				if err != nil {
					done <- err
					return
				}
				if !bytes.Equal(res.Payload, payload) {
					done <- errPayloadMismatch
					return
				}
			}
			done <- nil
		}(int64(g))
	}
	for g := 0; g < 4; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestDemodulateAllocsFlat asserts the zero-alloc steady state of the
// per-symbol paths: total allocations per Demodulate call must not scale
// with the number of payload symbols (only with the returned payload).
func TestDemodulateAllocsFlat(t *testing.T) {
	m, err := NewOFDM(Sonic92())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(40))
	small := make([]byte, 512)  // ~8 payload symbols
	large := make([]byte, 8192) // ~119 payload symbols
	rng.Read(small)
	rng.Read(large)
	bSmall := m.Modulate(small)
	bLarge := m.Modulate(large)
	measure := func(burst []float64) float64 {
		return testing.AllocsPerRun(10, func() {
			if _, err := m.Demodulate(burst); err != nil {
				t.Fatal(err)
			}
		})
	}
	measure(bSmall) // warm the scratch pool
	aSmall := measure(bSmall)
	aLarge := measure(bLarge)
	if aLarge > aSmall+3 {
		t.Errorf("Demodulate allocations scale with symbols: %v (small) vs %v (large)", aSmall, aLarge)
	}
	if aLarge > 25 {
		t.Errorf("Demodulate does %v allocs/run, want <= 25", aLarge)
	}
}

var errPayloadMismatch = errors.New("modem: demodulated payload mismatch")
