package fm

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

func tone(hz float64, n int, rate float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Sin(2 * math.Pi * hz * float64(i) / rate)
	}
	return out
}

// goertzel computes the magnitude of the DFT bin closest to targetHz for
// the block x sampled at sampleRate: the standard single-bin tone
// detector the tone tests measure with.
func goertzel(x []float64, targetHz, sampleRate float64) float64 {
	n := len(x)
	if n == 0 {
		return 0
	}
	k := math.Round(float64(n) * targetHz / sampleRate)
	w := 2 * math.Pi * k / float64(n)
	coeff := 2 * math.Cos(w)
	var s0, s1, s2 float64
	for _, v := range x {
		s0 = v + coeff*s1 - s2
		s2 = s1
		s1 = s0
	}
	power := s1*s1 + s2*s2 - coeff*s1*s2
	if power < 0 {
		power = 0
	}
	return math.Sqrt(power)
}

func TestFMModDemodRoundTrip(t *testing.T) {
	// A composite-rate tone should survive modulation and discrimination.
	x := tone(5000, 19200, CompositeRate)
	for i := range x {
		x[i] *= 0.5
	}
	mod := make([]complex128, len(x))
	modulateInto(mod, x)
	for i, s := range mod {
		if math.Abs(real(s)*real(s)+imag(s)*imag(s)-1) > 1e-9 {
			t.Fatalf("envelope magnitude not 1 at %d", i)
		}
	}
	rx := make([]float64, len(mod))
	demodulateInto(rx, mod, 1)
	// Skip the first samples (discriminator warmup), compare the rest.
	var errSum, sigSum float64
	for i := 100; i < len(x); i++ {
		d := rx[i] - x[i]
		errSum += d * d
		sigSum += x[i] * x[i]
	}
	if snr := 10 * math.Log10(sigSum/errSum); snr < 60 {
		t.Errorf("clean FM round trip SNR = %.1f dB, want > 60", snr)
	}
}

func TestFMHighCNRIsClean(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := tone(1000, 9600, 48000)
	rx := broadcastChain(x, 48000, 50, rng, 1)
	// Compare steady-state region via correlation-based gain estimate.
	if len(rx) < len(x)-200 {
		t.Fatalf("output too short: %d vs %d", len(rx), len(x))
	}
	g1 := goertzel(rx[200:len(rx)-200], 1000, 48000)
	g3 := goertzel(rx[200:len(rx)-200], 3300, 48000)
	if g1 < 20*g3 {
		t.Errorf("tone not dominant after broadcast: 1k=%g 3.3k=%g", g1, g3)
	}
}

func TestFMThresholdEffect(t *testing.T) {
	// Below ~10 dB CNR the FM discriminator output collapses; audio SNR
	// should be dramatically worse at 5 dB CNR than at 30 dB CNR.
	audioSNR := func(cnr float64) float64 {
		rng := rand.New(rand.NewSource(2))
		x := tone(1000, 19200, 48000)
		for i := range x {
			x[i] *= 0.5
		}
		rx := broadcastChain(x, 48000, cnr, rng, 1)
		n := len(rx)
		sig := goertzel(rx[500:n-500], 1000, 48000)
		noise := goertzel(rx[500:n-500], 4321, 48000) +
			goertzel(rx[500:n-500], 7777, 48000)
		return 20 * math.Log10(sig/(noise/2+1e-12))
	}
	hi := audioSNR(30)
	lo := audioSNR(5)
	if hi-lo < 15 {
		t.Errorf("no threshold effect: 30dB CNR -> %.1f, 5dB CNR -> %.1f", hi, lo)
	}
}

func TestRSSIModel(t *testing.T) {
	// CNR at the paper's total-loss boundary (-90 dB) should be near the
	// FM threshold (~11 dB).
	cnr := cnrForRSSI(-90)
	if cnr < 8 || cnr > 14 {
		t.Errorf("CNR at -90 dB RSSI = %g, want near FM threshold", cnr)
	}
	// One dB of RSSI is one dB of CNR.
	if d := cnrForRSSI(-70) - cnrForRSSI(-85); d != 15 {
		t.Errorf("CNR moves %g dB over a 15 dB RSSI step", d)
	}
}

func TestAcousticModelShape(t *testing.T) {
	if !math.IsInf(meanSNRAt(0), 1) {
		t.Error("cable should be infinite SNR")
	}
	// Monotone decreasing.
	prev := math.Inf(1)
	for _, d := range []float64{0.1, 0.2, 0.5, 1.0, 1.1, 1.5} {
		s := meanSNRAt(d)
		if s >= prev {
			t.Errorf("SNR not decreasing at %gm", d)
		}
		prev = s
	}
	// Near field strong, far field collapsed.
	if meanSNRAt(0.1) < 35 {
		t.Errorf("10cm SNR = %g, want strong", meanSNRAt(0.1))
	}
	if meanSNRAt(1.3) > 10 {
		t.Errorf("1.3m SNR = %g, want collapsed", meanSNRAt(1.3))
	}
}

func TestAcousticTransmitCable(t *testing.T) {
	link := &AcousticLink{Rng: rand.New(rand.NewSource(3))}
	in := tone(1000, 4800, 48000)
	out := link.Transmit(in, 48000)
	for i := range in {
		if out[i] != in[i] {
			t.Fatal("cable transmit must be lossless")
		}
	}
	out[0] = 99
	if in[0] == 99 {
		t.Error("cable transmit aliases input")
	}
}

func TestAcousticTransmitAddsDistanceNoise(t *testing.T) {
	// The noise stage alone, so the comparison below measures noise
	// rather than FIR group delay or the echo.
	in := tone(9200, 9600, 48000)
	snrOf := func(d float64, seed int64) float64 {
		out := append([]float64(nil), in...)
		addTimeVaryingNoise(out, 48000, d, rand.New(rand.NewSource(seed)))
		var sig, errp float64
		for i := 200; i < len(in); i++ {
			sig += in[i] * in[i]
			dlt := out[i] - in[i]
			errp += dlt * dlt
		}
		return 10 * math.Log10(sig/errp)
	}
	near := snrOf(0.1, 4)
	far := snrOf(1.0, 4)
	if near-far < 10 {
		t.Errorf("distance should cost SNR: 0.1m=%.1f 1m=%.1f", near, far)
	}
}

func TestChainAndLinks(t *testing.T) {
	in := tone(1000, 4800, 48000)
	chain := Chain{CableLink{}, &AWGNLink{SNRdB: math.Inf(1)}}
	out := chain.Transmit(in, 48000)
	for i := range in {
		if math.Abs(out[i]-in[i]) > 1e-12 {
			t.Fatal("lossless chain altered signal")
		}
	}
	noisy := (&AWGNLink{SNRdB: 10, Rng: rand.New(rand.NewSource(5))}).Transmit(in, 48000)
	var diff float64
	for i := range in {
		diff += math.Abs(noisy[i] - in[i])
	}
	if diff == 0 {
		t.Error("AWGN link added no noise")
	}
}

// The link takes its RSSI as given, 0 dB included: a stronger signal
// means less noise.
func TestFMLinkRSSISelection(t *testing.T) {
	in := tone(1000, 4800, 48000)
	clean := broadcastChain(in, 48000, math.Inf(1), nil, 1)
	snrAt := func(rssi float64) float64 {
		return snrDB(clean, (&FMLink{RSSI: rssi}).Transmit(in, 48000))
	}
	if strong, weak := snrAt(0), snrAt(-88); strong <= weak {
		t.Errorf("0 dB RSSI gives %.1f dB SNR, -88 dB gives %.1f dB", strong, weak)
	}
}

func BenchmarkFMBroadcast100ms(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := tone(9200, 4800, 48000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		broadcastChain(x, 48000, 30, rng, runtime.GOMAXPROCS(0))
	}
}
