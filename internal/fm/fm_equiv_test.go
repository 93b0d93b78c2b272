package fm

import (
	"math"
	"math/cmplx"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"sonic/internal/dsp"
)

// Equivalence tests pinning the streaming FM chain to the
// pre-optimization implementations, kept below as verbatim reference
// copies (renamed ref*). The oscillator and noise stages are
// deterministic given the rng and must match bit for bit; the filtered
// stages run through FFT convolution and a periodic pilot table, so the
// fused chain is pinned within floating-point tolerance, plus an SNR-parity
// property test for the full noisy chain where sample-exact comparison
// is not meaningful (an FM discriminator near a phase wrap amplifies
// ulp-level input differences into 2π jumps).

// --- verbatim pre-optimization reference implementations ---

func refModulate(composite []float64) []complex128 {
	dev := float64(MaxDeviation)
	out := make([]complex128, len(composite))
	var phase float64
	k := 2 * math.Pi * dev / CompositeRate
	for i, x := range composite {
		phase += k * x
		if phase > math.Pi {
			phase -= 2 * math.Pi
		} else if phase < -math.Pi {
			phase += 2 * math.Pi
		}
		out[i] = cmplx.Rect(1, phase)
	}
	return out
}

func refDemodulate(envelope []complex128) []float64 {
	dev := float64(MaxDeviation)
	out := make([]float64, len(envelope))
	k := CompositeRate / (2 * math.Pi * dev)
	var prev complex128 = 1
	for i, s := range envelope {
		if i > 0 {
			out[i] = cmplx.Phase(s*cmplx.Conj(prev)) * k
		}
		prev = s
	}
	return out
}

func refAddRFNoise(envelope []complex128, cnrDB float64, rng *rand.Rand) []complex128 {
	sigma := math.Sqrt(math.Pow(10, -cnrDB/10) / 2)
	out := make([]complex128, len(envelope))
	for i, s := range envelope {
		out[i] = s + complex(sigma*rng.NormFloat64(), sigma*rng.NormFloat64())
	}
	return out
}

func refBuildComposite(audio []float64, audioRate int, rds []float64) []float64 {
	up := dsp.Resample(audio, float64(audioRate), CompositeRate)
	lp := dsp.NewFIRFilter(dsp.LowpassFIR(MonoBandHigh, CompositeRate, 127))
	up = lp.ProcessBlock(up)
	comp := make([]float64, len(up))
	for i, v := range up {
		comp[i] = monoDeviationFraction * v
		comp[i] += 0.09 * math.Sin(2*math.Pi*PilotHz*float64(i)/CompositeRate)
		if rds != nil && i < len(rds) {
			comp[i] += 0.05 * rds[i]
		}
	}
	return comp
}

func refSplitComposite(composite []float64, audioRate int) (audio []float64, rdsBand []float64) {
	lp := dsp.NewFIRFilter(dsp.LowpassFIR(MonoBandHigh, CompositeRate, 127))
	mono := lp.ProcessBlock(composite)
	for i := range mono {
		mono[i] /= monoDeviationFraction
	}
	audio = dsp.Resample(mono, CompositeRate, float64(audioRate))

	bp := dsp.NewFIRFilter(dsp.BandpassFIR(57000-3000, 57000+3000, CompositeRate, 255))
	rdsBand = bp.ProcessBlock(composite)
	for i := range rdsBand {
		rdsBand[i] /= 0.05
	}
	return audio, rdsBand
}

func refBroadcast(audio []float64, audioRate int, cnrDB float64, rng *rand.Rand) []float64 {
	comp := refBuildComposite(audio, audioRate, nil)
	mod := refModulate(comp)
	if !math.IsInf(cnrDB, 1) {
		mod = refAddRFNoise(mod, cnrDB, rng)
	}
	rx := refDemodulate(mod)
	out, _ := refSplitComposite(rx, audioRate)
	return out
}

// --- helpers ---

func toneAudio(n int, rng *rand.Rand) []float64 {
	audio := make([]float64, n)
	for i := range audio {
		audio[i] = 0.4*math.Sin(2*math.Pi*2000*float64(i)/48000) + 0.1*rng.NormFloat64()
	}
	return audio
}

func maxAbsDiffF(t *testing.T, a, b []float64) float64 {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("length mismatch: %d vs %d", len(a), len(b))
	}
	var m float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

// snrDB measures got against a clean reference signal.
func snrDB(clean, got []float64) float64 {
	var sig, noise float64
	for i := range clean {
		sig += clean[i] * clean[i]
		d := got[i] - clean[i]
		noise += d * d
	}
	if noise == 0 {
		return math.Inf(1)
	}
	return 10 * math.Log10(sig/noise)
}

// --- oscillator stages: bit-identical ---

func TestModulateMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	comp := make([]float64, 30000)
	for i := range comp {
		comp[i] = 1.2*math.Sin(float64(i)/11) + 0.05*rng.NormFloat64()
	}
	want := refModulate(comp)
	got := make([]complex128, len(comp))
	modulateInto(got, comp)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sample %d differs: %v vs %v", i, got[i], want[i])
		}
	}
}

func TestDemodulateMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	comp := toneAudio(20000, rng)
	env := make([]complex128, len(comp))
	modulateInto(env, comp)
	AddRFNoise(env, 12, rng) // include click-noise territory
	want := refDemodulate(env)
	// Worker count must not change a single bit: each block re-reads its
	// predecessor sample.
	for _, w := range []int{1, 2, 3, 8} {
		dst := make([]float64, len(env))
		demodulateInto(dst, env, w)
		for i := range want {
			if dst[i] != want[i] {
				t.Fatalf("workers=%d: sample %d differs: %v vs %v", w, i, dst[i], want[i])
			}
		}
	}
}

func TestAddRFNoiseMatchesReference(t *testing.T) {
	env := make([]complex128, 10000)
	for i := range env {
		s, c := math.Sincos(float64(i) / 7)
		env[i] = complex(c, s)
	}
	want := refAddRFNoise(env, 15, rand.New(rand.NewSource(7)))
	got := make([]complex128, len(env))
	copy(got, env)
	ret := AddRFNoise(got, 15, rand.New(rand.NewSource(7)))
	if &ret[0] != &got[0] {
		t.Fatal("AddRFNoise no longer operates in place")
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sample %d differs: rng draw order changed", i)
		}
	}
}

// --- full chain ---

// At a CNR far above the FM threshold no discriminator sample sits near
// a phase wrap, so the chain output tracks the reference within the
// filters' rounding tolerance.
func TestBroadcastMatchesReferenceCleanChannel(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	audio := toneAudio(24000, rng)
	want := refBroadcast(audio, 48000, 40, rand.New(rand.NewSource(5)))
	got := broadcastChain(audio, 48000, 40, rand.New(rand.NewSource(5)), 1)
	if d := maxAbsDiffF(t, got, want); d > 1e-6 {
		t.Errorf("max diff %g at 40 dB CNR", d)
	}
	// Noiseless: +Inf CNR skips the noise stage entirely.
	wantClean := refBroadcast(audio, 48000, math.Inf(1), nil)
	gotClean := broadcastChain(audio, 48000, math.Inf(1), nil, 1)
	if d := maxAbsDiffF(t, gotClean, wantClean); d > 1e-6 {
		t.Errorf("max diff %g on noiseless chain", d)
	}
}

// FMLink.Transmit sizes the chain's pool from GOMAXPROCS. The noise
// draw is one serial rng stream and every other stage writes dst[i]
// from src[i], so the chain — noiseless, and noisy at a CNR near the FM
// threshold — must come out byte-identical at any processor count: a
// result is a function of the seed alone.
func TestBroadcastProcsIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	audio := toneAudio(24000, rng)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	link := func() []float64 {
		l := &FMLink{RSSI: -88, Rng: rand.New(rand.NewSource(9))}
		return l.Transmit(audio, 48000)
	}
	chain := func(cnr float64, rng *rand.Rand) []float64 {
		return broadcastChain(audio, 48000, cnr, rng, runtime.GOMAXPROCS(0))
	}
	wantClean := chain(math.Inf(1), nil)
	wantNoisy := chain(15, rand.New(rand.NewSource(9)))
	wantLink := link()
	for _, procs := range []int{2, 4} {
		runtime.GOMAXPROCS(procs)
		for name, pair := range map[string][2][]float64{
			"noiseless chain": {chain(math.Inf(1), nil), wantClean},
			"15 dB chain":     {chain(15, rand.New(rand.NewSource(9))), wantNoisy},
			"-88 dB FMLink":   {link(), wantLink},
		} {
			if d := maxAbsDiffF(t, pair[0], pair[1]); d != 0 {
				t.Fatalf("GOMAXPROCS=%d: %s differs from the serial chain by up to %g", procs, name, d)
			}
		}
	}
}

// Near the FM threshold individual samples diverge from the reference
// (phase wraps amplify the filters' rounding differences), but the
// channel quality must be statistically indistinguishable from it.
func TestBroadcastSNRParity(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	audio := toneAudio(24000, rng)
	clean := refBroadcast(audio, 48000, math.Inf(1), nil)
	refSNR := snrDB(clean, refBroadcast(audio, 48000, 15, rand.New(rand.NewSource(9))))
	got := broadcastChain(audio, 48000, 15, rand.New(rand.NewSource(9)), runtime.GOMAXPROCS(0))
	if gotSNR := snrDB(clean, got); math.Abs(gotSNR-refSNR) > 1.0 {
		t.Errorf("SNR %0.2f dB vs reference %0.2f dB", gotSNR, refSNR)
	}
}

// --- regression guards ---

func TestBroadcastAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	audio := toneAudio(4800, rng)
	broadcastChain(audio, 48000, 30, rng, 1) // warm pools
	allocs := testing.AllocsPerRun(10, func() {
		broadcastChain(audio, 48000, 30, rng, 1)
	})
	// Steady state: the returned audio slice plus a handful of fixed-size
	// headers — independent of signal length. The old chain allocated a
	// fresh slice per stage (≥10 signal-sized buffers per call). The plain
	// bound is the measured count plus one (6 on 60 samples of 61, 7 on
	// one; 2-vCPU host), so a pooled buffer or convolver workspace that is
	// not put back fails it; under -race, where sync.Pool sheds items, the
	// tripwire is per-stage signal-sized buffers (dozens per call).
	bound := 7.0
	if raceEnabled {
		bound = 16
	}
	if allocs > bound {
		t.Errorf("the FM chain allocates %v objects per call, want <= %v", allocs, bound)
	}
}

func TestBroadcastConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	audio := toneAudio(9600, rng)
	want := broadcastChain(audio, 48000, math.Inf(1), nil, 2)
	var wg sync.WaitGroup
	errs := make(chan int, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := 0; it < 3; it++ {
				got := broadcastChain(audio, 48000, math.Inf(1), nil, 2)
				for i := range got {
					if got[i] != want[i] {
						errs <- i
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if i, bad := <-errs; bad {
		t.Fatalf("concurrent FM chain diverged at sample %d", i)
	}
}
