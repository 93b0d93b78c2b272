package fm

import (
	"math"
	"sync"

	"sonic/internal/dsp"
)

// FIR design is a pure function of (cutoff, rate, tap count), and both
// the designed taps and the FFT convolver planned from them are
// immutable, so convolvers live in a process-wide cache keyed by the
// design parameters. Convolvers are safe for concurrent use (their
// scratch is pooled internally), so one cached instance serves every
// goroutine.

// filterKey identifies one lowpass FIR design.
type filterKey struct {
	cutoff float64
	rate   float64
	taps   int
}

var convCache sync.Map // filterKey -> *dsp.FFTConvolver

// lowpassConvolver returns the shared overlap-save convolver for a
// lowpass design.
func lowpassConvolver(cutoff, rate float64, taps int) *dsp.FFTConvolver {
	key := filterKey{cutoff: cutoff, rate: rate, taps: taps}
	if c, ok := convCache.Load(key); ok {
		return c.(*dsp.FFTConvolver)
	}
	conv := dsp.NewFFTConvolver(dsp.LowpassFIR(cutoff, rate, taps))
	c, _ := convCache.LoadOrStore(key, conv)
	return c.(*dsp.FFTConvolver)
}

// monoConvolver is the 127-tap mono-channel lowpass at CompositeRate used
// by both directions of the composite chain.
func monoConvolver() *dsp.FFTConvolver {
	return lowpassConvolver(MonoBandHigh, CompositeRate, monoFilterTaps)
}

const monoFilterTaps = 127

// The 19 kHz pilot is exactly periodic in the 192 kHz composite clock:
// gcd(19000, 192000) = 1000, so the waveform repeats every 192 samples.
// A one-period table replaces a math.Sin call per composite sample —
// and unlike a recurrence oscillator it cannot drift over long buffers.
var (
	pilotOnce sync.Once
	pilotTab  []float64
)

// pilotTable returns the scaled one-period pilot waveform,
// 0.09·sin(2π·PilotHz·i/CompositeRate) for i in [0, period).
func pilotTable() []float64 {
	pilotOnce.Do(func() {
		g := gcd(PilotHz, CompositeRate)
		period := CompositeRate / g
		pilotTab = make([]float64, period)
		for i := range pilotTab {
			pilotTab[i] = 0.09 * math.Sin(2*math.Pi*PilotHz*float64(i)/CompositeRate)
		}
	})
	return pilotTab
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// Pooled sample buffers shared by the chain stages. Pools hold pointers
// to slices (the usual sync.Pool idiom avoiding header allocations);
// buffers grow monotonically to the largest request seen.

var (
	f64Pool  = sync.Pool{New: func() any { return new([]float64) }}
	c128Pool = sync.Pool{New: func() any { return new([]complex128) }}
)

// getF64 returns a pooled float64 buffer of length n.
func getF64(n int) *[]float64 {
	p := f64Pool.Get().(*[]float64)
	if cap(*p) < n {
		*p = make([]float64, n)
	}
	*p = (*p)[:n]
	return p
}

func putF64(p *[]float64) { f64Pool.Put(p) }

// getC128 returns a pooled complex128 buffer of length n.
func getC128(n int) *[]complex128 {
	p := c128Pool.Get().(*[]complex128)
	if cap(*p) < n {
		*p = make([]complex128, n)
	}
	*p = (*p)[:n]
	return p
}

func putC128(p *[]complex128) { c128Pool.Put(p) }
