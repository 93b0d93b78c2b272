package fm

import (
	"math"
	"math/rand"

	"sonic/internal/dsp"
	"sonic/internal/parallel"
)

// The chain's per-sample stages (discriminator demodulation, composite
// mixing) are data-parallel across contiguous sample blocks; modulation
// is a serial phase recurrence and the noise draw a serial rng stream,
// so both stay on one goroutine. FMLink.Transmit sizes the pool from
// GOMAXPROCS.

// parallelBlockMin is the smallest per-worker block worth a goroutine;
// below it the fixed spawn/join cost dwarfs the loop body.
const parallelBlockMin = 4096

// broadcastChain is the fused modulator→channel→receiver pipeline behind
// FMLink.Transmit, run on up to workers goroutines (0 or 1: serial):
//
//   - the composite, envelope and received-composite signals live in two
//     pooled buffers (one real, one complex) reused across calls;
//   - every stage between the resample-in and resample-out operates in
//     place, so a call performs O(1) slice allocations regardless of
//     signal length;
//   - the noise draw is serial (AddRFNoise's rng order is its contract)
//     and every other stage writes dst[i] from src[i], so the output is
//     a function of the seed alone, never of the worker count.
func broadcastChain(audio []float64, audioRate int, cnrDB float64, rng *rand.Rand, workers int) []float64 {
	n := dsp.ResampleLen(len(audio), float64(audioRate), CompositeRate)
	if n == 0 {
		return nil
	}
	compBuf := getF64(n)
	comp := *compBuf

	// Composite: upsample, band-limit, mix in the pilot.
	comp = dsp.ResampleInto(comp, audio, float64(audioRate), CompositeRate)
	comp = monoConvolver().Apply(comp, comp)
	pilot := pilotTable()
	parallel.For(workers, len(comp), parallelBlockMin, func(lo, hi int) {
		j := lo % len(pilot)
		for i := lo; i < hi; i++ {
			comp[i] = monoDeviationFraction*comp[i] + pilot[j]
			if j++; j == len(pilot) {
				j = 0
			}
		}
	})

	// Modulate: serial phase-accumulating oscillator.
	envBuf := getC128(n)
	env := *envBuf
	modulateInto(env, comp)

	// The RF hop.
	if !math.IsInf(cnrDB, 1) {
		AddRFNoise(env, cnrDB, rng)
	}

	// Demodulate: quadrature discriminator, reusing the composite buffer.
	demodulateInto(comp, env, workers)
	putC128(envBuf)

	// Split the composite: mono lowpass, de-emphasis of the deviation share,
	// downsample.
	comp = monoConvolver().Apply(comp, comp)
	parallel.For(workers, len(comp), parallelBlockMin, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			comp[i] /= monoDeviationFraction
		}
	})
	out := dsp.ResampleInto(nil, comp, CompositeRate, float64(audioRate))
	putF64(compBuf)
	return out
}
