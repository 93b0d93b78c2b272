package fm

import (
	"math"
	"math/rand"

	"sonic/internal/dsp"
	"sonic/internal/parallel"
	"sonic/internal/telemetry"
)

// The chain's per-sample stages (discriminator demodulation, composite
// mixing) are data-parallel across contiguous sample blocks; modulation
// is a serial phase recurrence and the noise draw a serial rng stream,
// so both stay on one goroutine. Broadcast and FMLink.Transmit size the
// pool from GOMAXPROCS.

// parallelBlockMin is the smallest per-worker block worth a goroutine;
// below it the fixed spawn/join cost dwarfs the loop body.
const parallelBlockMin = 4096

// chainOpts carries the cross-cutting knobs of one chain run. The zero
// value is valid: serial, untraced.
type chainOpts struct {
	workers int
	// span, when non-nil, is the parent ("fm.transmit") for the per-stage
	// child spans (build_composite, modulate, add_noise, demodulate,
	// split_composite). All span calls are nil-safe.
	span *telemetry.Span
}

// broadcastChain is the fused modulator→channel→receiver pipeline behind
// Broadcast and FMLink.Transmit:
//
//   - the composite, envelope and received-composite signals live in two
//     pooled buffers (one real, one complex) reused across calls;
//   - every stage between the resample-in and resample-out operates in
//     place, so a call performs O(1) slice allocations regardless of
//     signal length;
//   - the noise draw is serial (AddRFNoise's rng order is its contract)
//     and every other stage writes dst[i] from src[i], so the output is
//     a function of the seed alone, never of the worker count.
func broadcastChain(audio []float64, audioRate int, cnrDB float64, rng *rand.Rand, o chainOpts) []float64 {
	n := dsp.ResampleLen(len(audio), float64(audioRate), CompositeRate)
	if n == 0 {
		return nil
	}
	compBuf := getF64(n)
	comp := *compBuf

	// build_composite: upsample, band-limit, mix in the pilot.
	sp := o.span.StartChild("build_composite")
	comp = dsp.ResampleInto(comp, audio, float64(audioRate), CompositeRate)
	comp = monoConvolver().Apply(comp, comp)
	pilot := pilotTable()
	parallel.For(o.workers, len(comp), parallelBlockMin, func(lo, hi int) {
		j := lo % len(pilot)
		for i := lo; i < hi; i++ {
			comp[i] = monoDeviationFraction*comp[i] + pilot[j]
			if j++; j == len(pilot) {
				j = 0
			}
		}
	})
	sp.End()

	// modulate: serial phase-accumulating oscillator.
	sp = o.span.StartChild("modulate")
	envBuf := getC128(n)
	env := *envBuf
	modulateInto(env, comp)
	sp.End()

	// add_noise: the RF hop.
	if !math.IsInf(cnrDB, 1) {
		sp = o.span.StartChild("add_noise")
		AddRFNoise(env, cnrDB, rng)
		sp.End()
	}

	// demodulate: quadrature discriminator, reusing the composite buffer.
	sp = o.span.StartChild("demodulate")
	demodulateInto(comp, env, o.workers)
	putC128(envBuf)
	sp.End()

	// split_composite: mono lowpass, de-emphasis of the deviation share,
	// downsample.
	sp = o.span.StartChild("split_composite")
	comp = monoConvolver().Apply(comp, comp)
	parallel.For(o.workers, len(comp), parallelBlockMin, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			comp[i] /= monoDeviationFraction
		}
	})
	out := dsp.ResampleInto(nil, comp, CompositeRate, float64(audioRate))
	putF64(compBuf)
	sp.End()
	return out
}
