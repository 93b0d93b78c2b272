// Package fm simulates the FM radio infrastructure SONIC repurposes: a
// software FM modulator/demodulator operating on the complex baseband
// envelope, the part of the composite FM baseband from the paper's
// Figure 2 that SONIC uses (mono 30 Hz–15 kHz plus the 19 kHz stereo
// pilot; no stereo difference or RDS subcarrier is generated), the
// radio hop's one calibration from measured RSSI to carrier-to-noise
// ratio (CNR = RSSI + 103 dB), and an acoustic over-the-air model for the
// speaker→microphone hop between a radio and a phone. The channel
// constants are fixed: the paper's experiments sweep RSSI and
// speaker-to-phone distance, which are the links' only settings.
//
// The paper's prototype transmits SONIC audio in the Mono channel with a
// 9.2 kHz carrier center; this package carries exactly that audio through
// a faithful software RF chain so that frame-loss behaviour emerges from
// channel physics (noise, FM threshold, band limits) rather than from a
// hard-coded loss table.
//
// The chain is implemented as a block-streaming pipeline: band-limiting
// runs through cached overlap-save FFT convolvers (dsp.FFTConvolver)
// instead of per-sample direct FIR convolution, the oscillators use
// math.Sincos and a one-period pilot table instead of cmplx.Rect /
// math.Sin per sample, and the stages between resampling in and
// resampling out operate in place on pooled buffers, so FMLink.Transmit
// performs O(1) slice allocations per call regardless of signal length.
package fm

import (
	"math"
	"math/rand"

	"sonic/internal/parallel"
)

// Standard broadcast-FM constants used throughout the package.
const (
	// CompositeRate is the sample rate of the FM composite baseband and of
	// the complex RF envelope. 192 kHz comfortably contains the 75 kHz
	// deviation.
	CompositeRate = 192000

	// MaxDeviation is the broadcast FM peak frequency deviation (Hz).
	MaxDeviation = 75000

	// MonoBandLow and MonoBandHigh bound the mono (L+R) channel (Hz).
	MonoBandLow  = 30
	MonoBandHigh = 15000

	// PilotHz is the stereo pilot tone.
	PilotHz = 19000
)

// modulateInto frequency-modulates composite (at CompositeRate, full
// scale |x| = 1 at MaxDeviation) into the complex envelope exp(j*phi) in
// dst, which must have the same length. The phase accumulation is a
// serial recurrence, so this stage always runs on one goroutine.
func modulateInto(dst []complex128, composite []float64) {
	var phase float64
	k := 2 * math.Pi * MaxDeviation / CompositeRate
	for i, x := range composite {
		phase += k * x
		if phase > math.Pi {
			phase -= 2 * math.Pi
		} else if phase < -math.Pi {
			phase += 2 * math.Pi
		}
		s, c := math.Sincos(phase)
		dst[i] = complex(c, s)
	}
}

// demodulateInto recovers the composite from a complex FM envelope with
// a quadrature discriminator, writing dst (same length) and splitting
// the work across up to workers goroutines. The first sample has no
// phase predecessor and is emitted as zero. Each sample depends only on
// its immediate predecessor, so block boundaries just re-read one
// neighbouring sample and the output is identical for every worker count.
func demodulateInto(dst []float64, envelope []complex128, workers int) {
	k := CompositeRate / (2 * math.Pi * MaxDeviation)
	parallel.For(workers, len(envelope), parallelBlockMin, func(lo, hi int) {
		var prev complex128 = 1
		if lo > 0 {
			prev = envelope[lo-1]
		}
		for i := lo; i < hi; i++ {
			s := envelope[i]
			if i > 0 {
				z := s * complex(real(prev), -imag(prev))
				dst[i] = math.Atan2(imag(z), real(z)) * k
			} else {
				dst[i] = 0
			}
			prev = s
		}
	})
}

// AddRFNoise adds complex AWGN, in place, to an FM envelope at the given
// carrier-to-noise ratio (dB), measured against the unit-power carrier,
// and returns the envelope. This is where the FM threshold effect comes
// from: below roughly 10 dB CNR the discriminator output collapses into
// click noise. The rng draw order (real, imag, per sample in order) is
// part of the contract: a caller seeding the rng identically gets an
// identical channel realization.
func AddRFNoise(envelope []complex128, cnrDB float64, rng *rand.Rand) []complex128 {
	sigma := math.Sqrt(math.Pow(10, -cnrDB/10) / 2)
	for i, s := range envelope {
		envelope[i] = s + complex(sigma*rng.NormFloat64(), sigma*rng.NormFloat64())
	}
	return envelope
}

// monoDeviationFraction is the share of peak deviation given to the mono
// channel in the composite mix (the rest is headroom for the pilot),
// mirroring broadcast practice (~90% program, 10% pilot+subcarriers).
const monoDeviationFraction = 0.85
