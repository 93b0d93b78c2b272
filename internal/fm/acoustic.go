package fm

import (
	"math"
	"math/rand"
)

// speakerFilterTaps is the small-speaker rolloff FIR length.
const speakerFilterTaps = 63

// AcousticModel describes the over-the-air hop between an FM radio's
// speaker and a phone's microphone — the distance axis of the paper's
// Figure 4(a). "Cable" (an audio-jack connection or the phone's internal
// tuner) corresponds to infinite SNR; over the air, SNR falls with
// distance and fluctuates with speaker/microphone alignment, which the
// paper observed dominates beyond ~0.5 m.
type AcousticModel struct {
	// RefSNRdB is the audio-band SNR at RefDistanceM with perfect alignment.
	RefSNRdB     float64
	RefDistanceM float64
	// CriticalDistanceM is where the speaker's effective coupling
	// collapses; the paper measured total loss beyond 1.1 m.
	CriticalDistanceM float64
	// RolloffPenaltyDB scales the near-critical collapse term.
	RolloffPenaltyDB float64
	// RolloffExponent controls how sharply the collapse sets in.
	RolloffExponent float64
	// AlignmentSigmaBase/PerMeter control slow SNR jitter from alignment
	// and ambient fluctuation (dB, peak of a slow sinusoidal wander).
	AlignmentSigmaBase     float64
	AlignmentSigmaPerMeter float64
	// DropoutRatePerMeterSec is the rate (events/second per meter of air
	// gap) of brief alignment dropouts; DropoutDepthDB is how far SNR
	// collapses during one. The paper observed that speaker/microphone
	// alignment dominates loss beyond ~0.5 m — these fades are that
	// effect, and they are what produces intermediate frame-loss rates
	// within a single transmission.
	DropoutRatePerMeterSec float64
	DropoutDepthDB         float64
	// SpeakerCutoffHz models the small-speaker high-frequency rolloff.
	SpeakerCutoffHz float64
	// EchoDelayS and EchoGain model a single room reflection.
	EchoDelayS float64
	EchoGain   float64
}

// DefaultAcousticModel returns the model calibrated against Figure 4(a):
// zero loss over cable, low single-digit loss through 0.5 m, 10–20%
// median loss around 1 m, and total loss past ~1.1 m.
func DefaultAcousticModel() AcousticModel { //sonic:ignore equivpin static parameter table, no kernel to pin
	return AcousticModel{
		RefSNRdB:               46,
		RefDistanceM:           0.1,
		CriticalDistanceM:      1.15,
		RolloffPenaltyDB:       25,
		RolloffExponent:        6,
		AlignmentSigmaBase:     1.0,
		AlignmentSigmaPerMeter: 3.0,
		DropoutRatePerMeterSec: 0.9,
		DropoutDepthDB:         30,
		SpeakerCutoffHz:        16000,
		// A short early reflection (desk/wall next to the radio). Kept
		// within the OFDM cyclic prefix so it behaves as a static channel
		// the equalizer can invert, like the real deployments the paper
		// targets (phone resting next to the radio).
		EchoDelayS: 0.002,
		EchoGain:   0.08,
	}
}

// MeanSNRAt returns the mean audio-band SNR at d meters (dB). d <= 0
// means a cable connection and returns +Inf.
func (a AcousticModel) MeanSNRAt(d float64) float64 {
	if d <= 0 {
		return math.Inf(1)
	}
	if d < a.RefDistanceM {
		d = a.RefDistanceM
	}
	snr := a.RefSNRdB - 20*math.Log10(d/a.RefDistanceM)
	snr -= a.RolloffPenaltyDB * math.Pow(d/a.CriticalDistanceM, a.RolloffExponent)
	return snr
}

// Transmit carries audio (at rate Hz) across d meters of air: speaker
// rolloff, a room reflection, slow SNR wander from alignment drift, and
// brief alignment dropouts. d <= 0 (cable) returns a copy of the input.
func (a AcousticModel) Transmit(audio []float64, rate int, d float64, rng *rand.Rand) []float64 {
	out := make([]float64, len(audio))
	copy(out, audio)
	if d <= 0 {
		return out
	}
	// Speaker rolloff (cached design + FFT convolution, in place).
	if a.SpeakerCutoffHz > 0 && a.SpeakerCutoffHz < float64(rate)/2 {
		out = lowpassConvolver(a.SpeakerCutoffHz, float64(rate), speakerFilterTaps).Apply(out, out)
	}
	// Single echo.
	if a.EchoGain > 0 {
		delay := int(a.EchoDelayS * float64(rate))
		for i := len(out) - 1; i >= delay; i-- {
			out[i] += a.EchoGain * out[i-delay]
		}
	}
	a.addTimeVaryingNoise(out, rate, d, rng)
	return out
}

// addTimeVaryingNoise injects AWGN whose instantaneous SNR wanders
// slowly around the distance mean and collapses during dropouts.
func (a AcousticModel) addTimeVaryingNoise(out []float64, rate int, d float64, rng *rand.Rand) {
	if len(out) == 0 {
		return
	}
	mean := a.MeanSNRAt(d)
	if math.IsInf(mean, 1) {
		return
	}
	var p float64
	for _, v := range out {
		p += v * v
	}
	p /= float64(len(out))

	// Slow sinusoidal wander with random period and phase.
	periodS := 0.4 + 0.8*rng.Float64()
	phase := 2 * math.Pi * rng.Float64()
	amp := a.AlignmentSigmaBase + a.AlignmentSigmaPerMeter*d

	// Dropout schedule (Poisson arrivals, 80-200 ms each).
	dropUntil := -1
	nextDrop := len(out) + 1
	if lambda := a.DropoutRatePerMeterSec * d; lambda > 0 {
		nextDrop = int(rng.ExpFloat64() / lambda * float64(rate))
	}
	lambda := a.DropoutRatePerMeterSec * d
	for i := range out {
		if i >= nextDrop && lambda > 0 {
			dropUntil = i + int((0.08+0.12*rng.Float64())*float64(rate))
			nextDrop = dropUntil + int(rng.ExpFloat64()/lambda*float64(rate))
		}
		t := float64(i) / float64(rate)
		snr := mean + amp*math.Sin(2*math.Pi*t/periodS+phase)
		if i < dropUntil {
			snr -= a.DropoutDepthDB
		}
		sigma := math.Sqrt(p / math.Pow(10, snr/10))
		out[i] += sigma * rng.NormFloat64()
	}
}

// addNoise injects AWGN so the resulting SNR (vs current signal power)
// is snrDB.
func addNoise(x []float64, snrDB float64, rng *rand.Rand) {
	if len(x) == 0 || math.IsInf(snrDB, 1) {
		return
	}
	var p float64
	for _, v := range x {
		p += v * v
	}
	p /= float64(len(x))
	sigma := math.Sqrt(p / math.Pow(10, snrDB/10))
	for i := range x {
		x[i] += sigma * rng.NormFloat64()
	}
}
