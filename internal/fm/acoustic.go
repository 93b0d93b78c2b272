package fm

import (
	"math"
	"math/rand"
)

// The over-the-air hop between an FM radio's speaker and a phone's
// microphone is the distance axis of the paper's Figure 4(a). "Cable" (an
// audio-jack connection or the phone's internal tuner) corresponds to
// infinite SNR; over the air, SNR falls with distance and fluctuates with
// speaker/microphone alignment, which the paper observed dominates beyond
// ~0.5 m. The constants below are calibrated against Figure 4(a): zero
// loss over cable, low single-digit loss through 0.5 m, 10–20% median
// loss around 1 m, and total loss past ~1.1 m.
const (
	// refSNRdB is the audio-band SNR at refDistanceM with perfect
	// alignment.
	refSNRdB     = 46
	refDistanceM = 0.1
	// criticalDistanceM is where the speaker's effective coupling
	// collapses; the paper measured total loss beyond 1.1 m.
	criticalDistanceM = 1.15
	// rolloffPenaltyDB scales the near-critical collapse term and
	// rolloffExponent controls how sharply it sets in.
	rolloffPenaltyDB = 25
	rolloffExponent  = 6
	// alignmentSigmaBase/PerMeter control slow SNR jitter from alignment
	// and ambient fluctuation (dB, peak of a slow sinusoidal wander).
	alignmentSigmaBase     = 1.0
	alignmentSigmaPerMeter = 3.0
	// dropoutRatePerMeterSec is the rate (events/second per meter of air
	// gap) of brief alignment dropouts; dropoutDepthDB is how far SNR
	// collapses during one. These fades are the alignment effect the
	// paper observed, and they are what produces intermediate frame-loss
	// rates within a single transmission.
	dropoutRatePerMeterSec = 0.9
	dropoutDepthDB         = 30
	// speakerCutoffHz models the small-speaker high-frequency rolloff,
	// a speakerFilterTaps-long FIR.
	speakerCutoffHz   = 16000
	speakerFilterTaps = 63
	// echoDelayS and echoGain model a single short early reflection
	// (desk/wall next to the radio). It is kept within the OFDM cyclic
	// prefix so it behaves as a static channel the equalizer can invert,
	// like the real deployments the paper targets (phone resting next to
	// the radio).
	echoDelayS = 0.002
	echoGain   = 0.08
)

// AcousticLink is the speaker-to-microphone hop.
type AcousticLink struct {
	DistanceM float64 // <= 0 means cable
	Rng       *rand.Rand
}

// Transmit carries audio (at rate Hz) across DistanceM meters of air:
// speaker rolloff, a room reflection, slow SNR wander from alignment
// drift, and brief alignment dropouts. A cable (DistanceM <= 0) returns a
// copy of the input.
func (l *AcousticLink) Transmit(audio []float64, rate int) []float64 {
	out := make([]float64, len(audio))
	copy(out, audio)
	d := l.DistanceM
	if d <= 0 {
		return out
	}
	rng := l.Rng
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	// Speaker rolloff (cached design + FFT convolution, in place), when
	// the cutoff lies below Nyquist.
	if speakerCutoffHz < float64(rate)/2 {
		out = lowpassConvolver(speakerCutoffHz, float64(rate), speakerFilterTaps).Apply(out, out)
	}
	// Single echo.
	delay := int(echoDelayS * float64(rate))
	for i := len(out) - 1; i >= delay; i-- {
		out[i] += echoGain * out[i-delay]
	}
	addTimeVaryingNoise(out, rate, d, rng)
	return out
}

// meanSNRAt returns the mean audio-band SNR at d meters (dB). d <= 0
// means a cable connection and returns +Inf.
func meanSNRAt(d float64) float64 {
	if d <= 0 {
		return math.Inf(1)
	}
	if d < refDistanceM {
		d = refDistanceM
	}
	snr := refSNRdB - 20*math.Log10(d/refDistanceM)
	snr -= rolloffPenaltyDB * math.Pow(d/criticalDistanceM, rolloffExponent)
	return snr
}

// addTimeVaryingNoise injects AWGN whose instantaneous SNR wanders
// slowly around the mean at d > 0 meters and collapses during dropouts.
func addTimeVaryingNoise(out []float64, rate int, d float64, rng *rand.Rand) {
	if len(out) == 0 {
		return
	}
	mean := meanSNRAt(d)
	var p float64
	for _, v := range out {
		p += v * v
	}
	p /= float64(len(out))

	// Slow sinusoidal wander with random period and phase.
	periodS := 0.4 + 0.8*rng.Float64()
	phase := 2 * math.Pi * rng.Float64()
	amp := alignmentSigmaBase + alignmentSigmaPerMeter*d

	// Dropout schedule (Poisson arrivals, 80-200 ms each).
	lambda := dropoutRatePerMeterSec * d
	dropUntil := -1
	nextDrop := int(rng.ExpFloat64() / lambda * float64(rate))
	for i := range out {
		if i >= nextDrop {
			dropUntil = i + int((0.08+0.12*rng.Float64())*float64(rate))
			nextDrop = dropUntil + int(rng.ExpFloat64()/lambda*float64(rate))
		}
		t := float64(i) / float64(rate)
		snr := mean + amp*math.Sin(2*math.Pi*t/periodS+phase)
		if i < dropUntil {
			snr -= dropoutDepthDB
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
