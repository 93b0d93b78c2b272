package fm

import (
	"math"
	"math/rand"
	"runtime"
)

// Link is one hop of the SONIC downlink path: it carries program audio
// from input to output, possibly degrading it. Links compose with Chain
// to model full receiver configurations from the paper's Figure 3:
//
//	User-B (internal tuner): FMLink only
//	User-C (audio jack):     FMLink -> CableLink
//	User-A (over the air):   FMLink -> AcousticLink
//
// A hop reads its input and never writes it, so a lossless hop may hand
// the same slice on, and one burst can feed many hops.
type Link interface {
	// Transmit carries audio sampled at rate Hz across the hop. It must
	// not write audio, and its result may be audio itself.
	Transmit(audio []float64, rate int) []float64
}

// CableLink is a lossless hop (audio jack, or the internal FM tuner's
// direct path).
type CableLink struct{}

// Transmit returns its input: the hop changes nothing, and no link or
// receiver writes the samples it is given.
func (CableLink) Transmit(audio []float64, rate int) []float64 {
	return audio
}

// FMLink is the radio hop: FM modulation, RF noise at the CNR the RSSI
// gives, and FM demodulation.
type FMLink struct {
	// RSSI is the received signal strength (dB) the radio measures; every
	// value, 0 included, is taken as given.
	RSSI float64
	Rng  *rand.Rand
}

// Transmit runs the full FM chain: the paper's "FM transmitter + radio
// receiver" pair with everything between antenna and speaker, at the
// CNR the RSSI gives. It is the FM hop's one entry point.
func (l *FMLink) Transmit(audio []float64, rate int) []float64 {
	rng := l.Rng
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	return broadcastChain(audio, rate, cnrForRSSI(l.RSSI), rng, runtime.GOMAXPROCS(0))
}

// Chain composes hops in order.
type Chain []Link

// Transmit passes audio through every hop.
func (c Chain) Transmit(audio []float64, rate int) []float64 {
	for _, l := range c {
		audio = l.Transmit(audio, rate)
	}
	return audio
}

// AWGNLink adds white noise at a fixed audio-band SNR; it is the simple
// reference channel used by unit tests and ablations.
type AWGNLink struct {
	SNRdB float64
	Rng   *rand.Rand
}

// Transmit adds noise at the configured SNR.
func (l *AWGNLink) Transmit(audio []float64, rate int) []float64 {
	out := make([]float64, len(audio))
	copy(out, audio)
	rng := l.Rng
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	if !math.IsInf(l.SNRdB, 1) {
		addNoise(out, l.SNRdB, rng)
	}
	return out
}
