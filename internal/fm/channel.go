package fm

import (
	"math"
	"math/rand"
	"runtime"

	"sonic/internal/telemetry"
)

// Link is one hop of the SONIC downlink path: it carries program audio
// from input to output, possibly degrading it. Links compose with Chain
// to model full receiver configurations from the paper's Figure 3:
//
//	User-B (internal tuner): FMLink only
//	User-C (audio jack):     FMLink -> CableLink
//	User-A (over the air):   FMLink -> AcousticLink
type Link interface {
	// Transmit carries audio sampled at rate Hz across the hop.
	Transmit(audio []float64, rate int) []float64
}

// CableLink is a lossless hop (audio jack, or the internal FM tuner's
// direct path).
type CableLink struct{}

// Transmit returns a copy of the input.
func (CableLink) Transmit(audio []float64, rate int) []float64 {
	out := make([]float64, len(audio))
	copy(out, audio)
	return out
}

// FMLink is the radio hop: FM modulation, RF noise at a CNR derived from
// the RSSI model and distance, and FM demodulation.
type FMLink struct {
	Model RSSIModel
	// DistanceM sets RSSI via the path-loss model; if RSSIOverride is
	// non-zero it is used directly instead.
	DistanceM    float64
	RSSIOverride float64
	Rng          *rand.Rand
	// Telemetry, when non-nil, records per-transmit metrics: the
	// fm_cnr_db / fm_rssi_dbm gauges, fm_transmits_total, composite
	// clipping events (fm_clipped_samples_total — samples that exceed
	// full deviation and would distort a real exciter), and an
	// fm.transmit span with per-stage children (build_composite,
	// modulate, add_noise, demodulate, split_composite).
	Telemetry *telemetry.Registry
}

// RSSI returns the effective RSSI for this link.
func (l *FMLink) RSSI() float64 {
	if l.RSSIOverride != 0 {
		return l.RSSIOverride
	}
	return l.Model.RSSIAtDistance(l.DistanceM)
}

// Transmit runs the full FM chain.
func (l *FMLink) Transmit(audio []float64, rate int) []float64 {
	rng := l.Rng
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	reg := l.Telemetry // nil = every record below is a no-op
	cnr := l.Model.CNRForRSSI(l.RSSI())
	reg.Counter("fm_transmits_total").Inc()
	reg.Gauge("fm_cnr_db").Set(cnr)
	reg.Gauge("fm_rssi_dbm").Set(l.RSSI())

	sp := reg.StartSpan("fm.transmit")
	defer sp.End()

	// The same chain as Broadcast, with clipping accounted inside the
	// composite mix and per-stage child spans under fm.transmit.
	return broadcastChain(audio, rate, cnr, rng, chainOpts{
		workers: runtime.GOMAXPROCS(0),
		reg:     reg,
		span:    sp,
	})
}

// AcousticLink is the speaker-to-microphone hop.
type AcousticLink struct {
	Model     AcousticModel
	DistanceM float64 // <= 0 means cable
	Rng       *rand.Rand
}

// Transmit carries audio across the air gap.
func (l *AcousticLink) Transmit(audio []float64, rate int) []float64 {
	rng := l.Rng
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	return l.Model.Transmit(audio, rate, l.DistanceM, rng)
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
