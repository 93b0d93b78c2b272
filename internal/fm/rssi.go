package fm

import "math"

// RSSIModel maps transmitter-receiver geometry to Received Signal
// Strength Indication and on to the carrier-to-noise ratio the RF chain
// sees. The paper (§4, "Variable RSSI") reports, for the TR508
// transmitter: no frame losses from -65 to -85 dB RSSI, 2-15% fluctuating
// loss from -85 to -90 dB, and nothing received below -90 dB. This model
// is calibrated so those bands reproduce through the real DSP chain.
type RSSIModel struct {
	// TxPowerDBm is the effective radiated power at the reference distance.
	TxPowerDBm float64
	// RefDistanceM and RefRSSI anchor the log-distance path-loss curve:
	// at RefDistanceM meters the receiver sees RefRSSI dB.
	RefDistanceM float64
	RefRSSI      float64
	// PathLossExponent is the log-distance exponent (2 free space,
	// 2.7-3.5 suburban).
	PathLossExponent float64
	// NoiseFloorDB is the receiver noise level RSSI is compared against to
	// produce CNR. Calibrated so the FM threshold (~11 dB CNR) falls at
	// about -90 dB RSSI, matching the paper's total-loss boundary.
	NoiseFloorDB float64
}

// DefaultRSSIModel returns a model tuned for the paper's TR508 scenario
// (1 km class transmitter, suburban propagation).
func DefaultRSSIModel() RSSIModel {
	return RSSIModel{
		TxPowerDBm:       20, // ~100 mW licensed micro transmitter
		RefDistanceM:     10,
		RefRSSI:          -55,
		PathLossExponent: 3.0,
		NoiseFloorDB:     -103,
	}
}

// RSSIAtDistance returns the RSSI (dB) at d meters.
func (m RSSIModel) RSSIAtDistance(d float64) float64 {
	if d < m.RefDistanceM {
		d = m.RefDistanceM
	}
	return m.RefRSSI - 10*m.PathLossExponent*math.Log10(d/m.RefDistanceM)
}

// CNRForRSSI converts RSSI to the carrier-to-noise ratio fed into
// AddRFNoise.
func (m RSSIModel) CNRForRSSI(rssi float64) float64 {
	return rssi - m.NoiseFloorDB
}
