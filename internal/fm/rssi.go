package fm

// noiseFloorDB is the receiver noise level RSSI is compared against to
// produce CNR. The paper (§4, "Variable RSSI") reports, for the TR508
// transmitter: no frame losses from -65 to -85 dB RSSI, 2-15% fluctuating
// loss from -85 to -90 dB, and nothing received below -90 dB. The floor
// puts the FM threshold (~11 dB CNR) at about -90 dB RSSI, so those bands
// reproduce through the real DSP chain.
const noiseFloorDB = -103

// cnrForRSSI converts RSSI (dB) to the carrier-to-noise ratio fed into
// AddRFNoise.
func cnrForRSSI(rssi float64) float64 {
	return rssi - noiseFloorDB
}
