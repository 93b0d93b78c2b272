package modem

// FSK is the rate model of a binary frequency-shift-keying modem in the
// GGwave class of data-over-sound tools (§2 of the paper: FSK-based, up
// to ~128 bps over short distances). The related-work comparison needs
// only how long such a modem holds the air for a payload, so that is all
// it computes; nothing airs an FSK waveform.
type FSK struct {
	SampleRate int
	BitRate    float64 // bits per second
}

// NewFSK128 returns a GGwave-like profile: 128 bps binary FSK in the
// audible band.
func NewFSK128() *FSK { //sonic:ignore equivpin rate model, no kernel to pin
	return &FSK{SampleRate: 48000, BitRate: 128}
}

// fskOverheadBytes is the framing around a payload: a three-byte sync
// preamble (0xAA 0xAA 0x7E), a two-byte length and a CRC-16.
const fskOverheadBytes = 3 + 2 + 2

// BurstDuration returns the on-air seconds needed for n payload bytes:
// the framed bits plus one bit (in whole samples) of silence either side.
func (f *FSK) BurstDuration(n int) float64 {
	bits := (fskOverheadBytes + n) * 8
	samplesPerBit := int(float64(f.SampleRate) / f.BitRate)
	return float64(bits)/f.BitRate + 2*float64(samplesPerBit)/float64(f.SampleRate)
}
