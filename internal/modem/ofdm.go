package modem

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"runtime"
	"sync"

	"sonic/internal/dsp"
	"sonic/internal/fec"
	"sonic/internal/parallel"
)

// Profile describes an OFDM transmission profile. The zero value is not
// usable; start from Sonic92() or Audible7k() and adjust.
type Profile struct {
	Name          string
	SampleRate    int     // audio sample rate (Hz)
	FFTSize       int     // power of two
	CyclicPrefix  int     // samples
	CenterHz      float64 // carrier center frequency
	DataCarriers  int     // subcarriers carrying payload bits
	PilotCarriers int     // subcarriers carrying known pilots
	Constellation *Constellation
	Amplitude     float64 // output peak target (0..1)
}

// Sonic92 returns the paper's transmission profile: 92 data subcarriers
// around a 9.2 kHz center inside the FM mono band, tuned so that with the
// paper's FEC stack (v29 inner + rs8 outer) net goodput lands near
// 10 kbps (§3.3).
func Sonic92() Profile {
	return Profile{
		Name:          "sonic-92sc-10k",
		SampleRate:    48000,
		FFTSize:       1024,
		CyclicPrefix:  128,
		CenterHz:      9200,
		DataCarriers:  92,
		PilotCarriers: 12,
		Constellation: QAM64,
		Amplitude:     0.7,
	}
}

// Audible7k returns a profile modeled on Quiet's "audible-7k-channel"
// (QPSK, lower rate, more robust), the profile SONIC's was derived from.
func Audible7k() Profile {
	return Profile{
		Name:          "audible-7k-channel",
		SampleRate:    48000,
		FFTSize:       1024,
		CyclicPrefix:  128,
		CenterHz:      7000,
		DataCarriers:  64,
		PilotCarriers: 8,
		Constellation: QPSK,
		Amplitude:     0.7,
	}
}

// SymbolDuration returns the duration of one OFDM symbol in seconds.
func (p Profile) SymbolDuration() float64 {
	return float64(p.FFTSize+p.CyclicPrefix) / float64(p.SampleRate)
}

// RawBitRate returns the pre-FEC payload bit rate in bits/second.
func (p Profile) RawBitRate() float64 {
	return float64(p.DataCarriers*p.Constellation.Bits()) / p.SymbolDuration()
}

// Validate reports configuration errors.
func (p Profile) Validate() error {
	if !dsp.IsPowerOfTwo(p.FFTSize) {
		return errors.New("modem: FFTSize must be a power of two")
	}
	if p.SampleRate <= 0 || p.CyclicPrefix < 0 || p.CyclicPrefix >= p.FFTSize {
		return errors.New("modem: invalid sample rate or cyclic prefix")
	}
	if p.DataCarriers < 1 || p.PilotCarriers < 1 {
		return errors.New("modem: need at least one data and one pilot carrier")
	}
	if p.Constellation == nil {
		return errors.New("modem: profile missing constellation")
	}
	total := p.DataCarriers + p.PilotCarriers
	binHz := float64(p.SampleRate) / float64(p.FFTSize)
	lo := p.CenterHz - float64(total)/2*binHz
	hi := p.CenterHz + float64(total)/2*binHz
	if lo < binHz || hi > float64(p.SampleRate)/2-binHz {
		return fmt.Errorf("modem: band [%.0f,%.0f] Hz does not fit below Nyquist", lo, hi)
	}
	return nil
}

// OFDM is a modulator/demodulator for one profile. All per-burst mutable
// state lives in pooled scratch buffers, so one OFDM may be shared by
// concurrent goroutines (the configuration tables below are immutable
// after NewOFDM).
type OFDM struct {
	p        Profile
	bins     []int        // occupied FFT bins, ascending
	isPilot  []bool       // parallel to bins
	pilotVal []complex128 // pilot symbol per occupied bin (non-pilot entries unused)
	refSym   []complex128 // known reference values for every occupied bin
	preamble []float64    // time-domain sync preamble
	header   *Constellation

	preambleEnergy float64            // sqrt(sum preamble^2), for sync normalization
	corr           *dsp.FFTCorrelator // overlap-save preamble correlator
	scratch        sync.Pool          // *ofdmScratch
}

// ofdmScratch holds the per-call working buffers of one modulate or
// demodulate pass: the FFT workspace, one symbol's occupied-bin values,
// the preamble-search correlation window, and the padded tail bit chunk.
// Pooling them makes steady-state synthesize/analyze allocation-free.
type ofdmScratch struct {
	spec []complex128 // FFTSize FFT workspace
	vals []complex128 // len(bins) occupied-bin values
	cc   []float64    // preamble correlation outputs (one search window)
	bits []byte       // padded final symbol chunk
}

func (m *OFDM) getScratch() *ofdmScratch {
	if sc, ok := m.scratch.Get().(*ofdmScratch); ok {
		return sc
	}
	return &ofdmScratch{
		spec: make([]complex128, m.p.FFTSize),
		vals: make([]complex128, len(m.bins)),
	}
}

func (m *OFDM) putScratch(sc *ofdmScratch) { m.scratch.Put(sc) }

// Burst layout constants.
const (
	preambleSamples = 2048   // chirp length used for synchronization
	guardSamples    = 256    // silence between preamble and first symbol
	headerMagic     = 0x534E // "SN"
	headerRep       = 3      // header repetition factor (odd, for majority vote)
	headerBytes     = 9      // magic(2) len(4) bits(1) crc16(2)
)

// NewOFDM builds a modem for the profile.
func NewOFDM(p Profile) (*OFDM, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	m := &OFDM{p: p, header: QPSK}
	total := p.DataCarriers + p.PilotCarriers
	binHz := float64(p.SampleRate) / float64(p.FFTSize)
	centerBin := int(math.Round(p.CenterHz / binHz))
	first := centerBin - total/2
	m.bins = make([]int, total)
	m.isPilot = make([]bool, total)
	m.pilotVal = make([]complex128, total)
	m.refSym = make([]complex128, total)
	// Pilots are spread evenly across the band.
	pilotEvery := total / p.PilotCarriers
	rng := rand.New(rand.NewSource(0x50494C4F)) // fixed: both ends derive the same sequence
	nPilots := 0
	for i := 0; i < total; i++ {
		m.bins[i] = first + i
		if nPilots < p.PilotCarriers && i%pilotEvery == pilotEvery/2 {
			m.isPilot[i] = true
			nPilots++
		}
		// Known pseudo-random QPSK values for reference symbol and pilots.
		re := 1.0
		if rng.Intn(2) == 1 {
			re = -1
		}
		im := 1.0
		if rng.Intn(2) == 1 {
			im = -1
		}
		v := complex(re, im) * complex(math.Sqrt2/2, 0)
		m.refSym[i] = v
		m.pilotVal[i] = v
	}
	// Preamble: band-limited chirp sweeping the occupied band.
	lo := (float64(first) - 2) * binHz
	hi := (float64(first+total) + 2) * binHz
	m.preamble = make([]float64, preambleSamples)
	k := (hi - lo) / (float64(preambleSamples) / float64(p.SampleRate))
	for i := range m.preamble {
		t := float64(i) / float64(p.SampleRate)
		phase := 2 * math.Pi * (lo*t + 0.5*k*t*t)
		w := 0.5 * (1 - math.Cos(2*math.Pi*float64(i)/float64(preambleSamples-1)))
		m.preamble[i] = w * math.Sin(phase)
	}
	// Bring the preamble to the same RMS as the data symbols so noise
	// degrades sync and payload together.
	if r := dsp.RMS(m.preamble); r > 0 {
		dsp.Scale(m.preamble, sectionRMS/r)
	}
	var pe float64
	for _, v := range m.preamble {
		pe += v * v
	}
	m.preambleEnergy = math.Sqrt(pe)
	m.corr = dsp.NewFFTCorrelator(m.preamble)
	return m, nil
}

// Profile returns the modem's profile.
func (m *OFDM) Profile() Profile { return m.p }

// bitsPerSymbol returns payload bits carried by one OFDM symbol.
func (m *OFDM) bitsPerSymbol() int {
	return m.p.DataCarriers * m.p.Constellation.Bits()
}

// sectionRMS is the target per-section RMS level shared by the preamble
// and the OFDM symbols, so burst-wide noise affects both proportionally.
const sectionRMS = 0.2

// symbolGain returns the time-domain gain that brings a synthesized OFDM
// symbol (unit-energy constellation values on each occupied bin, after a
// normalized IFFT) to sectionRMS.
func (m *OFDM) symbolGain() float64 {
	// Raw per-sample power after IFFT = 2*bins/N^2 (Hermitian pair per bin).
	n := float64(m.p.FFTSize)
	raw := math.Sqrt(2*float64(len(m.bins))) / n
	return sectionRMS / raw
}

// synthesizeAppend converts one frequency-domain symbol (values for
// occupied bins, in bin order) into time-domain samples with cyclic
// prefix, appended to out. spec is the caller's FFT workspace; when out
// has capacity for the new section (Modulate preallocates via
// BurstSamples) the call is allocation-free.
func (m *OFDM) synthesizeAppend(out []float64, values, spec []complex128) []float64 {
	n := m.p.FFTSize
	for i := range spec {
		spec[i] = 0
	}
	for i, bin := range m.bins {
		spec[bin] = values[i]
		// Hermitian mirror for a real time-domain signal.
		spec[n-bin] = cmplx.Conj(values[i])
	}
	if err := dsp.IFFT(spec); err != nil {
		panic("modem: FFT size not power of two despite validation")
	}
	g := m.symbolGain()
	cp := m.p.CyclicPrefix
	base := len(out)
	if need := base + cp + n; need <= cap(out) {
		out = out[:need] // every sample below is overwritten
	} else {
		out = append(out, make([]float64, cp+n)...)
	}
	sect := out[base:]
	for i := 0; i < n; i++ {
		sect[cp+i] = g * real(spec[i])
	}
	copy(sect, sect[n:]) // cyclic prefix = tail of the symbol
	return out
}

// analyzeInto extracts the occupied-bin values from one received symbol
// into dst (len(bins) entries), using spec as the FFT workspace. The
// samples must start at the beginning of the cyclic prefix. The FFT
// window is pulled back by a quarter of the cyclic prefix so small timing
// errors from preamble correlation stay inside the CP; the resulting
// per-bin phase slope is absorbed by the channel estimate, which shares
// the same offset.
func (m *OFDM) analyzeInto(dst []complex128, samples []float64, spec []complex128) []complex128 {
	n := m.p.FFTSize
	backoff := m.p.CyclicPrefix / 4
	for i := 0; i < n; i++ {
		spec[i] = complex(samples[m.p.CyclicPrefix-backoff+i], 0)
	}
	if err := dsp.FFT(spec); err != nil {
		panic("modem: FFT size not power of two despite validation")
	}
	for i, bin := range m.bins {
		dst[i] = spec[bin]
	}
	return dst[:len(m.bins)]
}

// headerPayload encodes the burst header fields.
func headerPayload(payloadLen int, constBits int) []byte {
	h := make([]byte, headerBytes)
	h[0] = byte(headerMagic >> 8)
	h[1] = byte(headerMagic & 0xFF)
	h[2] = byte(payloadLen >> 24)
	h[3] = byte(payloadLen >> 16)
	h[4] = byte(payloadLen >> 8)
	h[5] = byte(payloadLen)
	h[6] = byte(constBits)
	crc := fec.Checksum16(h[:7])
	h[7] = byte(crc >> 8)
	h[8] = byte(crc)
	return h
}

// parseHeader validates and decodes header bytes.
func parseHeader(h []byte) (payloadLen, constBits int, err error) {
	if len(h) < headerBytes {
		return 0, 0, errors.New("modem: short header")
	}
	if int(h[0])<<8|int(h[1]) != headerMagic {
		return 0, 0, errors.New("modem: bad header magic")
	}
	crc := uint16(h[7])<<8 | uint16(h[8])
	if !fec.Verify16(h[:7], crc) {
		return 0, 0, errors.New("modem: header CRC mismatch")
	}
	payloadLen = int(h[2])<<24 | int(h[3])<<16 | int(h[4])<<8 | int(h[5])
	return payloadLen, int(h[6]), nil
}

// Modulate converts payload bytes into an audio burst:
// [preamble][guard][reference symbol][header symbol][payload symbols].
// The burst buffer is allocated once up front (BurstSamples sizes it
// exactly), and symbol synthesis runs through pooled scratch, so the
// call does a small constant number of allocations regardless of
// payload size.
func (m *OFDM) Modulate(payload []byte) []float64 {
	sc := m.getScratch()
	defer m.putScratch(sc)

	out := make([]float64, 0, m.BurstSamples(len(payload)))
	out = append(out, m.preamble...)
	out = out[:len(out)+guardSamples] // zeros: backing array is fresh

	// Reference symbol: known values on every occupied bin.
	out = m.synthesizeAppend(out, m.refSym, sc.spec)

	// Header symbol: repetition-coded QPSK on data carriers.
	hdrBits := fec.BytesToBits(headerPayload(len(payload), m.p.Constellation.Bits()))
	var repBits []byte
	for r := 0; r < headerRep; r++ {
		repBits = append(repBits, hdrBits...)
	}
	out = m.modSymbolsAppend(out, repBits, m.header, sc)

	// Payload symbols.
	out = m.modSymbolsAppend(out, fec.BytesToBits(payload), m.p.Constellation, sc)

	dsp.Normalize(out, m.p.Amplitude)
	// Trailing guard so filters and channel tails flush cleanly.
	out = out[:len(out)+guardSamples]
	return out
}

// modSymbolsAppend maps a bit stream onto as many OFDM symbols as
// needed, using the given constellation on data carriers and pilots on
// pilot carriers, appending the synthesized samples to out.
func (m *OFDM) modSymbolsAppend(out []float64, bits []byte, c *Constellation, sc *ofdmScratch) []float64 {
	bps := m.p.DataCarriers * c.Bits()
	for off := 0; off < len(bits); off += bps {
		end := off + bps
		var chunk []byte
		if end <= len(bits) {
			chunk = bits[off:end]
		} else {
			// Final partial symbol: zero-pad into scratch.
			if cap(sc.bits) < bps {
				sc.bits = make([]byte, bps)
			}
			chunk = sc.bits[:bps]
			n := copy(chunk, bits[off:])
			for i := n; i < bps; i++ {
				chunk[i] = 0
			}
		}
		values := sc.vals
		bi := 0
		for i := range m.bins {
			if m.isPilot[i] {
				values[i] = m.pilotVal[i]
				continue
			}
			values[i] = c.Map(chunk[bi : bi+c.Bits()])
			bi += c.Bits()
		}
		out = m.synthesizeAppend(out, values, sc.spec)
	}
	return out
}

// DemodResult carries demodulation diagnostics alongside the payload.
type DemodResult struct {
	Payload  []byte
	SNRdB    float64 // average pilot SNR estimate
	Symbols  int     // payload OFDM symbols consumed
	StartIdx int     // sample index where the burst was found
}

// Errors returned by Demodulate.
var (
	ErrNoPreamble = errors.New("modem: no preamble found")
	ErrBadHeader  = errors.New("modem: header unrecoverable")
)

// burstHeader is the decoded prologue of a received burst.
type burstHeader struct {
	start      int
	pos        int // sample index of the first payload symbol
	symLen     int
	payloadLen int
	c          *Constellation
	h          []complex128
}

// decodePrologue synchronizes, estimates the channel, and reads the
// repetition-coded header. sc provides the FFT and symbol workspaces.
func (m *OFDM) decodePrologue(samples []float64, sc *ofdmScratch) (*burstHeader, error) {
	start := m.findPreamble(samples, sc)
	if start < 0 {
		return nil, ErrNoPreamble
	}
	symLen := m.p.FFTSize + m.p.CyclicPrefix
	pos := start + preambleSamples + guardSamples
	if pos+symLen > len(samples) {
		return nil, ErrBadHeader
	}

	// Channel estimate from the reference symbol.
	ref := m.analyzeInto(sc.vals, samples[pos:pos+symLen], sc.spec)
	h := make([]complex128, len(m.bins))
	for i := range ref {
		denom := m.refSym[i]
		if cmplx.Abs(denom) < 1e-9 {
			h[i] = 1
			continue
		}
		h[i] = ref[i] / denom
	}
	pos += symLen

	// Header symbols (repetition-coded, possibly spanning several symbols).
	hdrBitsTotal := headerBytes * 8 * headerRep
	hdrBps := m.p.DataCarriers * m.header.Bits()
	hdrSyms := (hdrBitsTotal + hdrBps - 1) / hdrBps
	var hdrBits []byte
	for s := 0; s < hdrSyms; s++ {
		if pos+symLen > len(samples) {
			return nil, ErrBadHeader
		}
		hdrVals, _ := m.eqSymbol(samples[pos:pos+symLen], h, sc)
		hdrBits = m.demapInto(hdrBits, hdrVals, m.header)
		pos += symLen
	}
	hdrPlain, ok := majorityVoteHeader(hdrBits)
	if !ok {
		return nil, ErrBadHeader
	}
	payloadLen, constBits, err := parseHeader(hdrPlain)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadHeader, err)
	}
	c, err := ConstellationByBits(constBits)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadHeader, err)
	}
	if payloadLen < 0 || payloadLen > 1<<26 {
		return nil, ErrBadHeader
	}
	return &burstHeader{
		start: start, pos: pos, symLen: symLen,
		payloadLen: payloadLen, c: c, h: h,
	}, nil
}

// Demodulate locates a burst in samples and decodes its payload. It
// returns ErrNoPreamble when no sync is found and ErrBadHeader when sync
// succeeded but the header cannot be trusted.
func (m *OFDM) Demodulate(samples []float64) (*DemodResult, error) {
	sc := m.getScratch()
	bh, err := m.decodePrologue(samples, sc)
	m.putScratch(sc)
	if err != nil {
		return nil, err
	}
	bps := m.p.DataCarriers * bh.c.Bits()
	totalBits := bh.payloadLen * 8
	nSym := (totalBits + bps - 1) / bps
	if whole := (len(samples) - bh.pos) / bh.symLen; whole < nSym {
		return nil, fmt.Errorf("modem: burst truncated at symbol %d/%d", whole, nSym)
	}
	// Symbols are independent once the channel estimate is fixed: each
	// chunk equalizes with its own scratch and writes symbol s's bits at
	// s*bps, so the payload is the serial loop's at any worker count.
	bits := make([]byte, nSym*bps)
	snrs := make([]float64, nSym)
	parallel.For(runtime.GOMAXPROCS(0), nSym, demodMinSymbols, func(lo, hi int) {
		sc := m.getScratch()
		defer m.putScratch(sc)
		for s := lo; s < hi; s++ {
			pos := bh.pos + s*bh.symLen
			vals, snr := m.eqSymbol(samples[pos:pos+bh.symLen], bh.h, sc)
			snrs[s] = snr
			m.demapInto(bits[s*bps:s*bps:(s+1)*bps], vals, bh.c)
		}
	})
	payload := fec.BitsToBytes(bits)
	if len(payload) > bh.payloadLen {
		payload = payload[:bh.payloadLen]
	}
	res := &DemodResult{
		Payload:  payload,
		Symbols:  nSym,
		StartIdx: bh.start,
	}
	if nSym > 0 {
		var snrSum float64
		for _, snr := range snrs { // index order: the float sum must not depend on scheduling
			snrSum += snr
		}
		res.SNRdB = snrSum / float64(nSym)
	}
	return res, nil
}

// demodMinSymbols is the fewest payload symbols worth a goroutine of
// their own in Demodulate (a symbol is one FFT plus equalization, ~50 µs).
const demodMinSymbols = 4

// SoftDemodResult carries the soft-decision payload: one signed metric
// per payload bit (positive = 1) for a soft-decision FEC decoder, plus
// the hard payload for callers that want both.
type SoftDemodResult struct {
	Soft     []float64
	Payload  []byte
	SNRdB    float64
	Symbols  int
	StartIdx int
}

// DemodulateSoft is Demodulate with per-bit soft outputs (the header is
// still decoded by hard majority vote — it is repetition-protected).
func (m *OFDM) DemodulateSoft(samples []float64) (*SoftDemodResult, error) {
	sc := m.getScratch()
	defer m.putScratch(sc)
	bh, err := m.decodePrologue(samples, sc)
	if err != nil {
		return nil, err
	}
	bps := m.p.DataCarriers * bh.c.Bits()
	totalBits := bh.payloadLen * 8
	nSym := (totalBits + bps - 1) / bps
	soft := make([]float64, 0, nSym*bps)
	pos := bh.pos
	var snrSum float64
	for s := 0; s < nSym; s++ {
		if pos+bh.symLen > len(samples) {
			return nil, fmt.Errorf("modem: burst truncated at symbol %d/%d", s, nSym)
		}
		vals, snr := m.eqSymbol(samples[pos:pos+bh.symLen], bh.h, sc)
		snrSum += snr
		for i := range vals {
			if m.isPilot[i] {
				continue
			}
			soft = bh.c.DemapSoft(vals[i], soft)
		}
		pos += bh.symLen
	}
	if len(soft) > totalBits {
		soft = soft[:totalBits]
	}
	bits := make([]byte, len(soft))
	for i, s := range soft {
		if s > 0 {
			bits[i] = 1
		}
	}
	res := &SoftDemodResult{
		Soft:     soft,
		Payload:  fec.BitsToBytes(bits),
		Symbols:  nSym,
		StartIdx: bh.start,
	}
	if nSym > 0 {
		res.SNRdB = snrSum / float64(nSym)
	}
	return res, nil
}

// findPreamble locates the chirp preamble by normalized cross-correlation
// and returns the start sample, or -1. The search runs in windows with
// early stop: once a window contains a confident peak (chirp correlation
// sidelobes are low, so a >=0.25 normalized peak is genuine sync), later
// audio — usually megabytes of payload symbols — is never scanned.
//
// The correlation numerators come from the precomputed overlap-save FFT
// correlator (O(N log N) instead of O(N * preamble)); the normalization
// keeps the reference implementation's running window energy, threshold,
// and first-maximum semantics, so the same peak is selected.
func (m *OFDM) findPreamble(samples []float64, sc *ofdmScratch) int {
	const (
		window    = 1 << 16
		threshold = 0.25
	)
	lp := len(m.preamble)
	n := len(samples) - lp + 1
	if n <= 0 {
		return -1
	}
	for off := 0; off < n; off += window {
		end := off + window + lp - 1
		if end > len(samples) {
			end = len(samples)
		}
		hay := samples[off:end]
		sc.cc = m.corr.Correlate(sc.cc[:0], hay)
		cc := sc.cc
		if cc == nil {
			continue
		}
		// Normalize by needle and running window energy, tracking the
		// first maximum — exactly NormalizedCrossCorrelate + ArgMax.
		var we float64
		for j := 0; j < lp; j++ {
			we += hay[j] * hay[j]
		}
		best := math.Inf(-1)
		bestIdx := -1
		for i := range cc {
			v := 0.0
			if denom := m.preambleEnergy * math.Sqrt(we); denom > 1e-12 {
				v = cc[i] / denom
			}
			if v > best {
				best, bestIdx = v, i
			}
			if i+1 < len(cc) {
				old := hay[i]
				next := hay[i+lp]
				we += next*next - old*old
				if we < 0 {
					we = 0
				}
			}
		}
		if bestIdx >= 0 && best >= threshold {
			return off + bestIdx
		}
	}
	return -1
}

// eqSymbol analyzes one symbol, equalizes with the channel estimate, and
// applies common-phase correction from pilots. It returns the equalized
// occupied-bin values (aliasing sc.vals — valid until the next symbol)
// and a pilot-based SNR estimate in dB.
func (m *OFDM) eqSymbol(samples []float64, h []complex128, sc *ofdmScratch) ([]complex128, float64) {
	vals := m.analyzeInto(sc.vals, samples, sc.spec)
	for i := range vals {
		if cmplx.Abs(h[i]) > 1e-9 {
			vals[i] /= h[i]
		}
	}
	// Common phase error from pilots.
	var rot complex128
	for i := range vals {
		if m.isPilot[i] {
			rot += vals[i] * cmplx.Conj(m.pilotVal[i])
		}
	}
	if cmplx.Abs(rot) > 1e-9 {
		rot /= complex(cmplx.Abs(rot), 0)
		inv := cmplx.Conj(rot)
		for i := range vals {
			vals[i] *= inv
		}
	}
	// Pilot SNR estimate.
	var sig, noise float64
	for i := range vals {
		if m.isPilot[i] {
			sig += cmplx.Abs(m.pilotVal[i]) * cmplx.Abs(m.pilotVal[i])
			d := vals[i] - m.pilotVal[i]
			noise += real(d)*real(d) + imag(d)*imag(d)
		}
	}
	snr := 40.0
	if noise > 1e-12 {
		snr = 10 * math.Log10(sig/noise)
	}
	return vals, snr
}

func (m *OFDM) demapInto(dst []byte, vals []complex128, c *Constellation) []byte {
	for i := range vals {
		if m.isPilot[i] {
			continue
		}
		dst = c.Demap(vals[i], dst)
	}
	return dst
}

// majorityVoteHeader collapses the repetition-coded header bits back to
// one header byte slice. With headerRep copies it votes bitwise; ok is
// false if too few bits were received.
func majorityVoteHeader(bits []byte) ([]byte, bool) {
	need := headerBytes * 8
	if len(bits) < need*headerRep {
		return nil, false
	}
	out := make([]byte, need)
	for i := 0; i < need; i++ {
		votes := 0
		for r := 0; r < headerRep; r++ {
			votes += int(bits[r*need+i] & 1)
		}
		if votes*2 >= headerRep+1 {
			out[i] = 1
		}
	}
	return fec.BitsToBytes(out), true
}

// BurstSamples returns the number of audio samples Modulate will produce
// for a payload of n bytes (useful for scheduling air time).
func (m *OFDM) BurstSamples(n int) int {
	symLen := m.p.FFTSize + m.p.CyclicPrefix
	hdrBits := headerBytes * 8 * headerRep
	hdrSyms := (hdrBits + m.p.DataCarriers*m.header.Bits() - 1) / (m.p.DataCarriers * m.header.Bits())
	bps := m.bitsPerSymbol()
	paySyms := (n*8 + bps - 1) / bps
	return preambleSamples + 2*guardSamples + (1+hdrSyms+paySyms)*symLen
}

// BurstDuration returns the on-air duration for n payload bytes, seconds.
func (m *OFDM) BurstDuration(n int) float64 {
	return float64(m.BurstSamples(n)) / float64(m.p.SampleRate)
}
