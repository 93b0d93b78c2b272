package modem

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"runtime"
	"sync"

	"sonic/internal/audio"
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
	plan     *dsp.FFTPlan // FFTSize transform

	preambleEnergy float64           // sqrt(sum preamble^2), for sync normalization
	corr           *dsp.FFTConvolver // filters with the time-reversed preamble: correlates
	scratch        sync.Pool         // *ofdmScratch
}

// ofdmScratch holds the per-call working buffers of one modulate or
// demodulate pass: the FFT workspace, the occupied-bin values of the two
// symbols that share a transform, the preamble-search correlation
// window, and the padded tail bit chunk. Pooling them makes steady-state
// synthesize/analyze allocation-free.
type ofdmScratch struct {
	spec  []complex128 // FFTSize FFT workspace
	vals  []complex128 // len(bins) occupied-bin values, first symbol of a pair
	valsB []complex128 // same, second symbol
	cc    []float64    // reversed-preamble convolution of one search window
	bits  []byte       // padded final symbol chunk
}

func (m *OFDM) getScratch() *ofdmScratch {
	if sc, ok := m.scratch.Get().(*ofdmScratch); ok {
		return sc
	}
	return &ofdmScratch{
		spec:  make([]complex128, m.p.FFTSize),
		vals:  make([]complex128, len(m.bins)),
		valsB: make([]complex128, len(m.bins)),
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
	plan, err := dsp.PlanFFT(p.FFTSize)
	if err != nil {
		return nil, err
	}
	m := &OFDM{p: p, header: QPSK, plan: plan}
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
	rev := make([]float64, len(m.preamble))
	for i, v := range m.preamble {
		rev[len(rev)-1-i] = v
	}
	m.corr = dsp.NewFFTConvolver(rev)
	return m, nil
}

// Profile returns the modem's profile.
func (m *OFDM) Profile() Profile { return m.p }

// headerSymbols returns the number of OFDM symbols the repetition-coded
// header occupies.
func (m *OFDM) headerSymbols() int {
	bps := m.p.DataCarriers * m.header.Bits()
	return (headerBytes*8*headerRep + bps - 1) / bps
}

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

// synthesizePair converts two frequency-domain symbols (values for the
// occupied bins, in bin order) into time-domain samples with cyclic
// prefix, through one complex transform: a real symbol has a Hermitian
// spectrum, so loading A + iB on the occupied bins and conj(A) + i*conj(B)
// on their mirrors brings symbol A out of the inverse transform's real
// parts and symbol B out of its imaginary parts. dstA and dstB are one
// symbol (CP + FFTSize samples) each; a lone symbol passes b == nil and
// dstB == nil and the imaginary half stays zero. It returns the largest
// sample magnitude written, for the burst's peak normalization.
func (m *OFDM) synthesizePair(dstA, dstB []float64, a, b, spec []complex128) float64 {
	n := m.p.FFTSize
	for i := range spec {
		spec[i] = 0
	}
	for i, bin := range m.bins {
		ar, ai := real(a[i]), imag(a[i])
		var br, bi float64
		if b != nil {
			br, bi = real(b[i]), imag(b[i])
		}
		spec[bin] = complex(ar-bi, ai+br)
		spec[n-bin] = complex(ar+bi, br-ai)
	}
	m.plan.Inverse(spec)
	g := m.symbolGain()
	cp := m.p.CyclicPrefix
	var peak float64
	for i, v := range spec {
		x := g * real(v)
		dstA[cp+i] = x
		if x = math.Abs(x); x > peak {
			peak = x
		}
	}
	copy(dstA, dstA[n:]) // cyclic prefix = tail of the symbol
	if dstB != nil {
		for i, v := range spec {
			x := g * imag(v)
			dstB[cp+i] = x
			if x = math.Abs(x); x > peak {
				peak = x
			}
		}
		copy(dstB, dstB[n:])
	}
	return peak
}

// analyzePair extracts the occupied-bin values of two received symbols
// into dstA and dstB (len(bins) entries each) through one complex
// transform of a + i*b, separated at the occupied bins by
// A[k] = (Z[k] + conj(Z[n-k]))/2 and B[k] = (Z[k] - conj(Z[n-k]))/(2i).
// A lone symbol passes b == nil and dstB == nil. Each symbol's samples
// must start at the beginning of its cyclic prefix. The FFT window is
// pulled back by a quarter of the cyclic prefix so small timing errors
// from preamble correlation stay inside the CP; the resulting per-bin
// phase slope is absorbed by the channel estimate, which shares the
// same offset.
func (m *OFDM) analyzePair(dstA, dstB []complex128, a, b []float64, spec []complex128) {
	n := m.p.FFTSize
	off := m.p.CyclicPrefix - m.p.CyclicPrefix/4
	a = a[off : off+n]
	if b == nil {
		for i, v := range a {
			spec[i] = complex(v, 0)
		}
	} else {
		b = b[off : off+n]
		for i, v := range a {
			spec[i] = complex(v, b[i])
		}
	}
	m.plan.Forward(spec)
	if b == nil {
		for i, bin := range m.bins {
			dstA[i] = spec[bin]
		}
		return
	}
	for i, bin := range m.bins {
		z, zc := spec[bin], spec[n-bin]
		dstA[i] = complex((real(z)+real(zc))/2, (imag(z)-imag(zc))/2)
		dstB[i] = complex((imag(z)+imag(zc))/2, (real(zc)-real(z))/2)
	}
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
// [preamble][guard][reference symbol][header symbols][payload symbols][guard],
// as 16-bit PCM at the profile's sample rate — what an exciter plays.
// The symbols are synthesized into a float64 scratch burst (BurstSamples
// sizes it exactly), two per transform on the GOMAXPROCS pool: every pair
// writes its own index-addressed section and the chunks' peaks reduce
// with max. One per-sample pass then scales the burst to the profile's
// peak and quantizes it through audio.FloatToInt16, so the PCM is
// identical at any worker count and the call does a small constant
// number of allocations regardless of payload size.
func (m *OFDM) Modulate(payload []byte) []int16 {
	burst := make([]float64, m.BurstSamples(len(payload)))
	copy(burst, m.preamble)

	// Header symbols carry repetition-coded QPSK on the data carriers.
	hdrBits := fec.BytesToBits(headerPayload(len(payload), m.p.Constellation.Bits()))
	repBits := make([]byte, 0, headerRep*len(hdrBits))
	for r := 0; r < headerRep; r++ {
		repBits = append(repBits, hdrBits...)
	}
	payBits := fec.BytesToBits(payload)

	hdrSyms := m.headerSymbols()
	symLen := m.p.FFTSize + m.p.CyclicPrefix
	body := burst[preambleSamples+guardSamples : len(burst)-guardSamples]
	nSym := len(body) / symLen
	// values returns the occupied-bin values of burst symbol s.
	values := func(dst []complex128, s int, sc *ofdmScratch) []complex128 {
		switch {
		case s == 0: // reference symbol: known values on every occupied bin
			return m.refSym
		case s <= hdrSyms:
			return m.mapSymbol(dst, repBits, s-1, m.header, sc)
		default:
			return m.mapSymbol(dst, payBits, s-1-hdrSyms, m.p.Constellation, sc)
		}
	}
	workers := runtime.GOMAXPROCS(0)
	peak := dsp.Peak(m.preamble)
	var mu sync.Mutex
	parallel.For(workers, (nSym+1)/2, modMinPairs, func(lo, hi int) {
		sc := m.getScratch()
		defer m.putScratch(sc)
		var p float64
		for s := 2 * lo; s < 2*hi && s < nSym; s += 2 {
			a := values(sc.vals, s, sc)
			var b []complex128
			var dstB []float64
			if s+1 < nSym {
				b = values(sc.valsB, s+1, sc)
				dstB = body[(s+1)*symLen : (s+2)*symLen]
			}
			p = max(p, m.synthesizePair(body[s*symLen:(s+1)*symLen], dstB, a, b, sc.spec))
		}
		mu.Lock()
		peak = max(peak, p)
		mu.Unlock()
	})
	// The trailing guard stays silent so filters and channel tails flush
	// cleanly.
	out := make([]int16, len(burst))
	live := burst[:len(burst)-guardSamples]
	g := m.p.Amplitude / peak
	parallel.For(workers, len(live), modMinScale, func(lo, hi int) {
		for i, v := range live[lo:hi] {
			out[lo+i] = audio.FloatToInt16(v * g)
		}
	})
	return out
}

// The fewest symbol pairs (one transform, ~20 µs) and the fewest samples
// of the scale-and-quantize pass worth a goroutine of their own in
// Modulate.
const (
	modMinPairs = 2
	modMinScale = 1 << 15
)

// mapSymbol maps the idx-th symbol's worth of a bit stream onto dst: the
// given constellation on data carriers, pilots on pilot carriers. A final
// partial symbol is zero-padded.
func (m *OFDM) mapSymbol(dst []complex128, bits []byte, idx int, c *Constellation, sc *ofdmScratch) []complex128 {
	bps := m.p.DataCarriers * c.Bits()
	chunk := bits[idx*bps:]
	if len(chunk) >= bps {
		chunk = chunk[:bps]
	} else {
		if cap(sc.bits) < bps {
			sc.bits = make([]byte, bps)
		}
		pad := sc.bits[:bps]
		clear(pad[copy(pad, chunk):])
		chunk = pad
	}
	bi := 0
	for i := range m.bins {
		if m.isPilot[i] {
			dst[i] = m.pilotVal[i]
			continue
		}
		dst[i] = c.Map(chunk[bi : bi+c.Bits()])
		bi += c.Bits()
	}
	return dst
}

// DemodResult carries the payload and the link's pilot SNR estimate.
type DemodResult struct {
	Payload []byte
	SNRdB   float64 // average pilot SNR estimate
}

// Errors returned by Demodulate.
var (
	ErrNoPreamble = errors.New("modem: no preamble found")
	ErrBadHeader  = errors.New("modem: header unrecoverable")
)

// burstHeader is the decoded prologue of a received burst.
type burstHeader struct {
	pos        int // sample index of the first payload symbol
	symLen     int
	payloadLen int
	c          *Constellation
	h          []complex128
	bps, nSym  int // payload bits per symbol, payload symbols announced
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
	ref := sc.vals
	m.analyzePair(ref, nil, samples[pos:pos+symLen], nil, sc.spec)
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
	hdrSyms := m.headerSymbols()
	if pos+hdrSyms*symLen > len(samples) {
		return nil, ErrBadHeader
	}
	var hdrBits []byte
	m.eqSymbols(samples[pos:], symLen, h, 0, hdrSyms, sc, func(_ int, vals []complex128, _ float64) {
		hdrBits = m.demapInto(hdrBits, vals, m.header)
	})
	pos += hdrSyms * symLen
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
	bps := m.p.DataCarriers * c.Bits()
	return &burstHeader{
		pos: pos, symLen: symLen,
		payloadLen: payloadLen, c: c, h: h,
		bps: bps, nSym: (payloadLen*8 + bps - 1) / bps,
	}, nil
}

// Demodulate locates a burst in samples and decodes its payload. It
// returns ErrNoPreamble when no sync is found and ErrBadHeader when sync
// succeeded but the header cannot be trusted.
func (m *OFDM) Demodulate(samples []float64) (*DemodResult, error) {
	bh, err := m.openBurst(samples)
	if err != nil {
		return nil, err
	}
	bits := make([]byte, bh.nSym*bh.bps)
	snr := m.eqPayload(samples, bh, func(s int, vals []complex128) {
		m.demapInto(bits[s*bh.bps:s*bh.bps:(s+1)*bh.bps], vals, bh.c)
	})
	payload := fec.BitsToBytes(bits)
	if len(payload) > bh.payloadLen {
		payload = payload[:bh.payloadLen]
	}
	return &DemodResult{Payload: payload, SNRdB: snr}, nil
}

// openBurst decodes the prologue and checks that every payload symbol
// the header announces is in samples, so nothing downstream sizes a
// buffer from, or slices by, a count the audio does not back.
func (m *OFDM) openBurst(samples []float64) (*burstHeader, error) {
	sc := m.getScratch()
	bh, err := m.decodePrologue(samples, sc)
	m.putScratch(sc)
	if err != nil {
		return nil, err
	}
	if whole := (len(samples) - bh.pos) / bh.symLen; whole < bh.nSym {
		return nil, fmt.Errorf("modem: burst truncated at symbol %d/%d", whole, bh.nSym)
	}
	return bh, nil
}

// eqPayload analyzes and equalizes the burst's payload symbols, two per
// transform on the GOMAXPROCS pool, handing emit each symbol's index and
// equalized values, and returns the mean pilot SNR. Symbols are
// independent once the channel estimate is fixed: as long as emit writes
// symbol s's output into slots addressed by s, the result is the serial
// loop's at any worker count.
func (m *OFDM) eqPayload(samples []float64, bh *burstHeader, emit func(s int, vals []complex128)) (snrDB float64) {
	if bh.nSym == 0 {
		return 0
	}
	snrs := make([]float64, bh.nSym)
	parallel.For(runtime.GOMAXPROCS(0), (bh.nSym+1)/2, demodMinPairs, func(lo, hi int) {
		sc := m.getScratch()
		defer m.putScratch(sc)
		m.eqSymbols(samples[bh.pos:], bh.symLen, bh.h, 2*lo, min(2*hi, bh.nSym), sc, func(s int, vals []complex128, snr float64) {
			snrs[s] = snr
			emit(s, vals)
		})
	})
	var snrSum float64
	for _, snr := range snrs { // index order: the float sum must not depend on scheduling
		snrSum += snr
	}
	return snrSum / float64(bh.nSym)
}

// demodMinPairs is the fewest symbol pairs worth a goroutine of their
// own on the receive side (a pair is one FFT plus two equalizations).
const demodMinPairs = 2

// SoftDemodResult carries the soft-decision payload: one signed metric
// per payload bit (positive = 1) for a soft-decision FEC decoder.
type SoftDemodResult struct {
	Soft  []float64
	SNRdB float64
}

// DemodulateSoft is Demodulate with per-bit soft outputs (the header is
// still decoded by hard majority vote — it is repetition-protected).
func (m *OFDM) DemodulateSoft(samples []float64) (*SoftDemodResult, error) {
	bh, err := m.openBurst(samples)
	if err != nil {
		return nil, err
	}
	soft := make([]float64, bh.nSym*bh.bps)
	snr := m.eqPayload(samples, bh, func(s int, vals []complex128) {
		dst := soft[s*bh.bps : s*bh.bps : (s+1)*bh.bps]
		for i := range vals {
			if !m.isPilot[i] {
				dst = bh.c.DemapSoft(vals[i], dst)
			}
		}
	})
	if totalBits := bh.payloadLen * 8; len(soft) > totalBits {
		soft = soft[:totalBits]
	}
	return &SoftDemodResult{Soft: soft, SNRdB: snr}, nil
}

// findPreamble locates the chirp preamble by normalized cross-correlation
// and returns the start sample, or -1. The search runs in windows with
// early stop: once a window contains a confident peak (chirp correlation
// sidelobes are low, so a >=0.25 normalized peak is genuine sync), later
// audio — usually megabytes of payload symbols — is never scanned.
//
// The correlation numerators come from the overlap-save FFT convolver
// (O(N log N) instead of O(N * preamble)): correlating with the preamble
// is convolving with it time-reversed, so output lp-1+i of filtering a
// window is Σ_j preamble[j]·hay[i+j], the dot product at lag i. The
// normalization keeps the reference implementation's running window
// energy, threshold, and first-maximum semantics, so the same peak is
// selected.
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
		// off < n, so the window holds at least one whole preamble.
		end := min(off+window+lp-1, len(samples))
		hay := samples[off:end]
		sc.cc = m.corr.Apply(sc.cc[:0], hay)
		cc := sc.cc[lp-1:]
		// Normalize by needle and running window energy, tracking the
		// first maximum — exactly the reference search's
		// normalizedCrossCorrelate + argMax (equiv_test.go).
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

// eqSymbols analyzes symbols [lo, hi) of body (symLen samples each,
// symbol 0 first) two per transform — an odd one out goes alone — and
// hands emit each symbol's equalized occupied-bin values (aliasing sc:
// valid until emit returns) and pilot SNR estimate, in index order.
func (m *OFDM) eqSymbols(body []float64, symLen int, h []complex128, lo, hi int, sc *ofdmScratch, emit func(s int, vals []complex128, snrDB float64)) {
	for s := lo; s < hi; s += 2 {
		a := body[s*symLen : (s+1)*symLen]
		if s+1 == hi {
			m.analyzePair(sc.vals, nil, a, nil, sc.spec)
			emit(s, sc.vals, m.equalize(sc.vals, h))
			return
		}
		m.analyzePair(sc.vals, sc.valsB, a, body[(s+1)*symLen:(s+2)*symLen], sc.spec)
		emit(s, sc.vals, m.equalize(sc.vals, h))
		emit(s+1, sc.valsB, m.equalize(sc.valsB, h))
	}
}

// equalize divides one analyzed symbol's occupied-bin values by the
// channel estimate in place, applies common-phase correction from the
// pilots, and returns a pilot-based SNR estimate in dB.
func (m *OFDM) equalize(vals, h []complex128) float64 {
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
	return snr
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
	bps := m.bitsPerSymbol()
	paySyms := (n*8 + bps - 1) / bps
	return preambleSamples + 2*guardSamples + (1+m.headerSymbols()+paySyms)*symLen
}

// BurstDuration returns the on-air duration for n payload bytes, seconds.
func (m *OFDM) BurstDuration(n int) float64 {
	return float64(m.BurstSamples(n)) / float64(m.p.SampleRate)
}
