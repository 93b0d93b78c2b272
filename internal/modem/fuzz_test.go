package modem

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// Mutations FuzzDemodulate applies to a valid burst. Each op is four
// fuzzer bytes: the code (mod opCount) and a 24-bit argument.
const (
	opTruncate     = iota // cut at sample arg (mod the length)
	opLeadSilence         // prepend arg mod 2^17 zeros (crosses a preamble-search window)
	opTrailSilence        // append arg mod 2^12 zeros
	opGain                // multiply by arg/2^22 (0..4)
	opClip                // hard-clip at ±arg/2^24
	opDC                  // add a DC offset of arg/2^24 - 0.5
	opSplice              // overwrite from sample arg (mod the length) on with a second burst
	opOverAnnounce        // same length, but the header announces more symbols than follow
	opCount
)

// fuzzMaxOps bounds the mutations (and so the time) of one execution.
const fuzzMaxOps = 8

func fuzzOp(code byte, arg int) []byte {
	return []byte{code, byte(arg >> 16), byte(arg >> 8), byte(arg)}
}

// FuzzDemodulate feeds hostile audio to the receive loop: the fuzzer's
// bytes drive mutations of one valid burst. Whatever comes in,
// Demodulate and DemodulateSoft return an error or a result that fits
// inside the audio — never a panic, an out-of-range slice or a buffer
// sized from a header the audio does not back — and they agree with
// each other; an unmutated burst still returns its payload.
func FuzzDemodulate(f *testing.F) {
	m, err := NewOFDM(Sonic92())
	if err != nil {
		f.Fatal(err)
	}
	rng := rand.New(rand.NewSource(47))
	payload := make([]byte, 4*m.bitsPerSymbol()/8) // payload symbols 0..3: two pairs
	rng.Read(payload)
	base := modulateFloat(m, payload)
	second := modulateFloat(m, payload[:len(payload)/2])
	over := modulateFloat(m, append(append([]byte(nil), payload...), make([]byte, 64<<10)...))[:len(base)]

	symLen := m.p.FFTSize + m.p.CyclicPrefix
	prologue := preambleSamples + guardSamples
	firstPayload := m.BurstSamples(0) - guardSamples
	f.Add([]byte{})
	f.Add(fuzzOp(opTruncate, len(base)-guardSamples-symLen-symLen/3)) // mid-symbol (parity suite)
	f.Add(fuzzOp(opTruncate, firstPayload+symLen/2))                  // inside the first payload symbol (parity suite)
	f.Add(fuzzOp(opTruncate, firstPayload+symLen))                    // between the two symbols of a pair
	f.Add(fuzzOp(opTruncate, firstPayload+symLen+symLen/2))           // inside a pair's second symbol
	f.Add(fuzzOp(opTruncate, prologue+symLen/2))                      // inside the reference symbol
	f.Add(fuzzOp(opTruncate, prologue+2*symLen))                      // between the two header symbols
	f.Add(fuzzOp(opTruncate, preambleSamples/2))                      // inside the preamble
	f.Add(fuzzOp(opLeadSilence, 70000))
	f.Add(fuzzOp(opTrailSilence, 300))
	f.Add(fuzzOp(opGain, 1<<20))
	f.Add(fuzzOp(opClip, 1<<21))
	f.Add(fuzzOp(opDC, 3<<22))
	f.Add(fuzzOp(opSplice, firstPayload+symLen))
	f.Add(fuzzOp(opOverAnnounce, 0))
	f.Add(append(fuzzOp(opLeadSilence, 1000), fuzzOp(opTruncate, 1000+firstPayload+3*symLen)...))

	f.Fuzz(func(t *testing.T, ops []byte) {
		samples := append([]float64(nil), base...)
		mutated := false
		for n := 0; len(ops) >= 4 && n < fuzzMaxOps; n, ops = n+1, ops[4:] {
			arg := int(ops[1])<<16 | int(ops[2])<<8 | int(ops[3])
			mutated = true
			switch ops[0] % opCount {
			case opTruncate:
				samples = samples[:arg%(len(samples)+1)]
			case opLeadSilence:
				samples = append(make([]float64, arg%(1<<17)), samples...)
			case opTrailSilence:
				samples = append(samples, make([]float64, arg%(1<<12))...)
			case opGain:
				for i := range samples {
					samples[i] *= float64(arg) / (1 << 22)
				}
			case opClip:
				lim := float64(arg) / (1 << 24)
				for i, v := range samples {
					samples[i] = min(max(v, -lim), lim)
				}
			case opDC:
				for i := range samples {
					samples[i] += float64(arg)/(1<<24) - 0.5
				}
			case opSplice:
				if len(samples) > 0 {
					copy(samples[arg%len(samples):], second)
				}
			case opOverAnnounce:
				samples = append(samples[:0], over...)
			}
		}

		hard, hardErr := m.Demodulate(samples)
		soft, softErr := m.DemodulateSoft(samples)
		if fmt.Sprint(hardErr) != fmt.Sprint(softErr) {
			t.Fatalf("Demodulate error %q, DemodulateSoft error %q", hardErr, softErr)
		}
		if (hard == nil) == (hardErr == nil) || (soft == nil) == (softErr == nil) {
			t.Fatalf("want exactly one of result and error: %v/%v, %v/%v", hard, hardErr, soft, softErr)
		}
		if hardErr != nil {
			if !mutated {
				t.Fatalf("unmutated burst: %v", hardErr)
			}
			return
		}
		if len(hard.Payload) != len(soft.Soft)/8 || len(soft.Soft)%8 != 0 {
			t.Fatalf("hard result (%d bytes) and soft result (%d metrics) disagree", len(hard.Payload), len(soft.Soft))
		}
		bh, err := m.openBurst(samples)
		if err != nil {
			t.Fatalf("openBurst: %v after Demodulate succeeded", err)
		}
		start := bh.pos - prologue - (1+m.headerSymbols())*symLen
		if end := bh.pos + bh.nSym*symLen; start < 0 || end > len(samples) || len(hard.Payload) != bh.payloadLen {
			t.Fatalf("result claims samples [%d, %d) of %d, %d of %d bytes", start, end, len(samples), len(hard.Payload), bh.payloadLen)
		}
		if !mutated && (!bytes.Equal(hard.Payload, payload) || !bytes.Equal(hardDecisions(soft.Soft), payload)) {
			t.Fatal("unmutated burst did not return its payload")
		}
	})
}
