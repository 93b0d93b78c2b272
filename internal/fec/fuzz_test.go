package fec

import (
	"bytes"
	"testing"
)

// FuzzRSDecode feeds arbitrary byte streams to the Reed-Solomon decoder.
// Decode, the ingress frame uses, must never panic no matter how the
// input is shaped, and every message must survive an Encode→Decode
// round trip — including with up to nroots/2 corrupted symbols per
// block, which the code is sized to correct.
func FuzzRSDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("sonic fuzz seed"))
	f.Add(bytes.Repeat([]byte{0xA5}, 255))
	f.Add(bytes.Repeat([]byte{0x00}, 223))

	rs := NewRS8()
	f.Fuzz(func(t *testing.T, data []byte) {
		// Arbitrary garbage: error or success, never a panic.
		rs.Decode(data)

		// Round trip: encode the input as a message, corrupt as many
		// symbols as the code corrects (positions derived from the data
		// itself so runs stay reproducible), decode, compare.
		enc := rs.Encode(data)
		if got := len(enc); got != rs.EncodedLen(len(data)) {
			t.Fatalf("EncodedLen(%d) = %d but Encode produced %d bytes", len(data), rs.EncodedLen(len(data)), got)
		}
		if len(enc) > 0 {
			seed := 0
			for _, b := range data {
				seed = seed*31 + int(b)
			}
			if seed < 0 {
				seed = -seed
			}
			n := rs.k + rs.nroots
			for e := 0; e < rs.nroots/2; e++ {
				// One corruption per block, staying inside the first block.
				pos := (seed + e*13) % min(n, len(enc))
				enc[pos] ^= byte(1 + e)
			}
		}
		dec, _, err := rs.Decode(enc)
		if err != nil {
			t.Fatalf("Decode of correctably-corrupted stream failed: %v", err)
		}
		if !bytes.Equal(dec, data) {
			t.Fatalf("RS round trip changed the message: %d bytes in, %d bytes out", len(data), len(dec))
		}
	})
}

// FuzzConvDecode feeds arbitrary even-length streams to the hard inner
// decoder and requires the optimized path (zero-syndrome fast path, then
// Viterbi) to agree with the frozen reference in conv_equiv_test.go on
// bits, path metric and error (checkHardMatchesReference). Random bytes are almost never a codeword,
// so each input is also replayed as a message: encoded, decoded clean
// (the fast path), then with one bit flipped at a position the input
// picks (the fallback, one syndrome word in). Every word is also decoded
// as ±1 soft metrics, which must give the hard path's bits, metric and
// error (checkSoftMatchesHard).
func FuzzConvDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1})
	f.Add([]byte("sonic fuzz seed"))
	f.Add(bytes.Repeat([]byte{0x01}, 16))
	f.Add(bytes.Repeat([]byte{0xA5, 0x5A}, 70))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256 { // the reference allocates per trellis step
			data = data[:256]
		}
		for _, c := range []*ConvCode{NewV27(), NewV29()} {
			check := func(name string, coded []byte) {
				checkHardMatchesReference(t, c, name, coded)
				checkSoftMatchesHard(t, c, name, coded)
			}
			check("raw", data)
			check("raw, even", data[:len(data)&^1])

			msg := make([]byte, len(data))
			pos := 0
			for i, b := range data {
				msg[i] = b & 1
				pos = pos*31 + int(b)
			}
			coded := c.EncodeBits(msg)
			check("clean", coded)
			coded[uint(pos)%uint(len(coded))] ^= 1
			check("one flip", coded)
		}
	})
}
