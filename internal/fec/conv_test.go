package fec

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestParity(t *testing.T) {
	cases := map[uint32]byte{0: 0, 1: 1, 3: 0, 7: 1, 0xFF: 0, 0x101: 0, 0x100: 1}
	for in, want := range cases {
		if got := parity(in); got != want {
			t.Errorf("parity(%#x) = %d, want %d", in, got, want)
		}
	}
}

func TestConvCodeParams(t *testing.T) {
	v29 := NewV29()
	if v29.ConstraintLength() != 9 || v29.Rate() != 0.5 {
		t.Errorf("v29 params wrong: K=%d rate=%g", v29.ConstraintLength(), v29.Rate())
	}
	v27 := NewV27()
	if v27.ConstraintLength() != 7 {
		t.Errorf("v27 K=%d", v27.ConstraintLength())
	}
}

func TestConvEncodedBitsLength(t *testing.T) {
	c := NewV29()
	bits := make([]byte, 100)
	coded := c.EncodeBits(bits)
	if len(coded) != 2*(100+8) {
		t.Errorf("coded len = %d, want %d", len(coded), 2*108)
	}
	if got := c.EncodedBits(10); got != 2*(80+8) {
		t.Errorf("EncodedBits(10) = %d", got)
	}
}

func TestConvRoundTripClean(t *testing.T) {
	for _, c := range []*ConvCode{NewV27(), NewV29()} {
		rng := rand.New(rand.NewSource(7))
		for _, n := range []int{1, 8, 100, 333} {
			bits := make([]byte, n)
			for i := range bits {
				bits[i] = byte(rng.Intn(2))
			}
			coded := c.EncodeBits(bits)
			dec, err := c.NewWorkspace().decodeHardBits(coded)
			if err != nil {
				t.Fatalf("K=%d n=%d: %v", c.k, n, err)
			}
			if !bytes.Equal(dec, bits) {
				t.Fatalf("K=%d n=%d: round trip mismatch", c.k, n)
			}
		}
	}
}

func TestConvCorrectsScatteredErrors(t *testing.T) {
	// A rate-1/2 K=9 code has free distance 12: it corrects up to 5 errors
	// in any constraint-length window. Scatter errors widely and expect
	// perfect recovery.
	c := NewV29()
	rng := rand.New(rand.NewSource(8))
	bits := make([]byte, 800)
	for i := range bits {
		bits[i] = byte(rng.Intn(2))
	}
	coded := c.EncodeBits(bits)
	// Flip one bit every 40 coded bits (2.5% BER, well-separated).
	for i := 20; i < len(coded); i += 40 {
		coded[i] ^= 1
	}
	dec, err := c.NewWorkspace().decodeHardBits(coded)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dec, bits) {
		t.Fatal("scattered errors not corrected")
	}
}

func TestConvRandomBERRecovery(t *testing.T) {
	// At 2% random BER, v29 should essentially always recover the frame.
	c := NewV29()
	rng := rand.New(rand.NewSource(9))
	ok := 0
	const trials = 20
	for trial := 0; trial < trials; trial++ {
		bits := make([]byte, 800)
		for i := range bits {
			bits[i] = byte(rng.Intn(2))
		}
		coded := c.EncodeBits(bits)
		for i := range coded {
			if rng.Float64() < 0.02 {
				coded[i] ^= 1
			}
		}
		dec, err := c.NewWorkspace().decodeHardBits(coded)
		if err == nil && bytes.Equal(dec, bits) {
			ok++
		}
	}
	if ok < trials-2 {
		t.Errorf("only %d/%d frames recovered at 2%% BER", ok, trials)
	}
}

func TestConvV29OutperformsV27(t *testing.T) {
	// At a stressful BER the stronger code should recover at least as many
	// frames — this is the ablation claim behind choosing v29.
	run := func(c *ConvCode, ber float64, seed int64) int {
		rng := rand.New(rand.NewSource(seed))
		ok := 0
		for trial := 0; trial < 30; trial++ {
			bits := make([]byte, 400)
			for i := range bits {
				bits[i] = byte(rng.Intn(2))
			}
			coded := c.EncodeBits(bits)
			for i := range coded {
				if rng.Float64() < ber {
					coded[i] ^= 1
				}
			}
			dec, err := c.NewWorkspace().decodeHardBits(coded)
			if err == nil && bytes.Equal(dec, bits) {
				ok++
			}
		}
		return ok
	}
	ok29 := run(NewV29(), 0.045, 10)
	ok27 := run(NewV27(), 0.045, 10)
	if ok29 < ok27 {
		t.Errorf("v29 recovered %d frames but v27 recovered %d", ok29, ok27)
	}
}

func TestConvDecodeBadLength(t *testing.T) {
	c := NewV29()
	ws := c.NewWorkspace()
	if _, err := ws.decodeHardBits(make([]byte, 3)); err != ErrBadCodeLength {
		t.Errorf("odd length err = %v", err)
	}
	if _, err := ws.decodeHardBits(make([]byte, 2)); err != ErrBadCodeLength {
		t.Errorf("too-short err = %v", err)
	}
	if _, err := ws.Decode([]byte{0}, 100); err == nil {
		t.Error("codedBits beyond buffer should fail")
	}
}

func TestConvByteAPIRoundTrip(t *testing.T) {
	c := NewV29()
	msg := []byte("SONIC frame payload: 100 bytes of webpage partition data....")
	coded, nbits := c.Encode(msg)
	dec, err := c.NewWorkspace().Decode(coded, nbits)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dec, msg) {
		t.Fatal("byte API round trip mismatch")
	}
}

func TestBitsBytesRoundTrip(t *testing.T) {
	f := func(data []byte) bool {
		return bytes.Equal(BitsToBytes(BytesToBits(data)), data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// Explicit MSB-first check.
	bits := BytesToBits([]byte{0x80, 0x01})
	if bits[0] != 1 || bits[7] != 0 || bits[15] != 1 {
		t.Errorf("bit order wrong: %v", bits)
	}
}

func TestConvQuickRoundTrip(t *testing.T) {
	c := NewV27() // faster for quick-check volume
	ws := c.NewWorkspace()
	f := func(data []byte) bool {
		if len(data) == 0 {
			return true
		}
		if len(data) > 64 {
			data = data[:64]
		}
		coded, nbits := c.Encode(data)
		dec, err := ws.Decode(coded, nbits)
		return err == nil && bytes.Equal(dec, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func BenchmarkV29Encode100B(b *testing.B) {
	c := NewV29()
	msg := make([]byte, 100)
	b.SetBytes(100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Encode(msg)
	}
}

func BenchmarkV29Decode100B(b *testing.B) {
	c := NewV29()
	msg := make([]byte, 100)
	rand.New(rand.NewSource(1)).Read(msg)
	coded, nbits := c.Encode(msg)
	ws := c.NewWorkspace()
	b.SetBytes(100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ws.Decode(coded, nbits); err != nil {
			b.Fatal(err)
		}
	}
}
