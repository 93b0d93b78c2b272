package fec

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestGFFieldAxioms(t *testing.T) {
	// alpha^255 == 1, inverses multiply to 1, distributivity spot checks.
	if gfPow(255) != 1 {
		t.Errorf("alpha^255 = %d, want 1", gfPow(255))
	}
	for a := 1; a < 256; a++ {
		if got := gfMul(byte(a), gfDiv(1, byte(a))); got != 1 {
			t.Fatalf("a * a^-1 = %d for a=%d", got, a)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		a, b, c := byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))
		if gfMul(a, b^c) != gfMul(a, b)^gfMul(a, c) {
			t.Fatalf("distributivity failed for %d,%d,%d", a, b, c)
		}
		if gfMul(a, b) != gfMul(b, a) {
			t.Fatalf("commutativity failed for %d,%d", a, b)
		}
	}
}

func TestGFDivByZero(t *testing.T) {
	if gfDiv(5, 0) != 0 || gfDiv(0, 5) != 0 {
		t.Error("gfDiv with zero operand should return 0")
	}
}

func TestNewRSValidation(t *testing.T) {
	if _, err := NewRS(0); err == nil {
		t.Error("NewRS(0) should fail")
	}
	if _, err := NewRS(255); err == nil {
		t.Error("NewRS(255) should fail")
	}
	if _, err := NewRS(223); err != nil {
		t.Errorf("NewRS(223) failed: %v", err)
	}
}

func TestRS8Geometry(t *testing.T) {
	rs := NewRS8()
	if rs.k != 223 || rs.nroots != 32 {
		t.Errorf("rs8 geometry wrong: k=%d parity=%d", rs.k, rs.nroots)
	}
}

func TestRSRoundTripClean(t *testing.T) {
	rs := NewRS8()
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{1, 10, 223, 224, 500, 1000} {
		msg := make([]byte, n)
		rng.Read(msg)
		enc := rs.Encode(msg)
		if len(enc) != rs.EncodedLen(n) {
			t.Fatalf("n=%d EncodedLen=%d but len(enc)=%d", n, rs.EncodedLen(n), len(enc))
		}
		dec, corrected, err := rs.Decode(enc)
		if err != nil {
			t.Fatalf("n=%d decode: %v", n, err)
		}
		if corrected != 0 {
			t.Errorf("n=%d clean decode corrected %d", n, corrected)
		}
		if !bytes.Equal(dec, msg) {
			t.Fatalf("n=%d round trip mismatch", n)
		}
	}
}

func TestRSCorrectsUpToTErrors(t *testing.T) {
	rs := NewRS8()
	rng := rand.New(rand.NewSource(3))
	msg := make([]byte, 223)
	rng.Read(msg)
	enc := rs.Encode(msg)

	for nerr := 1; nerr <= rs.nroots/2; nerr++ {
		corrupted := make([]byte, len(enc))
		copy(corrupted, enc)
		positions := rng.Perm(len(enc))[:nerr]
		for _, p := range positions {
			corrupted[p] ^= byte(1 + rng.Intn(255))
		}
		dec, corrected, err := rs.Decode(corrupted)
		if err != nil {
			t.Fatalf("nerr=%d: decode failed: %v", nerr, err)
		}
		if corrected != nerr {
			t.Errorf("nerr=%d: corrected=%d", nerr, corrected)
		}
		if !bytes.Equal(dec, msg) {
			t.Fatalf("nerr=%d: wrong message", nerr)
		}
	}
}

func TestRSShortenedCodeCorrectsErrors(t *testing.T) {
	rs := NewRS8()
	rng := rand.New(rand.NewSource(4))
	msg := make([]byte, 100) // shortened: 100 data + 32 parity
	rng.Read(msg)
	enc := rs.Encode(msg)
	if len(enc) != 132 {
		t.Fatalf("shortened encoded len = %d, want 132", len(enc))
	}
	for trial := 0; trial < 20; trial++ {
		corrupted := make([]byte, len(enc))
		copy(corrupted, enc)
		for _, p := range rng.Perm(len(enc))[:16] {
			corrupted[p] ^= byte(1 + rng.Intn(255))
		}
		dec, _, err := rs.Decode(corrupted)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !bytes.Equal(dec, msg) {
			t.Fatalf("trial %d: wrong message", trial)
		}
	}
}

func TestRSDetectsUncorrectable(t *testing.T) {
	rs := NewRS8()
	rng := rand.New(rand.NewSource(5))
	msg := make([]byte, 223)
	rng.Read(msg)
	enc := rs.Encode(msg)
	// Way past the correction radius: expect an error (or, rarely, a
	// miscorrection — but never a silent wrong answer claiming 0 errors).
	failures := 0
	for trial := 0; trial < 10; trial++ {
		corrupted := make([]byte, len(enc))
		copy(corrupted, enc)
		for _, p := range rng.Perm(len(enc))[:40] {
			corrupted[p] ^= byte(1 + rng.Intn(255))
		}
		_, _, err := rs.Decode(corrupted)
		if err != nil {
			failures++
		}
	}
	if failures < 8 {
		t.Errorf("only %d/10 heavily corrupted codewords rejected", failures)
	}
}

func TestRSMultiCodewordErrors(t *testing.T) {
	rs := NewRS8()
	rng := rand.New(rand.NewSource(6))
	msg := make([]byte, 600) // 3 codewords (223+223+154)
	rng.Read(msg)
	enc := rs.Encode(msg)
	// Corrupt a few bytes in each codeword region.
	corrupted := make([]byte, len(enc))
	copy(corrupted, enc)
	for _, p := range []int{0, 100, 254, 300, 500, 510, 600, 640} {
		if p < len(corrupted) {
			corrupted[p] ^= 0xFF
		}
	}
	dec, corrected, err := rs.Decode(corrupted)
	if err != nil {
		t.Fatal(err)
	}
	if corrected == 0 {
		t.Error("expected corrections")
	}
	if !bytes.Equal(dec, msg) {
		t.Fatal("multi-codeword round trip mismatch")
	}
}

func TestRSDecodeBadLengths(t *testing.T) {
	rs := NewRS8()
	if _, _, err := rs.Decode(make([]byte, 10)); err == nil {
		t.Error("block shorter than parity should fail")
	}
	if _, _, err := rs.Decode(make([]byte, 256)); err == nil {
		t.Error("255 bytes and a 1-byte trailing block should fail")
	}
	if _, _, err := rs.Decode(make([]byte, 32)); err == nil {
		t.Error("trailing fragment of parity-only bytes should fail")
	}
}

func TestRSQuickProperty(t *testing.T) {
	// Property: for any message and any <=16 byte errors within one
	// codeword, decode recovers the message exactly.
	rs := NewRS8()
	f := func(seed int64, msgLen uint8, nerr uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(msgLen)%223 + 1
		e := int(nerr) % 17
		msg := make([]byte, n)
		rng.Read(msg)
		enc := rs.Encode(msg)
		if e > 0 {
			for _, p := range rng.Perm(len(enc))[:min(e, len(enc))] {
				enc[p] ^= byte(1 + rng.Intn(255))
			}
		}
		dec, _, err := rs.Decode(enc)
		return err == nil && bytes.Equal(dec, msg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func BenchmarkRS8Encode(b *testing.B) {
	rs := NewRS8()
	msg := make([]byte, 223)
	rand.New(rand.NewSource(1)).Read(msg)
	b.SetBytes(223)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs.Encode(msg)
	}
}

func BenchmarkRS8Decode16Errors(b *testing.B) {
	rs := NewRS8()
	rng := rand.New(rand.NewSource(1))
	msg := make([]byte, 223)
	rng.Read(msg)
	enc := rs.Encode(msg)
	corrupted := make([]byte, len(enc))
	copy(corrupted, enc)
	for _, p := range rng.Perm(len(enc))[:16] {
		corrupted[p] ^= 0x55
	}
	buf := make([]byte, len(enc))
	b.SetBytes(255)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, corrupted)
		if _, _, err := rs.Decode(buf); err != nil {
			b.Fatal(err)
		}
	}
}
