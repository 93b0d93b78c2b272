package fec

import (
	"math/rand"
	"testing"
)

// benchCoded returns a coded stream for one rs8+v29 frame worth of data
// (264 bytes, the on-air inner-code block size) with a few bit errors.
func benchCoded(c *ConvCode, msgBytes int, flips int) []byte {
	rng := rand.New(rand.NewSource(42))
	msg := make([]byte, msgBytes)
	rng.Read(msg)
	coded := c.EncodeBits(BytesToBits(msg))
	for i := 0; i < flips; i++ {
		coded[rng.Intn(len(coded))] ^= 1
	}
	return coded
}

// benchSoft converts a coded bit stream to noisy soft metrics.
func benchSoft(coded []byte, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	soft := make([]float64, len(coded))
	for i, b := range coded {
		v := -1.0
		if b == 1 {
			v = 1
		}
		soft[i] = v + 0.3*rng.NormFloat64()
	}
	return soft
}

func BenchmarkViterbiHardV29(b *testing.B) {
	c := NewV29()
	coded := benchCoded(c, 264, 16)
	ws := c.NewWorkspace()
	b.SetBytes(264)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ws.decodeHardBits(coded); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkViterbiHardV29Clean is the same frame with no channel errors:
// the zero-syndrome fast path, no trellis.
func BenchmarkViterbiHardV29Clean(b *testing.B) {
	c := NewV29()
	coded := benchCoded(c, 264, 0)
	ws := c.NewWorkspace()
	b.SetBytes(264)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ws.decodeHardBits(coded); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkViterbiHardV27(b *testing.B) {
	c := NewV27()
	coded := benchCoded(c, 264, 16)
	ws := c.NewWorkspace()
	b.SetBytes(264)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ws.decodeHardBits(coded); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkViterbiSoftV29(b *testing.B) {
	c := NewV29()
	soft := benchSoft(benchCoded(c, 264, 0), 7)
	ws := c.NewWorkspace()
	b.SetBytes(264)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ws.decodeSoftBits(soft); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRS8Decode measures the table-driven outer decoder over a
// multi-codeword stream carrying a correctable scatter of symbol errors.
func BenchmarkRS8Decode(b *testing.B) {
	r := NewRS8()
	rng := rand.New(rand.NewSource(43))
	msg := make([]byte, 4*r.k)
	rng.Read(msg)
	enc := r.Encode(msg)
	for cw := 0; cw < 4; cw++ {
		base := cw * (r.k + r.nroots)
		for e := 0; e < 4; e++ {
			enc[base+rng.Intn(r.k)] ^= byte(1 + rng.Intn(255))
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := r.Decode(enc); err != nil {
			b.Fatal(err)
		}
	}
}
