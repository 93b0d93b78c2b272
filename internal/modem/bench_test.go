package modem

import (
	"math/rand"
	"testing"
)

func benchBurst(b *testing.B, payloadBytes int) (*OFDM, []byte, []float64) {
	b.Helper()
	m, err := NewOFDM(Sonic92())
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	payload := make([]byte, payloadBytes)
	rng.Read(payload)
	return m, payload, modulateFloat(m, payload)
}

// pageStreamBytes is the framed, FEC-coded stream of a median page in
// the benchmark corpus: ~7 000 symbols, a 61 MB burst. At this size the
// burst's first touch and memory bandwidth are part of the cost, which
// a payload that stays in L2 hides.
const pageStreamBytes = 483_000

func BenchmarkOFDMModulatePage(b *testing.B) {
	m, payload, _ := benchBurst(b, pageStreamBytes)
	b.SetBytes(pageStreamBytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Modulate(payload)
	}
}

func BenchmarkOFDMDemodulatePage(b *testing.B) {
	m, _, audio := benchBurst(b, pageStreamBytes)
	b.SetBytes(pageStreamBytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Demodulate(audio); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOFDMDemodulateSoft(b *testing.B) {
	m, _, audio := benchBurst(b, 4096)
	b.SetBytes(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.DemodulateSoft(audio); err != nil {
			b.Fatal(err)
		}
	}
}
