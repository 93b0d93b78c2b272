package modem

import (
	"bytes"
	"math/rand"
	"testing"

	"sonic/internal/fec"
)

func TestDemapSoftSignsMatchHard(t *testing.T) {
	// For every constellation and random noisy symbols, the sign of each
	// soft metric must agree with the hard decision.
	rng := rand.New(rand.NewSource(1))
	for _, c := range allConstellations() {
		for trial := 0; trial < 500; trial++ {
			sym := complex(rng.NormFloat64(), rng.NormFloat64())
			hard := c.Demap(sym, nil)
			soft := c.DemapSoft(sym, nil)
			if len(soft) != len(hard) {
				t.Fatalf("%s: %d soft vs %d hard", c.Name(), len(soft), len(hard))
			}
			for i := range hard {
				sbit := byte(0)
				if soft[i] > 0 {
					sbit = 1
				}
				if soft[i] == 0 {
					continue // boundary: either decision acceptable
				}
				if sbit != hard[i] {
					t.Fatalf("%s sym %v bit %d: soft %g vs hard %d",
						c.Name(), sym, i, soft[i], hard[i])
				}
			}
		}
	}
}

func TestDemapSoftReliabilityOrdering(t *testing.T) {
	// A symbol near a decision boundary must have a smaller-magnitude
	// soft metric than one deep inside a decision region.
	c := QAM64
	deep := c.Map([]byte{1, 1, 1, 1, 1, 1}) // a corner point
	softDeep := c.DemapSoft(deep*2, nil)    // push further out
	softEdge := c.DemapSoft(complex(0.01, 0.01), nil)
	if abs(softEdge[0]) >= abs(softDeep[0]) {
		t.Errorf("edge |%g| should be less reliable than deep |%g|",
			softEdge[0], softDeep[0])
	}
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// hardDecisions slices soft metrics (positive = 1) into packed bytes.
func hardDecisions(soft []float64) []byte {
	bits := make([]byte, len(soft))
	for i, v := range soft {
		if v > 0 {
			bits[i] = 1
		}
	}
	return fec.BitsToBytes(bits)
}

func TestDemodulateSoftMatchesHardOnCleanAudio(t *testing.T) {
	m, _ := NewOFDM(Sonic92())
	rng := rand.New(rand.NewSource(2))
	payload := make([]byte, 300)
	rng.Read(payload)
	audio := modulateFloat(m, payload)
	hard, err := m.Demodulate(audio)
	if err != nil {
		t.Fatal(err)
	}
	soft, err := m.DemodulateSoft(audio)
	if err != nil {
		t.Fatal(err)
	}
	if len(soft.Soft) != len(payload)*8 {
		t.Fatalf("soft has %d metrics, want %d", len(soft.Soft), len(payload)*8)
	}
	if !bytes.Equal(hardDecisions(soft.Soft), hard.Payload) {
		t.Fatal("soft metrics' signs differ from the hard path's payload")
	}
	if !bytes.Equal(hard.Payload, payload) {
		t.Fatal("payload mismatch")
	}
}

func TestDemodulateSoftNoSignal(t *testing.T) {
	m, _ := NewOFDM(Sonic92())
	if _, err := m.DemodulateSoft(make([]float64, 48000)); err != ErrNoPreamble {
		t.Errorf("err = %v", err)
	}
}
