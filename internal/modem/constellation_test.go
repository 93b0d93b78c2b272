package modem

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func allConstellations() []*Constellation {
	return []*Constellation{BPSK, QPSK, QAM16, QAM64, QAM256, QAM1024}
}

func TestConstellationByBits(t *testing.T) {
	for _, c := range allConstellations() {
		got, err := ConstellationByBits(c.Bits())
		if err != nil || got != c {
			t.Errorf("ConstellationByBits(%d) = %v, %v", c.Bits(), got, err)
		}
	}
	if _, err := ConstellationByBits(3); err == nil {
		t.Error("bits=3 should fail")
	}
	if _, err := ConstellationByBits(12); err == nil {
		t.Error("bits=12 should fail")
	}
}

func TestConstellationUnitEnergy(t *testing.T) {
	for _, c := range allConstellations() {
		n := 1 << uint(c.Bits())
		var energy float64
		for v := 0; v < n; v++ {
			bits := make([]byte, c.Bits())
			for k := 0; k < c.Bits(); k++ {
				bits[k] = byte(v>>uint(c.Bits()-1-k)) & 1
			}
			s := c.Map(bits)
			energy += real(s)*real(s) + imag(s)*imag(s)
		}
		avg := energy / float64(n)
		if math.Abs(avg-1) > 1e-9 {
			t.Errorf("%s average energy = %g, want 1", c.Name(), avg)
		}
	}
}

func TestConstellationMapDemapRoundTrip(t *testing.T) {
	for _, c := range allConstellations() {
		n := 1 << uint(c.Bits())
		for v := 0; v < n; v++ {
			bits := make([]byte, c.Bits())
			for k := 0; k < c.Bits(); k++ {
				bits[k] = byte(v>>uint(c.Bits()-1-k)) & 1
			}
			sym := c.Map(bits)
			got := c.Demap(sym, nil)
			for k := range bits {
				if got[k] != bits[k] {
					t.Fatalf("%s value %d: demap mismatch %v vs %v", c.Name(), v, got, bits)
				}
			}
		}
	}
}

// minDistance measures the smallest distance between any two points of
// c off Map itself (a proxy for noise tolerance).
func minDistance(c *Constellation) float64 {
	pts := make([]complex128, 1<<uint(c.Bits()))
	for v := range pts {
		bits := make([]byte, c.Bits())
		for k := range bits {
			bits[k] = byte(v>>uint(c.Bits()-1-k)) & 1
		}
		pts[v] = c.Map(bits)
	}
	d := math.Inf(1)
	for i, p := range pts {
		for _, q := range pts[:i] {
			d = math.Min(d, cmplx.Abs(p-q))
		}
	}
	return d
}

func TestConstellationDemapWithNoise(t *testing.T) {
	// Noise below half the minimum distance must never flip a decision.
	rng := rand.New(rand.NewSource(1))
	for _, c := range allConstellations() {
		margin := minDistance(c) / 2 * 0.45
		for trial := 0; trial < 200; trial++ {
			bits := make([]byte, c.Bits())
			for k := range bits {
				bits[k] = byte(rng.Intn(2))
			}
			sym := c.Map(bits)
			angle := rng.Float64() * 2 * math.Pi
			noisy := sym + cmplx.Rect(margin, angle)
			got := c.Demap(noisy, nil)
			for k := range bits {
				if got[k] != bits[k] {
					t.Fatalf("%s: in-margin noise flipped bits", c.Name())
				}
			}
		}
	}
}

func TestConstellationGrayAdjacency(t *testing.T) {
	// Adjacent levels on one axis should differ in exactly one bit of the
	// per-axis Gray label (the property that makes symbol errors cheap).
	for _, c := range []*Constellation{QAM16, QAM64, QAM256, QAM1024} {
		side := c.side
		// Build natural-order level -> gray map.
		byLevel := make(map[float64]int)
		for gray := 0; gray < side; gray++ {
			byLevel[c.levels[gray]] = gray
		}
		for i := 0; i < side-1; i++ {
			l0 := float64(2*i - side + 1)
			l1 := float64(2*(i+1) - side + 1)
			g0, g1 := byLevel[l0], byLevel[l1]
			diff := g0 ^ g1
			if diff == 0 || diff&(diff-1) != 0 {
				t.Errorf("%s: levels %g,%g gray codes %b,%b differ in != 1 bit",
					c.Name(), l0, l1, g0, g1)
			}
		}
	}
}

func TestConstellationDemapClamps(t *testing.T) {
	// Wildly out-of-range symbols must still demap without panicking.
	for _, c := range allConstellations() {
		for _, sym := range []complex128{100, -100, 100i, -100i, complex(50, -50)} {
			got := c.Demap(sym, nil)
			if len(got) != c.Bits() {
				t.Errorf("%s: demap of %v produced %d bits", c.Name(), sym, len(got))
			}
		}
	}
}

func TestConstellationQuickRoundTrip(t *testing.T) {
	f := func(raw []byte, sel uint8) bool {
		cs := allConstellations()
		c := cs[int(sel)%len(cs)]
		bits := make([]byte, c.Bits())
		for i := range bits {
			if i < len(raw) {
				bits[i] = raw[i] & 1
			}
		}
		got := c.Demap(c.Map(bits), nil)
		for i := range bits {
			if got[i] != bits[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMinDistanceOrdering(t *testing.T) {
	// Higher-order constellations have smaller minimum distance.
	cs := allConstellations()
	prev := minDistance(cs[0])
	for i := 1; i < len(cs); i++ {
		d := minDistance(cs[i])
		if d >= prev {
			t.Errorf("%s min distance %g not < %s's %g", cs[i].Name(), d, cs[i-1].Name(), prev)
		}
		prev = d
	}
}
