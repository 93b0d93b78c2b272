package audio

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
)

// ramp is a deterministic non-trivial test signal in [-0.5, 0.5).
func ramp(rate, n int) *Buffer {
	b := &Buffer{Rate: rate, Samples: make([]float64, n)}
	for i := range b.Samples {
		b.Samples[i] = float64(i%97)/97 - 0.5
	}
	return b
}

func TestBufferBasics(t *testing.T) {
	b := ramp(48000, 4800)
	if got := b.Duration(); math.Abs(got-0.1) > 1e-9 {
		t.Errorf("Duration = %g, want 0.1", got)
	}
	if (&Buffer{}).Duration() != 0 {
		t.Error("zero-rate Duration should be 0")
	}
}

func TestFloatInt16Conversion(t *testing.T) {
	if FloatToInt16(1.0) != 32767 {
		t.Errorf("FloatToInt16(1) = %d", FloatToInt16(1.0))
	}
	if FloatToInt16(-1.5) != -32768 {
		t.Errorf("clamping failed: %d", FloatToInt16(-1.5))
	}
	if FloatToInt16(2.0) != 32767 {
		t.Errorf("clamping failed: %d", FloatToInt16(2.0))
	}
	if FloatToInt16(0) != 0 {
		t.Errorf("FloatToInt16(0) = %d", FloatToInt16(0))
	}
	// Round trip property within quantization error.
	f := func(v float64) bool {
		if math.IsNaN(v) || math.Abs(v) > 1 {
			v = math.Mod(v, 1)
			if math.IsNaN(v) {
				v = 0
			}
		}
		back := Int16ToFloat(FloatToInt16(v))
		return math.Abs(back-v) < 1.0/32000
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestWAVRoundTrip(t *testing.T) {
	src := ramp(48000, 2400)
	var buf bytes.Buffer
	if err := WriteWAV(&buf, src); err != nil {
		t.Fatal(err)
	}
	got, err := ReadWAV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rate != 48000 {
		t.Errorf("rate = %d", got.Rate)
	}
	if len(got.Samples) != len(src.Samples) {
		t.Fatalf("len = %d, want %d", len(got.Samples), len(src.Samples))
	}
	for i := range src.Samples {
		if math.Abs(got.Samples[i]-src.Samples[i]) > 1.0/16384 {
			t.Fatalf("sample %d: %g vs %g", i, got.Samples[i], src.Samples[i])
		}
	}
}

func TestReadWAVRejectsGarbage(t *testing.T) {
	if _, err := ReadWAV(bytes.NewReader([]byte("not a wav file at all..."))); err == nil {
		t.Error("garbage should be rejected")
	}
	// RIFF header but wrong magic.
	b := append([]byte("RIFF"), make([]byte, 8)...)
	if _, err := ReadWAV(bytes.NewReader(b)); err == nil {
		t.Error("non-WAVE RIFF should be rejected")
	}
}

func TestReadWAVSkipsUnknownChunks(t *testing.T) {
	src := ramp(8000, 80)
	var buf bytes.Buffer
	if err := WriteWAV(&buf, src); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Splice a LIST chunk between fmt and data.
	var spliced bytes.Buffer
	spliced.Write(raw[:36]) // RIFF hdr + fmt chunk
	spliced.WriteString("LIST")
	extra := []byte("INFOsoft")
	var lenb [4]byte
	lenb[0] = byte(len(extra))
	spliced.Write(lenb[:])
	spliced.Write(extra)
	spliced.Write(raw[36:]) // data chunk
	got, err := ReadWAV(&spliced)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Samples) != len(src.Samples) {
		t.Errorf("len = %d, want %d", len(got.Samples), len(src.Samples))
	}
}
