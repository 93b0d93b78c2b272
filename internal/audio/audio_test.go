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

// TestPCMRoundTripIdentity pins the quantizer pair as exact inverses on
// every 16-bit value: Int16ToFloat then FloatToInt16, alone, through
// Floats and through a WAV written and read back, is the identity. It
// also pins round half to even and the clamp at both ends.
func TestPCMRoundTripIdentity(t *testing.T) {
	pcm := make([]int16, 1<<16)
	for i := range pcm {
		pcm[i] = int16(i - 1<<15)
	}
	floats := Floats(pcm)
	for i, v := range pcm {
		if got := FloatToInt16(Int16ToFloat(v)); got != v {
			t.Fatalf("FloatToInt16(Int16ToFloat(%d)) = %d", v, got)
		}
		if floats[i] != Int16ToFloat(v) {
			t.Fatalf("Floats[%d] = %v, want Int16ToFloat(%d) = %v", i, floats[i], v, Int16ToFloat(v))
		}
	}
	var wav bytes.Buffer
	if err := WriteWAV(&wav, &Buffer{Rate: 48000, Samples: floats}); err != nil {
		t.Fatal(err)
	}
	back, err := ReadWAV(&wav)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range back.Samples {
		if v != floats[i] {
			t.Fatalf("sample %d read back from the WAV as %v, wrote %v", i, v, floats[i])
		}
	}
	for _, tc := range []struct {
		in   float64
		want int16
	}{
		{0.5 / 32768, 0}, {1.5 / 32768, 2}, {-0.5 / 32768, 0}, {-1.5 / 32768, -2},
		{1, 32767}, {2, 32767}, {-1, -32768}, {-2, -32768},
	} {
		if got := FloatToInt16(tc.in); got != tc.want {
			t.Errorf("FloatToInt16(%v) = %d, want %d", tc.in, got, tc.want)
		}
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
	// A well-formed file at 0 Hz.
	var wav bytes.Buffer
	if err := WriteWAV(&wav, ramp(0, 16)); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadWAV(&wav); err != ErrUnsupportedWAV {
		t.Errorf("a WAV at 0 Hz: err %v, want %v", err, ErrUnsupportedWAV)
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
