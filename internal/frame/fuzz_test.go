package frame

import (
	"bytes"
	"math"
	"testing"
)

// fuzzMetric reads one fuzz byte as a soft metric: a signed value in
// [-2, 2), except for three byte values that stand for what no demapper
// should emit but a corrupted buffer can hold.
func fuzzMetric(b byte) float64 {
	switch b {
	case 0x7F:
		return math.Inf(1)
	case 0x80:
		return math.Inf(-1)
	case 0xC0:
		return math.NaN()
	}
	return float64(int8(b)) / 64
}

// FuzzFrameDecode throws arbitrary bytes at the frame ingestion paths a
// receiver exposes to the airwaves: raw Unmarshal, the full FEC-coded
// decodeFrame, and its soft-metric twin decodeFrameSoft. None may panic
// on any input or return a nil frame without an error, anything
// Unmarshal accepts must survive a Marshal round-trip, and a payload
// pushed through the whole encode/decode chain, as bytes or as clean ±1
// metrics, must come back intact.
func FuzzFrameDecode(f *testing.F) {
	valid, err := (&Frame{PageID: 7, Seq: 3, Total: 9, Payload: []byte("sonic fuzz seed")}).Marshal()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, FrameSize))
	f.Add(bytes.Repeat([]byte{0x00}, FrameSize-1))
	f.Add([]byte("short"))
	f.Add([]byte{0x7F, 0x80, 0xC0, 0x01, 0xFF, 0x40})

	codec := NewCodec()
	f.Fuzz(func(t *testing.T, data []byte) {
		// Raw wire form: must never panic; accepted frames round-trip.
		if fr, err := Unmarshal(data); err == nil {
			m, err := fr.Marshal()
			if err != nil {
				t.Fatalf("Unmarshal accepted a frame Marshal rejects: %v", err)
			}
			fr2, err := Unmarshal(m)
			if err != nil {
				t.Fatalf("re-Unmarshal of re-Marshal failed: %v", err)
			}
			if fr2.PageID != fr.PageID || fr2.Seq != fr.Seq || fr2.Total != fr.Total || !bytes.Equal(fr2.Payload, fr.Payload) {
				t.Fatalf("round-trip changed the frame: %+v vs %+v", fr, fr2)
			}
		}

		// FEC-coded form: arbitrary garbage (right-sized or not) must
		// come back as an error or a valid frame, never a panic.
		if fr, err := decodeOne(codec, data); err == nil && fr == nil {
			t.Fatal("decodeFrame returned nil frame with nil error")
		}

		// Full chain: the fuzz input as payload must survive
		// encode→decode bit-exactly.
		payload := data
		if len(payload) > PayloadSize {
			payload = payload[:PayloadSize]
		}
		orig := &Frame{PageID: 1, Seq: 2, Total: 3, Payload: payload}
		coded, err := codec.EncodeFrame(orig)
		if err != nil {
			t.Fatalf("EncodeFrame(%d-byte payload): %v", len(payload), err)
		}
		got, err := decodeOne(codec, coded)
		if err != nil {
			t.Fatalf("decodeFrame of clean coded frame: %v", err)
		}
		if !bytes.Equal(got.Payload, payload) {
			t.Fatalf("payload changed through codec: %q vs %q", payload, got.Payload)
		}

		// Soft form: the fuzz bytes as metrics, alone (almost always the
		// wrong length) and overwriting the start of the coded frame's
		// clean ±1 metrics; then the clean metrics themselves, which must
		// decode to the payload.
		hostile := make([]float64, len(data))
		for i, b := range data {
			hostile[i] = fuzzMetric(b)
		}
		if fr, err := decodeOneSoft(codec, hostile); err == nil && fr == nil {
			t.Fatal("decodeFrameSoft returned nil frame with nil error")
		}
		soft := make([]float64, 8*len(coded))
		for i := range soft {
			soft[i] = float64(coded[i/8]>>uint(7-i%8)&1)*2 - 1
		}
		mixed := append([]float64(nil), soft...)
		copy(mixed, hostile)
		if fr, err := decodeOneSoft(codec, mixed); err == nil && fr == nil {
			t.Fatal("decodeFrameSoft returned nil frame with nil error")
		}
		got, err = decodeOneSoft(codec, soft)
		if err != nil {
			t.Fatalf("decodeFrameSoft of clean ±1 metrics: %v", err)
		}
		if !bytes.Equal(got.Payload, payload) {
			t.Fatalf("payload changed through the soft path: %q vs %q", payload, got.Payload)
		}
	})
}
