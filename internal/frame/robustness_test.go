package frame

import (
	"math/rand"
	"testing"
)

// The frame codec sits directly on the demodulator output; random and
// adversarial bytes must never panic and false accepts must be
// vanishingly rare (CRC32 + RS syndrome checks).

func TestDecodeFrameFuzzNoFalseAccept(t *testing.T) {
	c := NewCodec()
	rng := rand.New(rand.NewSource(1))
	accepted := 0
	const trials = 400
	for trial := 0; trial < trials; trial++ {
		blob := make([]byte, c.CodedFrameSize())
		rng.Read(blob)
		if f, err := decodeOne(c, blob); err == nil && f != nil {
			accepted++
		}
	}
	if accepted > 0 {
		t.Errorf("%d/%d random blobs decoded as valid frames", accepted, trials)
	}
}

func TestUnmarshalFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	accepted := 0
	for trial := 0; trial < 2000; trial++ {
		blob := make([]byte, FrameSize)
		rng.Read(blob)
		if _, err := Unmarshal(blob); err == nil {
			accepted++
		}
	}
	// CRC32 false-accept probability is 2^-32; zero expected here.
	if accepted > 0 {
		t.Errorf("%d random frames passed CRC", accepted)
	}
}

func TestDecodeStreamGarbageBetweenFrames(t *testing.T) {
	// A receiver that syncs mid-stream sees arbitrary byte alignment;
	// DecodeStream must count garbage as losses and keep going.
	c := NewCodec()
	good := &Frame{PageID: 1, Seq: 0, Total: 2, Payload: []byte("a")}
	coded, err := c.EncodeFrame(good)
	if err != nil {
		t.Fatal(err)
	}
	garbage := make([]byte, c.CodedFrameSize())
	rand.New(rand.NewSource(3)).Read(garbage)
	stream := append(append([]byte{}, coded...), garbage...)
	frames, lost := c.DecodeStream(stream)
	if len(frames) != 1 || lost != 1 {
		t.Errorf("frames=%d lost=%d, want 1/1", len(frames), lost)
	}
}

func TestReassemblerHostileTotals(t *testing.T) {
	r := NewReassembler(1)
	// A frame claiming a huge total must not cause huge allocations in
	// Bytes (it sizes its blob from the total — ensure Add bounds it by
	// rejecting inconsistent totals after the first frame).
	r.Add(&Frame{PageID: 1, Seq: 0, Total: 3, Payload: []byte("x")})
	if r.Add(&Frame{PageID: 1, Seq: 1, Total: 1 << 30}) {
		t.Error("inconsistent huge total accepted")
	}
	if r.Total() != 3 {
		t.Errorf("total drifted to %d", r.Total())
	}
}
