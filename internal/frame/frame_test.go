package frame

import (
	"bytes"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"sonic/internal/fec"
)

func TestFrameMarshalRoundTrip(t *testing.T) {
	f := &Frame{PageID: 7, Seq: 12345, Total: 99999, Payload: []byte("hello sonic")}
	b, err := f.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != FrameSize {
		t.Fatalf("marshaled %d bytes, want %d", len(b), FrameSize)
	}
	got, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.PageID != 7 || got.Seq != 12345 || got.Total != 99999 ||
		!bytes.Equal(got.Payload, f.Payload) {
		t.Errorf("round trip mismatch: %+v", got)
	}
}

func TestFrameValidation(t *testing.T) {
	f := &Frame{Payload: make([]byte, PayloadSize+1)}
	if _, err := f.Marshal(); err != ErrPayloadTooBig {
		t.Errorf("oversized payload err = %v", err)
	}
	if _, err := Unmarshal(make([]byte, 99)); err != ErrBadLength {
		t.Errorf("short frame err = %v", err)
	}
	good, _ := (&Frame{Payload: []byte("x")}).Marshal()
	good[5] ^= 0xFF
	if _, err := Unmarshal(good); err != ErrBadCRC {
		t.Errorf("corrupted frame err = %v", err)
	}
}

func TestCodecGeometry(t *testing.T) {
	c := NewCodec()
	// 100 -> RS(132) -> conv 2*(132*8+8) bits = 266 bytes.
	if c.CodedFrameSize() != 266 {
		t.Errorf("coded frame = %d bytes, want 266", c.CodedFrameSize())
	}
	// Net goodput with the Sonic92 profile: raw 23 kbps * 100/266 * 85/100.
	plain := NewCodecWith(nil, nil)
	if plain.CodedFrameSize() != FrameSize {
		t.Errorf("no-FEC coded size = %d", plain.CodedFrameSize())
	}
}

func TestCodecCleanRoundTrip(t *testing.T) {
	c := NewCodec()
	f := &Frame{PageID: 1, Seq: 2, Total: 3, Payload: []byte("payload")}
	coded, err := c.EncodeFrame(f)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeOne(c, coded)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != 2 || !bytes.Equal(got.Payload, f.Payload) {
		t.Error("round trip mismatch")
	}
}

func TestCodecCorrectsBitErrors(t *testing.T) {
	c := NewCodec()
	f := &Frame{PageID: 1, Seq: 0, Total: 1, Payload: bytes.Repeat([]byte{0xAB}, PayloadSize)}
	coded, _ := c.EncodeFrame(f)
	rng := rand.New(rand.NewSource(1))
	// 1% random bit errors: v29 alone should fix nearly all, RS the rest.
	corrupted := make([]byte, len(coded))
	copy(corrupted, coded)
	flips := 0
	for i := range corrupted {
		for b := 0; b < 8; b++ {
			if rng.Float64() < 0.01 {
				corrupted[i] ^= 1 << uint(b)
				flips++
			}
		}
	}
	if flips == 0 {
		t.Skip("no flips")
	}
	got, err := decodeOne(c, corrupted)
	if err != nil {
		t.Fatalf("decode after %d bit flips: %v", flips, err)
	}
	if !bytes.Equal(got.Payload, f.Payload) {
		t.Error("payload corrupted")
	}
}

func TestCodecDetectsHeavyCorruption(t *testing.T) {
	c := NewCodec()
	f := &Frame{PageID: 1, Seq: 0, Total: 1, Payload: []byte("x")}
	coded, _ := c.EncodeFrame(f)
	rng := rand.New(rand.NewSource(2))
	lostOrWrong := 0
	const trials = 10
	for trial := 0; trial < trials; trial++ {
		corrupted := make([]byte, len(coded))
		copy(corrupted, coded)
		for i := range corrupted {
			if rng.Float64() < 0.5 {
				corrupted[i] = byte(rng.Intn(256))
			}
		}
		got, err := decodeOne(c, corrupted)
		if err != nil || !bytes.Equal(got.Payload, f.Payload) {
			lostOrWrong++
		}
	}
	if lostOrWrong != trials {
		t.Errorf("%d/%d heavily corrupted frames decoded 'successfully'", trials-lostOrWrong, trials)
	}
}

func TestChunkAndReassemble(t *testing.T) {
	blob := make([]byte, 1000)
	rand.New(rand.NewSource(3)).Read(blob)
	frames := Chunk(42, blob)
	wantFrames := (1000 + PayloadSize - 1) / PayloadSize
	if len(frames) != wantFrames {
		t.Fatalf("chunked into %d frames, want %d", len(frames), wantFrames)
	}
	r := NewReassembler(42)
	for _, f := range frames {
		if !r.Add(f) {
			t.Fatalf("frame %d rejected", f.Seq)
		}
	}
	if !r.Complete() || r.LossRate() != 0 {
		t.Fatal("should be complete")
	}
	got, ok := r.Bytes()
	if !ok || !bytes.Equal(got, blob) {
		t.Fatal("reassembly mismatch")
	}
}

// TestReassemblerMatchesChunkedBlob: frames arriving in any order, one
// of them twice, reassemble to exactly the blob Chunk split, at sizes
// on both sides of a frame's payload.
func TestReassemblerMatchesChunkedBlob(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{0, 1, PayloadSize, PayloadSize + 1, 7*PayloadSize - 3} {
		blob := make([]byte, n)
		rng.Read(blob)
		frames := Chunk(7, blob)
		arrivals := append(slices.Clone(frames), frames[rng.Intn(len(frames))])
		rng.Shuffle(len(arrivals), func(i, j int) { arrivals[i], arrivals[j] = arrivals[j], arrivals[i] })
		r := NewReassembler(7)
		for _, f := range arrivals {
			r.Add(f)
		}
		got, ok := r.Bytes()
		if !ok || !bytes.Equal(got, blob) {
			t.Fatalf("%d B: reassembled %d B (ok=%v), want the chunked blob", n, len(got), ok)
		}
	}
}

func TestChunkEmptyBlob(t *testing.T) {
	frames := Chunk(1, nil)
	if len(frames) != 1 || len(frames[0].Payload) != 0 {
		t.Errorf("empty blob should produce one empty frame, got %d", len(frames))
	}
}

func TestReassemblerRejects(t *testing.T) {
	r := NewReassembler(5)
	f0 := &Frame{PageID: 5, Seq: 0, Total: 2, Payload: []byte("a")}
	if !r.Add(f0) {
		t.Fatal("valid frame rejected")
	}
	if r.Add(f0) {
		t.Error("duplicate accepted")
	}
	if r.Add(&Frame{PageID: 6, Seq: 1, Total: 2}) {
		t.Error("wrong page accepted")
	}
	if r.Add(&Frame{PageID: 5, Seq: 9, Total: 2}) {
		t.Error("out-of-range seq accepted")
	}
	if r.Add(&Frame{PageID: 5, Seq: 1, Total: 7}) {
		t.Error("inconsistent total accepted")
	}
	if r.Complete() {
		t.Error("incomplete reported complete")
	}
	if r.Received() != 1 {
		t.Errorf("Received = %d, want 1", r.Received())
	}
	if _, ok := r.Bytes(); ok {
		t.Error("Bytes should fail while incomplete")
	}
	if r.LossRate() != 0.5 {
		t.Errorf("LossRate = %g", r.LossRate())
	}
}

func TestStreamRoundTripWithLostFrames(t *testing.T) {
	c := NewCodec()
	blob := make([]byte, 850)
	rand.New(rand.NewSource(4)).Read(blob)
	frames := Chunk(9, blob)
	stream, err := c.EncodeStream(frames)
	if err != nil {
		t.Fatal(err)
	}
	// Obliterate the third coded frame.
	off := 2 * c.CodedFrameSize()
	for i := off; i < off+c.CodedFrameSize(); i++ {
		stream[i] = 0
	}
	got, lost := c.DecodeStream(stream)
	if lost != 1 {
		t.Errorf("lost = %d, want 1", lost)
	}
	if len(got) != len(frames)-1 {
		t.Errorf("recovered %d frames, want %d", len(got), len(frames)-1)
	}
	r := NewReassembler(9)
	for _, f := range got {
		r.Add(f)
	}
	if _, ok := r.payloads[2]; ok || r.Received() != r.Total()-1 {
		t.Errorf("received %d of %d (seq 2 present: %v), want only seq 2 missing", r.Received(), r.Total(), ok)
	}
}

// refDecodeStream is the serial DecodeStream this package had before the
// frame loop went parallel, kept verbatim as the parity reference.
func refDecodeStream(c *Codec, stream []byte) (frames []*Frame, lost int) {
	for off := 0; off+c.codedLen <= len(stream); off += c.codedLen {
		f, err := decodeOne(c, stream[off:off+c.codedLen])
		if err != nil {
			lost++
			continue
		}
		frames = append(frames, f)
	}
	return frames, lost
}

// refDecodeStreamSoft is the serial DecodeStreamSoft this package had
// before soft streams joined the parallel frame loop, kept verbatim as the
// parity reference.
func refDecodeStreamSoft(c *Codec, soft []float64) (frames []*Frame, lost int) {
	chunk := c.codedLen * 8
	for off := 0; off+chunk <= len(soft); off += chunk {
		f, err := decodeOneSoft(c, soft[off:off+chunk])
		if err != nil {
			lost++
			continue
		}
		frames = append(frames, f)
	}
	return frames, lost
}

// noisySoft turns a coded byte stream into soft metrics: ±1 per bit plus
// Gaussian noise of standard deviation sigma.
func noisySoft(stream []byte, sigma float64, rng *rand.Rand) []float64 {
	soft := make([]float64, 8*len(stream))
	for i := range soft {
		soft[i] = float64(stream[i/8]>>uint(7-i%8)&1)*2 - 1 + sigma*rng.NormFloat64()
	}
	return soft
}

// TestDecodeStreamParityAcrossGOMAXPROCS pins the parallel frame loop to
// the serial references — same frames in the same order, same lost count,
// nil where the reference returns nil — at 1, 2 and 4 procs, for every
// stream as hard bytes (DecodeStream) and as noisy soft metrics
// (DecodeStreamSoft).
func TestDecodeStreamParityAcrossGOMAXPROCS(t *testing.T) {
	c := NewCodec()
	rng := rand.New(rand.NewSource(16))
	blob := make([]byte, 60*PayloadSize-7)
	rng.Read(blob)
	clean, err := c.EncodeStream(Chunk(7, blob))
	if err != nil {
		t.Fatal(err)
	}
	cl := c.CodedFrameSize()

	damaged := append([]byte(nil), clean...)
	for i := 0; i < 120; i++ { // scattered bit errors the FEC corrects
		damaged[rng.Intn(len(damaged))] ^= 1 << uint(rng.Intn(8))
	}
	for _, lostFrame := range []int{0, 17, 18, 59} { // and frames it cannot
		rng.Read(damaged[lostFrame*cl : (lostFrame+1)*cl])
	}
	garbage := make([]byte, 20*cl)
	rng.Read(garbage)

	streams := []struct {
		name   string
		stream []byte
	}{
		{"clean", clean},
		{"bit errors and lost frames", damaged},
		{"trailing partial frame", append(append([]byte(nil), damaged...), clean[:cl/2]...)},
		{"below one worker's minimum", clean[:3*cl]},
		{"every frame lost", garbage},
		{"shorter than a frame", clean[:cl-1]},
		{"empty", nil},
	}
	type decoded struct {
		frames []*Frame
		lost   int
	}
	run := func(decode func(c *Codec) ([]*Frame, int)) decoded {
		frames, lost := decode(NewCodec())
		return decoded{frames, lost}
	}
	type leg struct {
		name     string
		ref, got func(c *Codec) ([]*Frame, int)
	}
	var legs []leg
	for _, tc := range streams {
		soft := noisySoft(tc.stream, 0.5, rng)
		legs = append(legs,
			leg{tc.name,
				func(c *Codec) ([]*Frame, int) { return refDecodeStream(c, tc.stream) },
				func(c *Codec) ([]*Frame, int) { return c.DecodeStream(tc.stream) }},
			leg{tc.name + ", soft",
				func(c *Codec) ([]*Frame, int) { return refDecodeStreamSoft(c, soft) },
				func(c *Codec) ([]*Frame, int) { return c.DecodeStreamSoft(soft) }})
	}
	// The references are serial, so one run each serves every proc count.
	want := make([]decoded, len(legs))
	for i, l := range legs {
		want[i] = run(l.ref)
	}
	for _, procs := range []int{1, 2, 4} {
		prev := runtime.GOMAXPROCS(procs)
		for i, l := range legs {
			got, ref := run(l.got), want[i]
			if got.lost != ref.lost || !reflect.DeepEqual(got.frames, ref.frames) {
				t.Errorf("GOMAXPROCS=%d %s: %d frames/%d lost, reference %d/%d (or frames differ)",
					procs, l.name, len(got.frames), got.lost, len(ref.frames), ref.lost)
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

// TestCodecDecodeAllocs pins what a warm decode allocates, so a pooled
// inner-code workspace that is not put back shows up as the objects of a
// fresh one. testing.AllocsPerRun pins GOMAXPROCS to 1, so the stream
// decodes as one chunk with one workspace. The bounds are the counts
// measured on a 2-vCPU host (decodeFrame 3, DecodeStream of 64 frames
// 195, on 40 samples of 40) plus one.
func TestCodecDecodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are nondeterministic under the race detector (pool Puts randomly dropped)")
	}
	c := NewCodec()
	rng := rand.New(rand.NewSource(5))
	blob := make([]byte, 64*PayloadSize)
	rng.Read(blob)
	stream, err := c.EncodeStream(Chunk(3, blob))
	if err != nil {
		t.Fatal(err)
	}
	one := append([]byte(nil), stream[:c.CodedFrameSize()]...)
	one[40] ^= 0x10 // one bit error: the inner code's full trellis path
	for _, tc := range []struct {
		name string
		max  float64
		fn   func()
	}{
		{"decodeFrame", 4, func() {
			if _, err := decodeOne(c, one); err != nil {
				t.Fatal(err)
			}
		}},
		{"DecodeStream", 196, func() {
			if _, lost := c.DecodeStream(stream); lost != 0 {
				t.Fatalf("lost %d frames", lost)
			}
		}},
	} {
		tc.fn() // warm the workspace pool
		if got := testing.AllocsPerRun(20, tc.fn); got > tc.max {
			t.Errorf("%s allocates %v objects per call, want <= %v", tc.name, got, tc.max)
		}
	}
}

func TestCodecAblationVariants(t *testing.T) {
	// All four FEC combinations must round-trip cleanly.
	for _, c := range []*Codec{
		NewCodecWith(nil, nil),
		NewCodecWith(fec.NewRS8(), nil),
		NewCodecWith(nil, fec.NewV29()),
		NewCodecWith(fec.NewRS8(), fec.NewV27()),
	} {
		f := &Frame{PageID: 3, Seq: 1, Total: 2, Payload: []byte("ablation")}
		coded, err := c.EncodeFrame(f)
		if err != nil {
			t.Fatal(err)
		}
		got, err := decodeOne(c, coded)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Payload, f.Payload) {
			t.Error("ablation variant round trip failed")
		}
	}
}

func TestChunkReassembleQuick(t *testing.T) {
	f := func(blob []byte, pageID uint16) bool {
		frames := Chunk(pageID, blob)
		r := NewReassembler(pageID)
		// Shuffle-ish delivery order.
		for i := len(frames) - 1; i >= 0; i-- {
			r.Add(frames[i])
		}
		got, ok := r.Bytes()
		if !ok {
			return false
		}
		if len(blob) == 0 {
			return len(got) == 0
		}
		return bytes.Equal(got, blob)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func BenchmarkCodecEncodeFrame(b *testing.B) {
	c := NewCodec()
	f := &Frame{PageID: 1, Seq: 1, Total: 10, Payload: make([]byte, PayloadSize)}
	b.SetBytes(PayloadSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.EncodeFrame(f); err != nil {
			b.Fatal(err)
		}
	}
}

// decodeOne decodes one coded frame on a pooled workspace, as each
// DecodeStream worker does.
func decodeOne(c *Codec, coded []byte) (*Frame, error) {
	ws := c.getWorkspace()
	defer c.putWorkspace(ws)
	return c.decodeFrame(ws, coded)
}

// decodeOneSoft is decodeOne on per-bit soft metrics.
func decodeOneSoft(c *Codec, soft []float64) (*Frame, error) {
	ws := c.getWorkspace()
	defer c.putWorkspace(ws)
	return c.decodeFrameSoft(ws, soft)
}

func BenchmarkCodecDecodeFrame(b *testing.B) {
	c := NewCodec()
	f := &Frame{PageID: 1, Seq: 1, Total: 10, Payload: make([]byte, PayloadSize)}
	coded, _ := c.EncodeFrame(f)
	b.SetBytes(PayloadSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := decodeOne(c, coded); err != nil {
			b.Fatal(err)
		}
	}
}
