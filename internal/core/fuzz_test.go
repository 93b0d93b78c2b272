package core

import (
	"bytes"
	"runtime"
	"slices"
	"testing"

	"sonic/internal/frame"
)

// FuzzUnmarshalBundle: bundle blobs arrive off the air and over the
// control link, so any bytes must parse or fail with an error, never
// panic; a blob that parses re-marshals to a prefix of itself (trailing
// bytes past the two announced parts are the only thing dropped).
func FuzzUnmarshalBundle(f *testing.F) {
	good := MarshalBundle(Bundle{Image: []byte{1, 2, 3}, ClickMap: []byte(`{"page":"a.pk/"}`)})
	huge := append([]byte(nil), good...)
	huge[0] = 0xFF
	for _, seed := range [][]byte{good, huge, {1}, nil, append(good, 9, 9),
		{0x7F, 0xFF, 0xFF, 0xFF, 0x7F, 0xFF, 0xFF, 0xFF}} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, blob []byte) {
		b, err := UnmarshalBundle(blob)
		if err != nil {
			return
		}
		again := MarshalBundle(b)
		if !bytes.HasPrefix(blob, again) {
			t.Fatalf("parsed bundle re-marshals to %d bytes that are not a prefix of the %d-byte input", len(again), len(blob))
		}
		wired := NewBundle(b.Image, b.ClickMap)
		if !bytes.Equal(wired.Image, b.Image) || !bytes.Equal(wired.ClickMap, b.ClickMap) ||
			!bytes.Equal(MarshalBundle(wired), again) {
			t.Fatal("parsed bundle does not round-trip through NewBundle")
		}
	})
}

// Mutations FuzzDecodePageAudio applies to one valid page burst. Each op
// is four fuzzer bytes: the code (mod pgOpCount) and a 24-bit argument.
// The first two rewrite the frames before they are coded and modulated,
// the last two the audio.
const (
	pgInterleave = iota // a second page's frames alternate with the first's, from frame arg (mod the count) on; top bit set, the burst then airs back to front
	pgTotal             // frames from arg>>8 (mod the count) on announce a total of arg&0xFF — or, top bit set, 2^32-1 less that
	pgResample          // play the burst at 0.5 + 1.5*arg/2^24 of its sample rate (linear interpolation)
	pgTruncate          // cut the audio arg samples (mod the frame's span) into the last frame
	pgOpCount
)

// pgMaxOps bounds the mutations (and so the time) of one execution.
const pgMaxOps = 4

// What one DecodePageAudio call may allocate: pgAllocPerAudioByte bytes
// per byte of audio it was handed, plus pgAllocSlack. The seeds read up
// to 2 bytes per byte (the preamble search's FFT buffers) and 0.4 MB.
const (
	pgAllocPerAudioByte = 8
	pgAllocSlack        = 1 << 20
)

func pgOp(code byte, arg int) []byte {
	return []byte{code, byte(arg >> 16), byte(arg >> 8), byte(arg)}
}

// FuzzDecodePageAudio feeds hostile audio to the layers above the modem:
// the fuzzer's bytes drive mutations of one valid page burst — played at
// the wrong rate, carrying frames of two page ids, announcing a total
// its frame count does not back, cut inside its last frame. Whatever
// comes in, DecodePageAudio returns an error or a result, never panics,
// allocates in proportion to the audio it was given, and calls a page
// complete only when the bundle is one that was sent; an unmutated burst
// still returns its bundle.
func FuzzDecodePageAudio(f *testing.F) {
	p, err := NewPipeline(DefaultConfig())
	if err != nil {
		f.Fatal(err)
	}
	blobs := map[uint16][]byte{
		7: MarshalBundle(Bundle{Image: bytes.Repeat([]byte{0xA5, 3, 0xC9}, 70), ClickMap: []byte(`{"page":"a.pk/"}`)}),
		9: MarshalBundle(Bundle{Image: bytes.Repeat([]byte{0x11, 0xEE}, 90), ClickMap: []byte(`{"page":"b.pk/"}`)}),
	}
	nFrames := len(frame.Chunk(7, blobs[7]))
	lastFrame := p.modem.BurstSamples((nFrames - 1) * p.codec.CodedFrameSize())

	f.Add([]byte{})
	f.Add(pgOp(pgResample, (48000*1<<24/44100-1<<23)*2/3)) // a 44.1 kHz capture of the 48 kHz burst
	f.Add(pgOp(pgResample, 0))                             // half rate
	f.Add(pgOp(pgInterleave, 0))
	f.Add(pgOp(pgInterleave, 1))
	f.Add(pgOp(pgInterleave, 1<<23))       // the other page's last frame comes first
	f.Add(pgOp(pgTotal, nFrames-1))        // every frame announces one frame fewer than follow
	f.Add(pgOp(pgTotal, 1<<8|(nFrames+1))) // frame 0 says n, the rest n+1
	f.Add(pgOp(pgTotal, 0))                // a total of zero
	f.Add(pgOp(pgTotal, 1<<23))            // a total of 2^32-1
	f.Add(pgOp(pgTruncate, 1))
	f.Add(pgOp(pgTruncate, 5000))
	f.Add(append(pgOp(pgInterleave, 1), pgOp(pgTruncate, 9000)...))

	f.Fuzz(func(t *testing.T, ops []byte) {
		frames := frame.Chunk(7, blobs[7])
		other := frame.Chunk(9, blobs[9])
		type audioOp struct{ code, arg int }
		var onAudio []audioOp
		mutated := len(ops) >= 4
		for n := 0; len(ops) >= 4 && n < pgMaxOps; n, ops = n+1, ops[4:] {
			arg := int(ops[1])<<16 | int(ops[2])<<8 | int(ops[3])
			switch code := int(ops[0]) % pgOpCount; code {
			case pgInterleave:
				var mixed []*frame.Frame
				for i, fr := range frames {
					mixed = append(mixed, fr)
					if i >= arg%len(frames) && len(other) > 0 {
						mixed, other = append(mixed, other[0]), other[1:]
					}
				}
				if arg&(1<<23) != 0 {
					slices.Reverse(mixed)
				}
				frames = mixed
			case pgTotal:
				total := uint32(arg & 0xFF)
				if arg&(1<<23) != 0 {
					total = ^total
				}
				for _, fr := range frames[(arg>>8)%len(frames):] {
					fr.Total = total
				}
			default:
				onAudio = append(onAudio, audioOp{code, arg})
			}
		}
		stream, err := p.codec.EncodeStream(frames)
		if err != nil {
			t.Fatal(err)
		}
		audio := p.ModulateStream(stream)
		for _, op := range onAudio {
			switch op.code {
			case pgResample:
				step := 0.5 + 1.5*float64(op.arg)/(1<<24)
				out := make([]float64, int(float64(max(len(audio), 1)-1)/step))
				for i := range out {
					pos := float64(i) * step
					j := int(pos)
					out[i] = audio[j] + (pos-float64(j))*(audio[j+1]-audio[j])
				}
				audio = out
			case pgTruncate:
				if len(audio) > lastFrame {
					audio = audio[:lastFrame+op.arg%(len(audio)-lastFrame)]
				}
			}
		}

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := p.DecodePageAudio(audio)
		runtime.ReadMemStats(&after)
		if res == nil && err == nil {
			t.Fatal("neither a result nor an error")
		}
		got, limit := after.TotalAlloc-before.TotalAlloc, uint64(pgAllocPerAudioByte*8*len(audio)+pgAllocSlack)
		if got > limit {
			t.Fatalf("decoding %d samples allocated %d bytes, want <= %d", len(audio), got, limit)
		}
		if res == nil {
			if !mutated {
				t.Fatalf("unmutated burst: %v", err)
			}
			return
		}
		if res.FramesLost < 0 || res.FrameLossRate < 0 || res.FrameLossRate > 1 {
			t.Fatalf("loss accounting out of range: %d frames lost of %d, rate %v", res.FramesLost, res.FramesTotal, res.FrameLossRate)
		}
		if res.Complete && !bytes.HasPrefix(blobs[res.PageID], MarshalBundle(res.Bundle)) {
			t.Fatalf("page %d called complete with a bundle that was never sent", res.PageID)
		}
		if !mutated && (!res.Complete || !bytes.Equal(MarshalBundle(res.Bundle), blobs[7])) {
			t.Fatalf("unmutated burst did not return its bundle: %+v", res)
		}
	})
}
