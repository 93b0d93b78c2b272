// Package audio provides the PCM buffer utilities shared by the SONIC
// modem and FM chain: float64 sample buffers, the one int16 quantizer
// and its exact inverse, and RIFF/WAVE file encoding/decoding (16-bit
// PCM, mono or interleaved multi-channel). The SONIC prototype moves
// webpage frames as audible sound; this package is how that sound enters
// and leaves files for the cmd/sonic-modem tool and the examples.
package audio

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"

	"sonic/internal/parallel"
)

// Buffer is a mono PCM signal with an associated sample rate.
type Buffer struct {
	Rate    int       // samples per second
	Samples []float64 // nominal range [-1, 1]
}

// Duration returns the buffer duration in seconds.
func (b *Buffer) Duration() float64 {
	if b.Rate <= 0 {
		return 0
	}
	return float64(len(b.Samples)) / float64(b.Rate)
}

// FloatToInt16 is the one quantizer: it scales a float sample in [-1,1)
// by 32768, rounds half to even and clamps to [-32768, 32767]. It is the
// exact inverse of Int16ToFloat, so PCM that goes to float and back is
// unchanged.
func FloatToInt16(v float64) int16 {
	v = math.RoundToEven(v * 32768)
	if v > 32767 {
		return 32767
	}
	if v < -32768 {
		return -32768
	}
	return int16(v)
}

// Int16ToFloat converts an int16 sample to a float in [-1,1).
func Int16ToFloat(v int16) float64 {
	return float64(v) / 32768
}

// Floats returns the float view of PCM samples (Int16ToFloat of each) in
// a fresh slice, converted on the GOMAXPROCS pool.
func Floats(pcm []int16) []float64 {
	out := make([]float64, len(pcm))
	parallel.For(runtime.GOMAXPROCS(0), len(pcm), floatsMinChunk, func(lo, hi int) {
		for i, v := range pcm[lo:hi] {
			out[lo+i] = Int16ToFloat(v)
		}
	})
	return out
}

// floatsMinChunk is the fewest samples worth a goroutine of their own in
// Floats.
const floatsMinChunk = 1 << 15

// errors for WAV parsing
var (
	ErrNotWAV         = errors.New("audio: not a RIFF/WAVE file")
	ErrUnsupportedWAV = errors.New("audio: unsupported WAV encoding (want 16-bit PCM)")
)

// WriteWAV writes the buffer as a 16-bit PCM mono WAV file.
func WriteWAV(w io.Writer, b *Buffer) error {
	dataLen := len(b.Samples) * 2
	var hdr [44]byte
	copy(hdr[0:4], "RIFF")
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(36+dataLen))
	copy(hdr[8:12], "WAVE")
	copy(hdr[12:16], "fmt ")
	binary.LittleEndian.PutUint32(hdr[16:20], 16) // PCM fmt chunk size
	binary.LittleEndian.PutUint16(hdr[20:22], 1)  // PCM
	binary.LittleEndian.PutUint16(hdr[22:24], 1)  // mono
	binary.LittleEndian.PutUint32(hdr[24:28], uint32(b.Rate))
	binary.LittleEndian.PutUint32(hdr[28:32], uint32(b.Rate*2)) // byte rate
	binary.LittleEndian.PutUint16(hdr[32:34], 2)                // block align
	binary.LittleEndian.PutUint16(hdr[34:36], 16)               // bits/sample
	copy(hdr[36:40], "data")
	binary.LittleEndian.PutUint32(hdr[40:44], uint32(dataLen))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	pcm := make([]byte, dataLen)
	for i, s := range b.Samples {
		binary.LittleEndian.PutUint16(pcm[i*2:], uint16(FloatToInt16(s)))
	}
	_, err := w.Write(pcm)
	return err
}

// ReadWAV parses a 16-bit PCM WAV file. Multi-channel files are downmixed
// to mono by averaging channels.
func ReadWAV(r io.Reader) (*Buffer, error) {
	var riff [12]byte
	if _, err := io.ReadFull(r, riff[:]); err != nil {
		return nil, err
	}
	if string(riff[0:4]) != "RIFF" || string(riff[8:12]) != "WAVE" {
		return nil, ErrNotWAV
	}
	var (
		rate     int
		channels int
		bits     int
		haveFmt  bool
	)
	for {
		var chunk [8]byte
		if _, err := io.ReadFull(r, chunk[:]); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return nil, fmt.Errorf("audio: missing data chunk: %w", ErrNotWAV)
			}
			return nil, err
		}
		id := string(chunk[0:4])
		size := int(binary.LittleEndian.Uint32(chunk[4:8]))
		switch id {
		case "fmt ":
			body, err := readChunk(r, size)
			if err != nil {
				return nil, err
			}
			if len(body) < 16 {
				return nil, ErrUnsupportedWAV
			}
			format := binary.LittleEndian.Uint16(body[0:2])
			channels = int(binary.LittleEndian.Uint16(body[2:4]))
			rate = int(binary.LittleEndian.Uint32(body[4:8]))
			bits = int(binary.LittleEndian.Uint16(body[14:16]))
			if format != 1 || bits != 16 || channels < 1 || rate == 0 {
				return nil, ErrUnsupportedWAV
			}
			haveFmt = true
		case "data":
			if !haveFmt {
				return nil, ErrUnsupportedWAV
			}
			pcm, err := readChunk(r, size)
			if err != nil {
				return nil, err
			}
			frames := size / (2 * channels)
			out := &Buffer{Rate: rate, Samples: make([]float64, frames)}
			for i := 0; i < frames; i++ {
				var acc float64
				for c := 0; c < channels; c++ {
					v := int16(binary.LittleEndian.Uint16(pcm[(i*channels+c)*2:]))
					acc += Int16ToFloat(v)
				}
				out.Samples[i] = acc / float64(channels)
			}
			return out, nil
		default:
			// Skip unknown chunk (word-aligned).
			skip := size + size&1
			if _, err := io.CopyN(io.Discard, r, int64(skip)); err != nil {
				return nil, err
			}
		}
	}
}

// readChunk reads a chunk body of the declared size. The buffer grows
// with the bytes actually present, never from the declared size alone,
// so a header that claims gigabytes costs what the file holds; a chunk
// shorter than declared is io.ErrUnexpectedEOF.
func readChunk(r io.Reader, size int) ([]byte, error) {
	body, err := io.ReadAll(io.LimitReader(r, int64(size)))
	if err != nil {
		return nil, err
	}
	if len(body) < size {
		return nil, io.ErrUnexpectedEOF
	}
	return body, nil
}
