package audio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"
)

// hugeDataWAV is a 44-byte header whose data chunk declares 0xFFFFFFF0
// bytes and holds none.
func hugeDataWAV() []byte {
	var wav bytes.Buffer
	if err := WriteWAV(&wav, &Buffer{Rate: 48000}); err != nil {
		panic(err)
	}
	b := wav.Bytes()
	binary.LittleEndian.PutUint32(b[40:44], 0xFFFFFFF0)
	return b
}

// A WAV reaches sonic-client from a file, so a chunk size is a claim,
// not a budget: the 44-byte header declaring 4 GB of samples fails on
// the missing bytes without allocating them.
func TestReadWAVDeclaredSizeAllocation(t *testing.T) {
	in := hugeDataWAV()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadWAV(bytes.NewReader(in))
	runtime.ReadMemStats(&after)
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Errorf("ReadWAV allocated %d bytes for a %d-byte file, want < 1 MiB", alloc, len(in))
	}
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("ReadWAV of a %d-byte file declaring 0xFFFFFFF0 data bytes: err %v, want %v", len(in), err, io.ErrUnexpectedEOF)
	}
}

// FuzzReadWAV: any bytes must parse or fail with an error, never panic,
// and a file that parses holds a positive rate and no more samples than
// its bytes carry, each in [-1, 1).
func FuzzReadWAV(f *testing.F) {
	var good, stereo bytes.Buffer
	if err := WriteWAV(&good, ramp(8000, 40)); err != nil {
		f.Fatal(err)
	}
	if err := WriteWAV(&stereo, ramp(8000, 40)); err != nil {
		f.Fatal(err)
	}
	st := stereo.Bytes()
	binary.LittleEndian.PutUint16(st[22:24], 2) // two channels share the frames
	for _, seed := range [][]byte{good.Bytes(), st, hugeDataWAV(), good.Bytes()[:30], nil} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		buf, err := ReadWAV(bytes.NewReader(data))
		if err != nil {
			return
		}
		if buf.Rate <= 0 {
			t.Fatalf("parsed a rate of %d", buf.Rate)
		}
		if 2*len(buf.Samples) > len(data) {
			t.Fatalf("%d samples from a %d-byte file", len(buf.Samples), len(data))
		}
		for i, v := range buf.Samples {
			if v < -1 || v >= 1 {
				t.Fatalf("sample %d is %v, outside [-1, 1)", i, v)
			}
		}
	})
}
