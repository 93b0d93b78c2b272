package imagecodec_test

import (
	"encoding/binary"
	"runtime"
	"testing"

	"sonic/internal/imagecodec"
)

// allocatedBy reports the bytes fn allocates from cold pools (two GCs
// first, so the codec's sync.Pools and their victim caches are empty,
// as they are for a phone that opens a page after the app idled), and
// how much more heap is live after one more GC: what fn left in the
// pools or elsewhere once its result is dropped.
func allocatedBy(fn func()) (allocated, retained uint64) {
	runtime.GC()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	allocated = after.TotalAlloc - before.TotalAlloc
	runtime.GC()
	runtime.ReadMemStats(&after)
	if after.HeapAlloc > before.HeapAlloc {
		retained = after.HeapAlloc - before.HeapAlloc
	}
	return allocated, retained
}

// TestSICDecodeAllocatedBytes gates what opening a full-size corpus page
// costs in memory at two workers: the raster plus at most 12 MiB of
// scratch (band samples and blocks, inflated tokens, block memos). A
// decoder that builds page-sized float planes allocates over 160 MB
// here. Once the raster is dropped, what the pools keep must not hold
// it. A stream whose last segment is not flate must fail before the
// raster is allocated.
func TestSICDecodeAllocatedBytes(t *testing.T) {
	if imagecodec.RaceEnabled {
		t.Skip("the race detector's pools and shadow state skew allocation")
	}
	var page *imagecodec.Raster
	for _, p := range corpusPages() {
		if p.W == imagecodec.PageWidth && p.H == imagecodec.MaxPageHeight {
			page = p
			break
		}
	}
	if page == nil {
		t.Fatal("no full-size page in the corpus set")
	}
	enc, err := imagecodec.EncodeSIC(page, corpusQuality)
	if err != nil {
		t.Fatal(err)
	}
	raster := uint64(len(page.Pix))
	got, kept := allocatedBy(func() {
		if _, err := imagecodec.DecodeSICWorkers(enc, 2); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("decode allocated %.1f MB for a %.1f MB raster and kept %.1f MB", float64(got)/1e6, float64(raster)/1e6, float64(kept)/1e6)
	if limit := raster + 12<<20; got > limit {
		t.Errorf("decode allocated %d bytes, want <= raster %d + 12 MiB", got, raster)
	}
	if kept > 12<<20 {
		t.Errorf("decode kept %d bytes live after its raster was dropped, want <= 12 MiB", kept)
	}

	// The same stream with its Cr segment replaced by a byte that is not
	// a flate block.
	off := 13
	for range 2 {
		n, k := binary.Uvarint(enc[off:])
		off += k + int(n)
	}
	bad := binary.AppendUvarint(enc[:off:off], 1)
	bad = append(bad, 0x07)
	got, _ = allocatedBy(func() {
		if _, err := imagecodec.DecodeSICWorkers(bad, 2); err == nil {
			t.Fatal("decoded a stream whose Cr segment is not flate")
		}
	})
	t.Logf("failed decode allocated %.1f MB", float64(got)/1e6)
	if got >= 4<<20 {
		t.Errorf("failed decode allocated %d bytes, want < 4 MiB", got)
	}
}
