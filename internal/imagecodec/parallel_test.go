package imagecodec

import (
	"bytes"
	"testing"
)

// The parallel codec must be a pure performance change: for every worker
// count the SIC bitstream, the decoded raster, and the cell list must be
// identical to the single-threaded codec's. Run with -race to also
// exercise the disjoint-write claims of the parallel stages.

func TestEncodeSICWorkersDeterministic(t *testing.T) {
	img := benchRaster(321, 243, 5) // odd dims: edge blocks + clamped chroma
	for _, q := range []int{5, 30, 80} {
		want, err := EncodeSICWorkers(img, q, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 3, 8} {
			got, err := EncodeSICWorkers(img, q, workers)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("q=%d workers=%d: bitstream differs from serial encoder", q, workers)
			}
		}
	}
}

func TestDecodeSICWorkersDeterministic(t *testing.T) {
	img := benchRaster(321, 243, 6)
	enc, err := EncodeSIC(img, 25)
	if err != nil {
		t.Fatal(err)
	}
	want, err := DecodeSICWorkers(enc, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 8} {
		got, err := DecodeSICWorkers(enc, workers)
		if err != nil {
			t.Fatal(err)
		}
		if got.W != want.W || got.H != want.H || !bytes.Equal(got.Pix, want.Pix) {
			t.Fatalf("workers=%d: decoded raster differs from serial decoder", workers)
		}
	}
}

func TestEncodeColumnsWorkersDeterministic(t *testing.T) {
	img := benchRaster(123, 200, 7)
	for _, tol := range []int{0, 8} {
		want, err := EncodeColumnsTolWorkers(img, 91, tol, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 5} {
			got, err := EncodeColumnsTolWorkers(img, 91, tol, workers)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("tol=%d workers=%d: %d cells, want %d", tol, workers, len(got), len(want))
			}
			for i := range got {
				if got[i].Col != want[i].Col || got[i].Y0 != want[i].Y0 ||
					got[i].N != want[i].N || !bytes.Equal(got[i].Data, want[i].Data) {
					t.Fatalf("tol=%d workers=%d: cell %d differs from serial encoder", tol, workers, i)
				}
			}
		}
	}
}
