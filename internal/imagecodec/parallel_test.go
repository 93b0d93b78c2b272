package imagecodec

import (
	"bytes"
	"math"
	"runtime"
	"testing"
)

// The parallel codec must be a pure performance change: for every worker
// count the SIC bitstream and the decoded raster must be identical to
// the single-threaded codec's. Run with -race to also exercise the
// disjoint-write claims of the parallel stages.

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

// mallocsPerRun is testing.AllocsPerRun without its GOMAXPROCS(1) pin:
// the runtime.MemStats.Mallocs delta per call of fn, averaged over runs
// calls, after one warm-up call to fill the pools. It returns the least
// such mean of five rounds: a GC that empties the pools adds refills to
// the round it lands in, while a leak adds to every round, so the least
// round reads the steady state a leak moves.
func mallocsPerRun(t *testing.T, runs int, fn func() error) float64 {
	t.Helper()
	if err := fn(); err != nil {
		t.Fatal(err)
	}
	least := math.Inf(1)
	for range 5 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if err := fn(); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		least = min(least, float64(after.Mallocs-before.Mallocs)/float64(runs))
	}
	return least
}

// TestCodecMallocsAtTwoWorkers pins allocations on the path production
// runs. testing.AllocsPerRun sets GOMAXPROCS to 1, so the *Allocs tests
// only see one worker; this one counts heap objects at explicit workers
// 2 on a 1080x400 page. Measured on a 2-vCPU box (45 readings at
// GOMAXPROCS 1, 2 and 4, some beside other test binaries): encode
// 33.0-34.6 objects per call, decode 44.0-44.3, mostly one WaitGroup
// and one closure per goroutine per band. One round's mean swings
// 45-60 on GC-emptied pools, which is why the least of five rounds is
// the reading. Each bound is the measured maximum plus two, rounded up,
// so one pooled buffer dropped per plane fails it (DESIGN §5d, P3, D1,
// D3 and D4).
func TestCodecMallocsAtTwoWorkers(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are nondeterministic under the race detector (pool Puts randomly dropped)")
	}
	src := testPage(PageWidth, 400, 3)
	enc, err := EncodeSICWorkers(src, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		max  float64
		fn   func() error
	}{
		{"EncodeSICWorkers", 37, func() error { _, err := EncodeSICWorkers(src, 10, 2); return err }},
		{"DecodeSICWorkers", 47, func() error { _, err := DecodeSICWorkers(enc, 2); return err }},
	} {
		if got := mallocsPerRun(t, 10, c.fn); got > c.max {
			t.Errorf("%s at 2 workers allocates %v objects per call, want <= %v", c.name, got, c.max)
		}
	}
}
