package parallel

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// TestForCoversRange: every index of [0, n) is visited exactly once, for
// sizes on both sides of the min-chunk threshold. Run under -race this
// also checks the chunks are disjoint.
func TestForCoversRange(t *testing.T) {
	for _, minChunk := range []int{1, 4, 4096} {
		for _, n := range []int{0, 1, minChunk - 1, minChunk, 7*minChunk + 3} {
			for _, workers := range []int{0, 1, 2, 7} {
				hits := make([]int32, n)
				For(workers, n, minChunk, func(lo, hi int) {
					for i := lo; i < hi; i++ {
						hits[i]++
					}
				})
				for i, h := range hits {
					if h != 1 {
						t.Fatalf("workers=%d n=%d min=%d: index %d visited %d times", workers, n, minChunk, i, h)
					}
				}
			}
		}
	}
}

// TestForChunking pins who gets a goroutine: workers <= 1 and any n
// below two min-chunks run as the single call fn(0, n) with no goroutine
// started; past that, no chunk is smaller than minChunk and no more
// than workers run.
func TestForChunking(t *testing.T) {
	const minChunk = 16
	for _, c := range []struct{ workers, n, wantCalls int }{
		{-1, 1000, 1},
		{0, 1000, 1},
		{1, 1000, 1},
		{8, minChunk - 1, 1},
		{8, 2*minChunk - 1, 1},
		{8, 2 * minChunk, 2},
		{4, 1000, 4},
		{100, 7*minChunk + 3, 7},
	} {
		var calls, inline atomic.Int32
		before := runtime.NumGoroutine()
		For(c.workers, c.n, minChunk, func(lo, hi int) {
			calls.Add(1)
			// goroutines of earlier rows may still be exiting, so the
			// count can fall below before; a spawn would raise it
			if lo == 0 && hi == c.n && runtime.NumGoroutine() <= before {
				inline.Add(1)
			}
			if c.wantCalls > 1 && hi-lo < minChunk && hi != c.n {
				t.Errorf("workers=%d n=%d: chunk [%d,%d) below the minimum", c.workers, c.n, lo, hi)
			}
		})
		if got := int(calls.Load()); got != c.wantCalls {
			t.Errorf("workers=%d n=%d: %d calls, want %d", c.workers, c.n, got, c.wantCalls)
		}
		if c.wantCalls == 1 && inline.Load() != 1 {
			t.Errorf("workers=%d n=%d: the one call did not cover [0,n) on the caller's goroutine", c.workers, c.n)
		}
	}
}
