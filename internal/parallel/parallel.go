// Package parallel holds the one data-parallel loop the kernels share:
// the SIC block stages (a band of block rows at a time) and plane
// compression, cell packing, photo rows, the FM chain's per-sample
// stages, the OFDM modem's symbol pairs, frame decoding, and the
// fleet's and server's per-page and per-tower work. Callers size the
// pool themselves, normally from runtime.GOMAXPROCS(0); every stage
// built on For writes dst[i] from src[i], so its output is
// byte-identical at any worker count.
package parallel

import "sync"

// For runs fn over contiguous chunks covering [0, n) exactly once, on at
// most workers goroutines and never on more than n/minChunk of them, so
// a chunk too small to repay a goroutine is not given one (minChunk <= 1
// allows one index per goroutine). workers <= 1, or an n that leaves
// room for only one chunk, runs fn(0, n) inline on the caller's
// goroutine with no goroutine or channel overhead. Chunks are
// index-addressed: a caller writing results into per-index slots gets
// the same output whatever the scheduling.
func For(workers, n, minChunk int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if minChunk < 1 {
		minChunk = 1
	}
	if max := n / minChunk; workers > max {
		workers = max
	}
	if workers <= 1 {
		fn(0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}
