package server

import (
	"sort"
	"sync"

	"sonic/internal/corpus"
)

// The server's queue state is striped across shards: each transmitter
// hashes onto one shard, and every queue operation (enqueue, dequeue,
// depth read, demand bump) locks only that shard. Admission on shard A
// therefore never contends with shard B — the lock-striping half of the
// fleet-scale request path. Shard mutexes guard metadata only; renders,
// encodes, and bundle marshalling happen before the lock is taken
// (enforced by the lockscope analyzer).

// DefaultShards is the number of lock stripes the per-transmitter queues
// spread across.
const DefaultShards = 8

// shard is one lock stripe of the queue state.
type shard struct {
	mu     sync.Mutex
	queues map[string]*towerQueue
	// demand accumulates measured request counts per (transmitter, URL)
	// — the popularity feedback the carousel and PushPopular consume.
	demand map[string]map[string]float64
}

// towerQueue is one transmitter's FIFO with O(1) byte accounting and a
// pending-URL index for whole-request coalescing (a batch for a URL
// already waiting on this tower attaches to the queued page instead of
// enqueueing a duplicate).
type towerQueue struct {
	pages   []*queuedPage
	bytes   int
	pending map[string]*queuedPage // url -> most recent still-queued page
}

// queue returns (creating if needed) the tower's queue; callers hold
// sh.mu.
func (sh *shard) queue(txID string) *towerQueue {
	tq := sh.queues[txID]
	if tq == nil {
		tq = &towerQueue{pending: make(map[string]*queuedPage)}
		sh.queues[txID] = tq
	}
	return tq
}

// push appends a page; callers hold sh.mu.
func (tq *towerQueue) push(p *queuedPage) {
	tq.pages = append(tq.pages, p)
	tq.bytes += p.Bytes
	tq.pending[p.URL] = p
}

// pop removes and returns the head page; callers hold sh.mu.
func (tq *towerQueue) pop() (*queuedPage, bool) {
	if len(tq.pages) == 0 {
		return nil, false
	}
	head := tq.pages[0]
	tq.pages[0] = nil // release the reference for GC
	tq.pages = tq.pages[1:]
	tq.bytes -= head.Bytes
	if tq.pending[head.URL] == head {
		delete(tq.pending, head.URL)
	}
	return head, true
}

// bumpDemand records count requests for url on a transmitter; callers
// hold sh.mu.
func (sh *shard) bumpDemand(txID, url string, count float64) {
	d := sh.demand[txID]
	if d == nil {
		d = make(map[string]float64)
		sh.demand[txID] = d
	}
	d[url] += count
}

// fnv32a is FNV-1a over a string without the hash.Hash32 indirection:
// shardFor sits on the per-request hot path, and the interface value
// plus the []byte conversion would cost two heap allocations per call.
func fnv32a(s string) uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= prime32
	}
	return h
}

// shardFor maps a transmitter ID onto its lock stripe.
func (s *Server) shardFor(txID string) *shard {
	return s.shards[fnv32a(txID)%uint32(len(s.shards))]
}

// TowerDemand returns a copy of the measured request counts per URL for
// one transmitter — the admission sink feeds it, PushPopular and
// broadcast.MeasuredCarousel consume it.
func (s *Server) TowerDemand(txID string) map[string]float64 {
	sh := s.shardFor(txID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	src := sh.demand[txID]
	out := make(map[string]float64, len(src))
	for url, n := range src {
		out[url] = n
	}
	return out
}

// rankByDemand orders corpus pages for one tower: measured demand
// first, static corpus popularity as the tiebreaker and cold-start
// fallback. Any page with at least one measured request outranks every
// unmeasured page (corpus weights are < 1); with no measurements the
// order degenerates to the corpus popularity ranking. The sort is
// stable over corpus order, so the result is deterministic.
func rankByDemand(refs []corpus.PageRef, demand map[string]float64) []corpus.PageRef {
	ranked := append([]corpus.PageRef(nil), refs...)
	score := func(ref corpus.PageRef) float64 {
		return demand[ref.URL] + corpus.PopularityWeight(ref)
	}
	sort.SliceStable(ranked, func(i, j int) bool {
		return score(ranked[i]) > score(ranked[j])
	})
	return ranked
}
