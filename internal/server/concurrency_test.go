package server

import (
	"sync"
	"testing"
	"time"

	"sonic/internal/corpus"
	"sonic/internal/telemetry"
)

// TestConcurrentServerUse hammers the server's public surface — render,
// queue churn, queue-depth reads, and registry snapshots — from many
// goroutines at once. Run under -race it proves the instrumented paths
// (including lifecycle stamping) stay data-race free.
func TestConcurrentServerUse(t *testing.T) {
	s := testServer(t)
	reg := telemetry.New()
	telemetry.NewLifecycle(reg, telemetry.LifecycleConfig{})
	s.Instrument(reg)
	now := time.Unix(0, 0)
	urls := []string{
		corpus.Pages()[0].URL,
		corpus.Pages()[1].URL,
		corpus.Pages()[2].URL,
	}
	// Prime the render cache so the concurrent phase exercises the
	// cache-hit path instead of re-rendering per goroutine.
	for _, u := range urls {
		if _, err := s.RenderPage(u, now); err != nil {
			t.Fatal(err)
		}
	}

	const workers = 8
	var (
		wg      sync.WaitGroup
		countMu sync.Mutex
		counted int // requests carried by the pages dequeued so far
	)
	dequeue := func() bool {
		head := s.dequeueHead("khi-1", now)
		if head == nil {
			return false
		}
		countMu.Lock()
		counted += len(head.Traces)
		countMu.Unlock()
		return true
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				u := urls[(w+i)%len(urls)]
				if _, err := s.RenderPage(u, now); err != nil {
					t.Error(err)
					return
				}
				if _, err := s.EnqueuePage(u, 24.87, 67.01, now); err != nil {
					t.Error(err)
					return
				}
				dequeue()
				s.QueueDepth("khi-1")
				reg.Snapshot()
			}
		}(w)
	}
	wg.Wait()

	snap := reg.Snapshot()
	wantRenders := int64(workers*20 + len(urls))
	got := snap.Counters["server_render_cache_hits_total"] +
		snap.Counters["server_render_cache_misses_total"]
	// EnqueuePage renders too (through the cache), so the total is at
	// least the direct RenderPage calls.
	if got < wantRenders {
		t.Errorf("render counter total = %d, want >= %d", got, wantRenders)
	}
	if requests, hits := snap.Counters["server_sms_requests_total"], snap.Counters["server_render_cache_hits_total"]; requests != 0 || hits < int64(len(urls)) {
		t.Errorf("counters = (%d, %d) inconsistent with workload", requests, hits)
	}
	// Every enqueue began a lifecycle trace and every dequeue stamped the
	// traces riding it on-air; under -race this also proves trace
	// stamping is thread-safe.
	if snap.Counters["lifecycle_requests_total"] != int64(workers*20) {
		t.Errorf("lifecycle requests = %d, want %d", snap.Counters["lifecycle_requests_total"], workers*20)
	}
	for dequeue() {
	}
	// A request for a page still pending on the tower rides that
	// broadcast instead of queueing a duplicate: the pages aired carry
	// every request's trace, and each went on air with the page it rode.
	if counted != workers*20 {
		t.Errorf("dequeued pages carry %d requests, want %d", counted, workers*20)
	}
	if got := reg.Snapshot().Counters["lifecycle_on_air_total"]; got != int64(workers*20) {
		t.Errorf("on-air traces = %d, want %d (a rider lost its broadcast)", got, workers*20)
	}
}
