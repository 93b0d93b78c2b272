package server

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"sonic/internal/artifact"
	"sonic/internal/core"
	"sonic/internal/corpus"
	"sonic/internal/telemetry"
)

// fleetTestServer builds a server with n transmitters on a line through
// Karachi, each covering its own disjoint patch.
func fleetTestServer(t *testing.T, n int) *Server {
	t.Helper()
	p, err := core.NewPipeline(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := New(DefaultConfig(), p)
	// Unbounded artifact cache: dedup assertions need every page's audio
	// resident (real corpus audio runs to tens of MB per page, so the
	// default cap would churn under a multi-page drain).
	s.chain = artifact.NewChain(p, -1)
	for i := 0; i < n; i++ {
		s.AddTransmitter(Transmitter{
			ID:  fmt.Sprintf("tx-%02d", i),
			Lat: 24.86 + float64(i), Lon: 67.00, RadiusKm: 40,
		})
	}
	return s
}

// drainAudio drains every transmitter queue to exhaustion through
// DequeueAudioAt, towers concurrently (one goroutine each, so per-tower
// FIFO order holds), and returns the pages and samples produced.
func drainAudio(t *testing.T, s *Server, at time.Time) (pages int, samples int64) {
	t.Helper()
	var wg sync.WaitGroup
	var mu sync.Mutex
	for _, tx := range s.Transmitters() {
		wg.Add(1)
		go func(txID string) {
			defer wg.Done()
			for {
				_, audio, ok, err := s.DequeueAudioAt(txID, at)
				if err != nil {
					t.Error(err)
					return
				}
				if !ok {
					return
				}
				mu.Lock()
				pages++
				samples += int64(len(audio))
				mu.Unlock()
			}
		}(tx.ID)
	}
	wg.Wait()
	return pages, samples
}

// TestPageAudioMatchesPipeline pins the fleet audio path byte-identical
// to the direct per-tower encode it replaces.
func TestPageAudioMatchesPipeline(t *testing.T) {
	s := testServer(t)
	url := corpus.Pages()[0].URL
	now := s.cfg.Epoch

	audio, err := s.PageAudio(url, now)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.RenderPage(url, now)
	if err != nil {
		t.Fatal(err)
	}
	want, err := s.pipeline.EncodePageAudio(s.pageIDFor(url), b)
	if err != nil {
		t.Fatal(err)
	}
	if len(audio) != len(want) {
		t.Fatalf("fleet audio %d samples, pipeline %d", len(audio), len(want))
	}
	for i := range audio {
		if audio[i] != want[i] {
			t.Fatalf("fleet audio diverges from EncodePageAudio at sample %d", i)
		}
	}
	// Second call is a cache hit on the full chain.
	st := s.ArtifactStats()
	if _, err := s.PageAudio(url, now); err != nil {
		t.Fatal(err)
	}
	if got := s.ArtifactStats(); got.Audio.Hits != st.Audio.Hits+1 || got.Audio.Misses != st.Audio.Misses {
		t.Fatalf("repeat PageAudio was not a chain hit: %+v -> %+v", st, got)
	}
}

// TestDequeueAudioMatchesQueuedBundle pins DequeueAudioAt against the
// bundle actually queued (not a re-render): the audio must equal
// encoding the popped page's bundle at its queued page ID.
func TestDequeueAudioMatchesQueuedBundle(t *testing.T) {
	s := testServer(t)
	url := corpus.Pages()[1].URL
	now := s.cfg.Epoch
	if _, err := s.EnqueuePage(url, 24.86, 67.00, now); err != nil {
		t.Fatal(err)
	}
	b, err := s.RenderPage(url, now)
	if err != nil {
		t.Fatal(err)
	}
	gotURL, audio, ok, err := s.DequeueAudioAt("khi-1", now)
	if err != nil || !ok || gotURL != url {
		t.Fatalf("DequeueAudioAt = %q, ok=%v, err=%v", gotURL, ok, err)
	}
	want, err := s.pipeline.EncodePageAudio(s.pageIDFor(url), b)
	if err != nil {
		t.Fatal(err)
	}
	if len(audio) != len(want) {
		t.Fatalf("audio %d samples, want %d", len(audio), len(want))
	}
	for i := range audio {
		if audio[i] != want[i] {
			t.Fatalf("dequeued audio diverges at sample %d", i)
		}
	}
	if _, _, ok, _ := s.DequeueAudioAt("khi-1", now); ok {
		t.Fatal("queue should be empty")
	}
}

// TestDrainAudioDedupsAcrossTowers pushes the same popular rotation to
// every tower and drains the fleet in parallel: each page's artifact
// chain must compute once fleet-wide, and every tower must still air
// its full queue.
func TestDrainAudioDedupsAcrossTowers(t *testing.T) {
	const towers = 6
	const topN = 4
	s := fleetTestServer(t, towers)
	now := s.cfg.Epoch
	if err := s.PushPopular(topN, now); err != nil {
		t.Fatal(err)
	}
	pages, samples := drainAudio(t, s, now)
	if pages != towers*topN {
		t.Fatalf("drained %d pages, want %d", pages, towers*topN)
	}
	if samples == 0 {
		t.Fatal("no audio produced")
	}
	st := s.ArtifactStats()
	if st.Audio.Misses != topN {
		t.Fatalf("audio modulated %d times for %d pages x %d towers, want %d",
			st.Audio.Misses, topN, towers, topN)
	}
	if asked := st.Audio.Hits + st.Audio.Coalesced + st.Audio.Misses; asked != towers*topN {
		t.Fatalf("audio asked for %d times, want %d (every tower airs every page)", asked, towers*topN)
	}
}

// TestPushPopularParallelMatchesSerial pins that the concurrent
// PushPopular produces the same per-tower queues as a serial walk:
// same pages, same order, same byte accounting.
func TestPushPopularParallelMatchesSerial(t *testing.T) {
	const towers = 4
	const topN = 5
	now := time.Unix(0, 0)

	type queued struct {
		url   string
		bytes int
	}
	snapshot := func(s *Server) map[string][]queued {
		out := make(map[string][]queued)
		for _, tx := range s.Transmitters() {
			for {
				head := s.dequeueHead(tx.ID, now)
				if head == nil {
					break
				}
				out[tx.ID] = append(out[tx.ID], queued{url: head.URL, bytes: head.Bytes})
			}
		}
		return out
	}

	parallel := snapshot(func() *Server {
		s := fleetTestServer(t, towers)
		if err := s.PushPopular(topN, now); err != nil {
			t.Fatal(err)
		}
		return s
	}())
	serial := snapshot(func() *Server {
		s := fleetTestServer(t, towers)
		for _, tx := range s.Transmitters() {
			if err := s.pushPopularTower(tx, topN, now); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}())

	if len(parallel) != towers || len(serial) != towers {
		t.Fatalf("tower counts: parallel %d, serial %d, want %d", len(parallel), len(serial), towers)
	}
	for tx, want := range serial {
		got := parallel[tx]
		if len(got) != len(want) {
			t.Fatalf("%s: %d pages parallel vs %d serial", tx, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s slot %d: parallel %+v != serial %+v", tx, i, got[i], want[i])
			}
		}
	}
}

// TestDrainAudioConcurrentWithEnqueue runs the fleet drain while
// enqueues keep landing — the -race guard for concurrent dequeues. A
// request either pushes a page or rides one still pending, so every
// pushed page must come out and every request must go on air.
func TestDrainAudioConcurrentWithEnqueue(t *testing.T) {
	const towers = 4
	s := fleetTestServer(t, towers)
	reg := telemetry.New()
	telemetry.NewLifecycle(reg, telemetry.LifecycleConfig{})
	s.Instrument(reg)
	now := s.cfg.Epoch
	if err := s.PushPopular(3, now); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			url := corpus.Pages()[i%8].URL
			if _, err := s.EnqueuePage(url, 24.86+float64(i%towers), 67.00, now); err != nil {
				t.Errorf("enqueue: %v", err)
				return
			}
		}
	}()
	total := 0
	for i := 0; i < 10; i++ {
		pages, _ := drainAudio(t, s, now)
		total += pages
	}
	wg.Wait()
	pages, _ := drainAudio(t, s, now)
	total += pages
	snap := reg.Snapshot()
	if pushed := snap.Counters["server_pages_enqueued_total"]; int64(total) != pushed || total < towers*3 {
		t.Fatalf("drained %d pages total, %d were pushed (at least %d)", total, pushed, towers*3)
	}
	if got := snap.Counters["lifecycle_on_air_total"]; got != 20 {
		t.Fatalf("%d of 20 requests went on air", got)
	}
}
