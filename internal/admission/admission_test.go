package admission

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sonic/internal/telemetry"
)

// collector is a test sink that records batches.
type collector struct {
	mu      sync.Mutex
	batches []Batch
}

func (c *collector) sink(b Batch) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.batches = append(c.batches, b)
}

func (c *collector) snapshot() []Batch {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Batch(nil), c.batches...)
}

func req(url, tower string, eff int) Request {
	return Request{URL: url, Tower: tower, EffHour: eff, Now: time.Unix(int64(eff)*3600, 0)}
}

func TestCoalescingAndFlushOrder(t *testing.T) {
	var c collector
	q := New(Config{MaxBatch: 100}, c.sink)
	defer q.Close()

	for i := 0; i < 5; i++ {
		if _, err := q.Submit(req("a.pk/", "tx-1", 0)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := q.Submit(req("b.pk/", "tx-1", 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Submit(req("a.pk/", "tx-1", 1)); err != nil { // new hour = new key
		t.Fatal(err)
	}
	if got := q.Pending(); got != 7 {
		t.Errorf("pending = %d, want 7", got)
	}
	q.Flush()
	batches := c.snapshot()
	if len(batches) != 3 {
		t.Fatalf("batches = %d, want 3 (%v)", len(batches), batches)
	}
	// First-arrival order, counts coalesced.
	if batches[0].URL != "a.pk/" || batches[0].Count != 5 || batches[0].EffHour != 0 {
		t.Errorf("batch 0 = %+v", batches[0])
	}
	if batches[1].URL != "b.pk/" || batches[1].Count != 1 {
		t.Errorf("batch 1 = %+v", batches[1])
	}
	if batches[2].URL != "a.pk/" || batches[2].EffHour != 1 {
		t.Errorf("batch 2 = %+v", batches[2])
	}
	// Batch Now is the latest coalesced timestamp.
	if !batches[0].Now.Equal(time.Unix(0, 0)) {
		t.Errorf("batch 0 now = %v", batches[0].Now)
	}
	if got := q.Pending(); got != 0 {
		t.Errorf("pending after flush = %d, want 0", got)
	}
}

func TestCoalescedReturnValue(t *testing.T) {
	var c collector
	q := New(Config{}, c.sink)
	defer q.Close()
	co, err := q.Submit(req("a.pk/", "tx-1", 0))
	if err != nil || co {
		t.Fatalf("first submit: coalesced=%v err=%v", co, err)
	}
	co, err = q.Submit(req("a.pk/", "tx-1", 0))
	if err != nil || !co {
		t.Fatalf("second submit: coalesced=%v err=%v", co, err)
	}
}

func TestMaxBatchKicksFlush(t *testing.T) {
	var c collector
	q := New(Config{MaxBatch: 4}, c.sink)
	defer q.Close()
	for i := 0; i < 4; i++ {
		if _, err := q.Submit(req(fmt.Sprintf("p%d.pk/", i), "tx-1", 0)); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.After(5 * time.Second)
	for len(c.snapshot()) < 4 {
		select {
		case <-deadline:
			t.Fatalf("size-triggered flush never happened: %d batches", len(c.snapshot()))
		case <-time.After(time.Millisecond):
		}
	}
}

func TestBackpressureRejectsWithRetryAfter(t *testing.T) {
	var c collector
	q := New(Config{MaxBatch: 1000, MaxPending: 3, RetryAfter: 7 * time.Second}, c.sink)
	defer q.Close()
	for i := 0; i < 3; i++ {
		if _, err := q.Submit(req(fmt.Sprintf("p%d.pk/", i), "tx-1", 0)); err != nil {
			t.Fatal(err)
		}
	}
	_, err := q.Submit(req("p99.pk/", "tx-1", 0))
	if !errors.Is(err, ErrSaturated) {
		t.Fatalf("err = %v, want ErrSaturated", err)
	}
	var sat *SaturatedError
	if !errors.As(err, &sat) || sat.RetryAfter != 7*time.Second {
		t.Fatalf("retry-after hint missing: %v", err)
	}
	// A duplicate of a pending key still coalesces even at the bound:
	// it adds no new unit of flush work.
	if co, err := q.Submit(req("p0.pk/", "tx-1", 0)); err != nil || !co {
		t.Fatalf("duplicate at bound: coalesced=%v err=%v", co, err)
	}
	// Draining reopens admission.
	q.Flush()
	if _, err := q.Submit(req("p99.pk/", "tx-1", 0)); err != nil {
		t.Fatalf("post-flush submit rejected: %v", err)
	}
}

// TestConcurrentHerdConservation hammers one queue from a goroutine
// herd while flushes run concurrently: under -race this proves the
// striped state is clean, and the batch counts must conserve every
// accepted request exactly once.
func TestConcurrentHerdConservation(t *testing.T) {
	var got atomic.Int64
	q := New(Config{MaxBatch: 8, MaxPending: 1 << 20}, func(b Batch) {
		got.Add(int64(b.Count))
	})
	const workers = 16
	const perWorker = 500
	var accepted atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				r := req(fmt.Sprintf("p%d.pk/", i%7), fmt.Sprintf("tx-%d", i%5), i%3)
				if _, err := q.Submit(r); err == nil {
					accepted.Add(1)
				}
			}
		}(w)
	}
	// Concurrent explicit flushes race the size-kick workers.
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				q.Flush()
			}
		}
	}()
	wg.Wait()
	close(done)
	q.Close()
	if got.Load() != accepted.Load() {
		t.Errorf("flushed %d requests, accepted %d", got.Load(), accepted.Load())
	}
	if accepted.Load() != workers*perWorker {
		t.Errorf("accepted = %d, want %d (MaxPending should not bind here)", accepted.Load(), workers*perWorker)
	}
}

func TestTracesRideTheBatch(t *testing.T) {
	reg := telemetry.New()
	lc := telemetry.NewLifecycle(reg, telemetry.LifecycleConfig{})
	var c collector
	q := New(Config{}, c.sink)
	defer q.Close()
	for i := 0; i < 3; i++ {
		r := req("a.pk/", "tx-1", 0)
		r.Trace = lc.BeginAt("a.pk/", "test", r.Now)
		if _, err := q.Submit(r); err != nil {
			t.Fatal(err)
		}
	}
	q.Flush()
	batches := c.snapshot()
	if len(batches) != 1 || len(batches[0].Traces) != 3 || batches[0].Count != 3 {
		t.Fatalf("batches = %+v", batches)
	}
}

func TestInstrumentCounters(t *testing.T) {
	reg := telemetry.New()
	var c collector
	q := New(Config{MaxBatch: 1000, MaxPending: 2}, c.sink)
	q.Instrument(reg)
	defer q.Close()

	// tx-a and tx-b stripe onto (possibly) different shards; fill one
	// shard to its bound to observe a reject.
	if _, err := q.Submit(req("a.pk/", "tx-a", 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Submit(req("a.pk/", "tx-a", 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Submit(req("b.pk/", "tx-a", 0)); !errors.Is(err, ErrSaturated) {
		t.Fatalf("want saturation, got %v", err)
	}
	q.Flush()
	snap := reg.Snapshot()
	if snap.Counters["admission_submitted_total"] != 2 {
		t.Errorf("submitted = %d", snap.Counters["admission_submitted_total"])
	}
	if snap.Counters["admission_coalesced_total"] != 1 {
		t.Errorf("coalesced = %d", snap.Counters["admission_coalesced_total"])
	}
	if snap.Counters["admission_rejected_total"] != 1 {
		t.Errorf("rejected = %d", snap.Counters["admission_rejected_total"])
	}
	if snap.Counters["admission_batches_total"] != 1 {
		t.Errorf("batches = %d", snap.Counters["admission_batches_total"])
	}
	// The one batch carries both admitted requests to the sink.
	if batches := c.snapshot(); len(batches) != 1 || batches[0].Count != 2 {
		t.Errorf("flushed batches = %+v, want one batch of 2", batches)
	}
}

func TestCloseDrainsPending(t *testing.T) {
	var c collector
	q := New(Config{MaxBatch: 1000}, c.sink)
	for i := 0; i < 10; i++ {
		if _, err := q.Submit(req(fmt.Sprintf("p%d.pk/", i), fmt.Sprintf("tx-%d", i%3), 0)); err != nil {
			t.Fatal(err)
		}
	}
	q.Close()
	total := 0
	for _, b := range c.snapshot() {
		total += b.Count
	}
	if total != 10 {
		t.Errorf("drained %d requests, want 10", total)
	}
}

// TestSubmitCoalescedAllocFree pins the hot path: a duplicate
// (URL, tower, hour) submit with tracing off — the overwhelmingly
// common case under Zipf demand — must not allocate. The first arrival
// pays for its entry and FIFO slot; every coalesced follower is a map
// hit plus counter bumps.
func TestSubmitCoalescedAllocFree(t *testing.T) {
	q := New(Config{MaxBatch: 1 << 30, MaxPending: 1 << 30}, func(Batch) {})
	defer q.Close()
	seed := req("page.pk/", "tx-0", 1)
	if _, err := q.Submit(seed); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := q.Submit(seed); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("coalesced Submit allocates %.1f times per op, want 0", allocs)
	}
}

// BenchmarkSubmitCoalesced measures the duplicate-key admission path.
func BenchmarkSubmitCoalesced(b *testing.B) {
	q := New(Config{MaxBatch: 1 << 30, MaxPending: 1 << 30}, func(Batch) {})
	defer q.Close()
	seed := req("page.pk/", "tx-0", 1)
	if _, err := q.Submit(seed); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := q.Submit(seed); err != nil {
			b.Fatal(err)
		}
	}
}

// TestCloseIdempotentAndLeakFree pins the shutdown contract: Close may
// be called any number of times (an explicit shutdown path racing a
// defer must not double-close the stop channel), and a full
// open→submit→close cycle leaves no flush workers behind — the
// goroutine count settles back to where it started.
func TestCloseIdempotentAndLeakFree(t *testing.T) {
	before := runtime.NumGoroutine()
	for cycle := 0; cycle < 5; cycle++ {
		var c collector
		q := New(Config{MaxBatch: 1000}, c.sink)
		for i := 0; i < 8; i++ {
			if _, err := q.Submit(req(fmt.Sprintf("p%d.pk/", i), fmt.Sprintf("tx-%d", i%3), 0)); err != nil {
				t.Fatal(err)
			}
		}
		q.Close()
		q.Close() // second close must be a no-op, not a panic
		defer q.Close()
		total := 0
		for _, b := range c.snapshot() {
			total += b.Count
		}
		if total != 8 {
			t.Fatalf("cycle %d drained %d requests, want 8", cycle, total)
		}
	}
	// The workers exit inside Close (wg.Wait), so the count should be
	// back immediately; poll briefly anyway to absorb unrelated runtime
	// goroutines winding down.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if after := runtime.NumGoroutine(); after <= before {
			return
		} else if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked across close cycles: %d before, %d after", before, after)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestFlushConcurrentMatchesFlush pins the parallel drain: every
// pending request reaches the sink exactly once, per-shard batches keep
// first-arrival order, and the queue is empty afterwards.
func TestFlushConcurrentMatchesFlush(t *testing.T) {
	var c collector
	q := New(Config{MaxBatch: 1 << 30, MaxPending: 1 << 30}, c.sink)
	defer q.Close()

	// 40 distinct keys over 10 towers, each submitted 1+i%3 times.
	want := map[string]int{}
	var firstArrival []string
	for i := 0; i < 40; i++ {
		r := req(fmt.Sprintf("p%02d.pk/", i), fmt.Sprintf("tx-%d", i%10), 0)
		for n := 0; n <= i%3; n++ {
			if _, err := q.Submit(r); err != nil {
				t.Fatal(err)
			}
		}
		want[r.URL] = 1 + i%3
		firstArrival = append(firstArrival, r.URL)
	}
	q.FlushConcurrent(4)
	if got := q.Pending(); got != 0 {
		t.Fatalf("pending after FlushConcurrent = %d, want 0", got)
	}
	got := map[string]int{}
	perTower := map[string][]string{}
	for _, b := range c.snapshot() {
		got[b.URL] += b.Count
		perTower[b.Tower] = append(perTower[b.Tower], b.URL)
	}
	if len(got) != len(want) {
		t.Fatalf("flushed %d distinct keys, want %d", len(got), len(want))
	}
	for url, n := range want {
		if got[url] != n {
			t.Errorf("%s: flushed count %d, want %d", url, got[url], n)
		}
	}
	// Shards stripe by tower, so each tower's batches must appear in
	// first-arrival order even though shards flushed concurrently.
	wantTower := map[string][]string{}
	for i, url := range firstArrival {
		tw := fmt.Sprintf("tx-%d", i%10)
		wantTower[tw] = append(wantTower[tw], url)
	}
	for tw, urls := range wantTower {
		if fmt.Sprint(perTower[tw]) != fmt.Sprint(urls) {
			t.Errorf("%s batch order %v, want first-arrival %v", tw, perTower[tw], urls)
		}
	}
}
