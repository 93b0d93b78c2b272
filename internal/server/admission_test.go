package server

import (
	"errors"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"sonic/internal/admission"
	"sonic/internal/client"
	"sonic/internal/core"
	"sonic/internal/corpus"
	"sonic/internal/sms"
	"sonic/internal/telemetry"
)

// admissionServer builds a server on the batched admission path.
// Admission has no wall-clock flusher, so tests control exactly when
// batches move.
func admissionServer(t *testing.T, acfg admission.Config) *Server {
	t.Helper()
	p, err := core.NewPipeline(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	acfg.Enabled = true
	cfg.Admission = acfg
	s := New(cfg, p)
	s.AddTransmitter(Transmitter{
		ID: "khi-1", FreqMHz: 93.7, Lat: 24.86, Lon: 67.00, RadiusKm: 40,
	})
	s.AddTransmitter(Transmitter{
		ID: "lhe-1", FreqMHz: 95.1, Lat: 31.55, Lon: 74.34, RadiusKm: 40,
	})
	t.Cleanup(s.Close)
	return s
}

// TestAdmissionHerdRendersOnce is the coalescing acceptance test: a
// goroutine herd requesting one URL on one tower collapses to exactly
// one render and one queued broadcast, while every request keeps its
// own lifecycle trace through on-air. Run under -race this also proves
// the admission + shard locking is clean.
func TestAdmissionHerdRendersOnce(t *testing.T) {
	s := admissionServer(t, admission.Config{MaxBatch: 1 << 20})
	reg := telemetry.New()
	telemetry.NewLifecycle(reg, telemetry.LifecycleConfig{})
	s.Instrument(reg)

	const herd = 32
	now := time.Unix(0, 0)
	url := corpus.Pages()[0].URL
	var wg sync.WaitGroup
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.EnqueuePage(url, 24.87, 67.01, now); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	s.FlushAdmissionConcurrent(1)

	snap := reg.Snapshot()
	if got := snap.Counters["server_render_cache_misses_total"]; got != 1 {
		t.Errorf("cache misses = %d, want 1 (herd must render once)", got)
	}
	if got := snap.Counters["server_pages_enqueued_total"]; got != 1 {
		t.Errorf("pages enqueued = %d, want 1", got)
	}
	if got := snap.Counters["admission_submitted_total"]; got != herd {
		t.Errorf("submitted = %d, want %d", got, herd)
	}
	if got := snap.Counters["admission_coalesced_total"]; got != herd-1 {
		t.Errorf("coalesced = %d, want %d", got, herd-1)
	}
	if pages, _ := s.QueueDepth("khi-1"); pages != 1 {
		t.Errorf("queue depth = %d, want 1", pages)
	}

	// One dequeue puts the whole herd on air: every trace is stamped.
	if _, _, _, ok := s.DequeuePageAt("khi-1", now.Add(time.Minute)); !ok {
		t.Fatal("dequeue failed")
	}
	snap = reg.Snapshot()
	if got := snap.Counters["lifecycle_on_air_total"]; got != herd {
		t.Errorf("on-air traces = %d, want %d", got, herd)
	}
	if got := snap.Histograms["request_to_on_air_seconds"].Count; got != herd {
		t.Errorf("request_to_on_air observations = %d, want %d", got, herd)
	}
}

// TestAdmissionAttachToPending covers the second coalescing stage: a
// batch whose page is already waiting on the tower attaches to the
// queued entry instead of scheduling a duplicate broadcast.
func TestAdmissionAttachToPending(t *testing.T) {
	s := admissionServer(t, admission.Config{MaxBatch: 1 << 20})
	reg := telemetry.New()
	telemetry.NewLifecycle(reg, telemetry.LifecycleConfig{})
	s.Instrument(reg)

	now := time.Unix(0, 0)
	url := corpus.Pages()[0].URL
	if _, err := s.EnqueuePage(url, 24.87, 67.01, now); err != nil {
		t.Fatal(err)
	}
	s.FlushAdmissionConcurrent(1)
	if _, err := s.EnqueuePage(url, 24.87, 67.01, now.Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	s.FlushAdmissionConcurrent(1)

	snap := reg.Snapshot()
	if got := snap.Counters["server_pages_enqueued_total"]; got != 1 {
		t.Errorf("pages enqueued = %d, want 1", got)
	}
	if pages, _ := s.QueueDepth("khi-1"); pages != 1 {
		t.Errorf("queue depth = %d, want 1", pages)
	}
	// Both requests ride the single broadcast: the second attached to the
	// queued page.
	head := s.dequeueHead("khi-1", now.Add(time.Minute))
	if head == nil {
		t.Fatal("nothing queued on khi-1")
	}
	if len(head.Traces) != 2 {
		t.Errorf("queued page carries %d requests' traces, want 2", len(head.Traces))
	}
	if got := reg.Snapshot().Counters["lifecycle_on_air_total"]; got != 2 {
		t.Errorf("on-air traces = %d, want 2", got)
	}
	// Demand recorded both requests for the carousel feedback loop.
	if got := s.TowerDemand("khi-1")[url]; got != 2 {
		t.Errorf("demand = %.0f, want 2", got)
	}
}

// TestAdmissionBackpressure saturates one admission shard with a
// goroutine herd and proves the SMSC handler path never blocks: excess
// requests get an immediate BUSY reply with the retry-after hint and
// their traces are stamped aborted. Run under -race.
func TestAdmissionBackpressure(t *testing.T) {
	const maxPending = 8
	s := admissionServer(t, admission.Config{
		MaxBatch:   1 << 20,
		MaxPending: maxPending,
		RetryAfter: 30 * time.Second,
	})
	reg := telemetry.New()
	telemetry.NewLifecycle(reg, telemetry.LifecycleConfig{})
	s.Instrument(reg)

	smsc := sms.NewSMSC(time.Second, time.Second, 1)
	smsc.Register(s.cfg.Number, s.HandleSMS(smsc))
	var mu sync.Mutex
	var replies []string
	smsc.Register("+user", func(m sms.Message) {
		mu.Lock()
		replies = append(replies, m.Body)
		mu.Unlock()
	})

	// A herd of distinct URLs (no coalescing escape hatch) races into a
	// single saturated shard. Every Submit must return promptly — the
	// test deadlocks/times out if the handler ever blocks.
	const herd = 32
	t0 := time.Unix(0, 0)
	var wg sync.WaitGroup
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			url := corpus.Pages()[i%len(corpus.Pages())].URL
			_, err := s.EnqueuePage(url, 24.87, 67.01, t0)
			if err != nil && !errors.Is(err, admission.ErrSaturated) {
				t.Errorf("unexpected error: %v", err)
			}
		}(i)
	}
	wg.Wait()

	snap := reg.Snapshot()
	rejected := snap.Counters["admission_rejected_total"]
	if rejected != herd-maxPending {
		t.Errorf("rejected = %d, want %d", rejected, herd-maxPending)
	}
	if got := snap.Counters["lifecycle_aborted_total"]; got != rejected {
		t.Errorf("aborted traces = %d, want %d", got, rejected)
	}

	// The SMS round trip on the saturated shard: BUSY with the hint.
	body := sms.FormatRequest(sms.Request{URL: "busy.example/", Lat: 24.87, Lon: 67.0})
	if err := smsc.Submit(t0, "+user", s.cfg.Number, body); err != nil {
		t.Fatal(err)
	}
	smsc.Advance(t0.Add(2 * time.Second)) // deliver request (server replies)
	smsc.Advance(t0.Add(4 * time.Second)) // deliver reply
	mu.Lock()
	defer mu.Unlock()
	if len(replies) != 1 {
		t.Fatalf("replies = %v", replies)
	}
	url, retry, err := sms.ParseBusy(replies[0])
	if err != nil || url != "busy.example/" || retry != 30*time.Second {
		t.Errorf("busy reply %q parsed to %q %v %v", replies[0], url, retry, err)
	}

	// Draining the shard reopens admission.
	s.FlushAdmissionConcurrent(1)
	if _, err := s.EnqueuePage("after.example/", 24.87, 67.01, t0.Add(time.Minute)); err != nil {
		t.Errorf("post-flush admit rejected: %v", err)
	}
}

// TestClientHonoursBusy closes the BUSY loop end to end: a phone whose
// request met a saturated shard records the reply's retry hint, and a
// re-send before the hint is refused without a second SMS (the SMSC
// queue does not grow). A later QUEUED ack for the URL lifts the hint.
func TestClientHonoursBusy(t *testing.T) {
	s := admissionServer(t, admission.Config{MaxBatch: 1 << 20, MaxPending: 1, RetryAfter: 30 * time.Second})
	smsc := sms.NewSMSC(time.Second, time.Second, 1)
	smsc.Register(s.cfg.Number, s.HandleSMS(smsc))
	c := client.New(client.Config{Number: "+user", SonicNumber: s.cfg.Number, Lat: 24.87, Lon: 67.0, Capability: client.UplinkSMS})
	c.AttachSMSC(smsc)

	t0 := time.Unix(0, 0)
	if _, err := s.EnqueuePage("full.example/", 24.87, 67.01, t0); err != nil {
		t.Fatal(err) // fills the one slot
	}
	const url = "busy.example/"
	if err := c.Request(url, t0); err != nil {
		t.Fatal(err)
	}
	smsc.Advance(t0.Add(time.Second))     // the server answers BUSY
	smsc.Advance(t0.Add(2 * time.Second)) // the phone reads it
	if err := c.Request(url, t0.Add(3*time.Second)); !errors.Is(err, client.ErrBusy) {
		t.Fatalf("retry inside the hint: err = %v, want ErrBusy", err)
	}
	if n := smsc.Pending(); n != 0 {
		t.Fatalf("refused retry queued %d SMS", n)
	}

	s.FlushAdmissionConcurrent(1)
	if err := smsc.Submit(t0.Add(3*time.Second), s.cfg.Number, "+user", sms.FormatAck(url, time.Minute)); err != nil {
		t.Fatal(err)
	}
	smsc.Advance(t0.Add(4 * time.Second))
	if err := c.Request(url, t0.Add(5*time.Second)); err != nil {
		t.Fatalf("retry after a QUEUED ack: %v", err)
	}
	if n := smsc.Pending(); n != 1 {
		t.Fatalf("SMSC holds %d messages after the allowed retry, want 1", n)
	}
}

// TestPushPopularTracksDemand: measured admission demand reorders the
// preemptive push per tower, while towers without measurements keep the
// static corpus ranking.
func TestPushPopularTracksDemand(t *testing.T) {
	s := admissionServer(t, admission.Config{MaxBatch: 1 << 20})
	now := time.Unix(0, 0)
	pages := corpus.Pages()
	coldURL := pages[len(pages)-1].URL // least popular corpus page

	// Karachi users hammer the cold page; Lahore stays quiet.
	for i := 0; i < 5; i++ {
		if _, err := s.EnqueuePage(coldURL, 24.87, 67.01, now); err != nil {
			t.Fatal(err)
		}
	}
	s.FlushAdmissionConcurrent(1)
	if got := s.TowerDemand("khi-1")[coldURL]; got != 5 {
		t.Fatalf("demand = %.0f, want 5", got)
	}
	// Clear the queue so the push is not deduplicated against it.
	for {
		if _, _, _, ok := s.DequeuePageAt("khi-1", now); !ok {
			break
		}
	}

	if err := s.PushPopular(1, now); err != nil {
		t.Fatal(err)
	}
	url, _, _, ok := s.DequeuePageAt("khi-1", now)
	if !ok || url != coldURL {
		t.Errorf("khi-1 push = (%q, %v), want demand-ranked %q", url, ok, coldURL)
	}
	url, _, _, ok = s.DequeuePageAt("lhe-1", now)
	if !ok || url != pages[0].URL {
		t.Errorf("lhe-1 push = (%q, %v), want corpus-ranked %q", url, ok, pages[0].URL)
	}
}

// TestAdmissionZipfStormCoalesces is a Zipf SMS storm at test size, all
// on the simulated clock: requesters spread over both towers text for
// Zipf-popular pages through the SMSC, admission flushes every simulated
// second, and each tower airs one page at a time at its real airtime.
// Airtime, not CPU, is the scarce resource, so requests pile onto the
// broadcasts still waiting: every broadcast must serve at least two
// requests on average, and every accepted request must go on air.
func TestAdmissionZipfStormCoalesces(t *testing.T) {
	s := admissionServer(t, admission.Config{MaxBatch: 512})
	reg := telemetry.New()
	telemetry.NewLifecycle(reg, telemetry.LifecycleConfig{})
	s.Instrument(reg)
	smsc := sms.NewSMSC(time.Second, 5*time.Second, 1)
	smsc.Register(s.cfg.Number, s.HandleSMS(smsc))
	queued := 0
	smsc.Register("+user", func(m sms.Message) {
		if _, _, err := sms.ParseAck(m.Body); err == nil {
			queued++
		}
	})

	const users, windowS = 400, 600.0
	rng := rand.New(rand.NewSource(1))
	pages := corpus.Pages()[:6]
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(len(pages)-1))
	homes := [][2]float64{{24.87, 67.01}, {31.55, 74.34}}
	atS := make([]float64, users)
	for i := range atS {
		atS[i] = rng.Float64() * windowS
	}
	sort.Float64s(atS)

	towers := s.Transmitters()
	busyUntil := make([]time.Time, len(towers))
	for i := range busyUntil {
		busyUntil[i] = s.cfg.Epoch
	}
	next := 0
	for now, idle := s.cfg.Epoch.Add(time.Second), false; !idle; now = now.Add(time.Second) {
		for ; next < users && atS[next] < now.Sub(s.cfg.Epoch).Seconds(); next++ {
			home := homes[rng.Intn(len(homes))]
			body := sms.FormatRequest(sms.Request{URL: pages[zipf.Uint64()].URL, Lat: home[0], Lon: home[1]})
			if err := smsc.Submit(now.Add(-time.Second), "+user", s.cfg.Number, body); err != nil {
				t.Fatal(err)
			}
		}
		smsc.Advance(now)
		s.FlushAdmissionConcurrent(1)
		idle = next == users && smsc.Pending() == 0
		for i, tx := range towers {
			for !busyUntil[i].After(now) {
				_, _, b, ok := s.DequeuePageAt(tx.ID, busyUntil[i])
				if !ok {
					busyUntil[i] = now
					break
				}
				airS := s.pipeline.AirtimeSeconds(len(core.MarshalBundle(b)))
				busyUntil[i] = busyUntil[i].Add(time.Duration(airS * float64(time.Second)))
			}
			idle = idle && !busyUntil[i].After(now)
		}
	}

	snap := reg.Snapshot()
	if queued != users {
		t.Fatalf("%d of %d requests were acked QUEUED", queued, users)
	}
	if got := snap.Counters["lifecycle_on_air_total"]; got != users {
		t.Errorf("%d of %d accepted requests went on air", got, users)
	}
	broadcasts := snap.Counters["server_pages_enqueued_total"]
	if broadcasts == 0 || float64(users)/float64(broadcasts) < 2 {
		t.Errorf("%d requests rode %d broadcasts: under 2 requests per broadcast", users, broadcasts)
	}
}

// TestAdmissionETABeforeFirstFlush: before any batch has flushed, an
// ack's ETA rests on the seed estimate alone, so the seed must be a real
// page: on an idle one-frequency tower the quote is within a quarter of
// a median corpus bundle's airtime.
func TestAdmissionETABeforeFirstFlush(t *testing.T) {
	s := admissionServer(t, admission.Config{MaxBatch: 1 << 20})
	eta, err := s.EnqueuePage(corpus.Pages()[0].URL, 24.87, 67.01, time.Unix(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	want := s.pipeline.AirtimeSeconds(147000)
	if got := eta.Seconds(); got < 0.75*want || got > 1.25*want {
		t.Errorf("ETA before the first flush = %.1f s, want within 25%% of a median page's %.1f s", got, want)
	}
}

// TestEnqueueRenderedPageAllocs: the request path reads the length of the
// wire form built at render, so asking for a page already rendered
// allocates no bundle-sized buffer.
func TestEnqueueRenderedPageAllocs(t *testing.T) {
	s := testServer(t)
	now := time.Unix(0, 0)
	url := corpus.Pages()[0].URL
	if _, err := s.EnqueuePage(url, 24.87, 67.01, now); err != nil {
		t.Fatal(err)
	}
	const calls = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		if _, err := s.EnqueuePage(url, 24.87, 67.01, now); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if perCall := (after.TotalAlloc - before.TotalAlloc) / calls; perCall >= 16<<10 {
		t.Errorf("EnqueuePage of a rendered page allocates %d B per call, want under 16 KiB", perCall)
	}
}

// BenchmarkAdmitBatchWarm is the admission sink for one request whose
// page is already rendered and queued on the tower: B/op is what a warm
// batch costs the allocator.
func BenchmarkAdmitBatchWarm(b *testing.B) {
	p, err := testPipeline()
	if err != nil {
		b.Fatal(err)
	}
	s := New(DefaultConfig(), p)
	s.AddTransmitter(Transmitter{ID: "khi-1", FreqMHz: 93.7, Lat: 24.86, Lon: 67.00, RadiusKm: 40})
	now := time.Unix(0, 0)
	url := corpus.Pages()[0].URL
	batch := admission.Batch{
		URL: url, Tower: "khi-1", EffHour: corpus.EffectiveHour(s.refFor(url), s.hourAt(now)), Now: now, Count: 1,
	}
	if _, err := s.admitBatch(batch); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.admitBatch(batch); err != nil {
			b.Fatal(err)
		}
	}
}
