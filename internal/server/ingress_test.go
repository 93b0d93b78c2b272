package server

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"sonic/internal/admission"
	"sonic/internal/core"
	"sonic/internal/corpus"
	"sonic/internal/sms"
	"sonic/internal/telemetry"
)

// queuedEntry is what the ingress tests compare of one queue entry.
type queuedEntry struct {
	URL     string
	PageID  uint16
	EffHour int
	Bytes   int
	Count   int // requests riding the entry: its lifecycle traces
}

// drainEntries pops a tower's queue to exhaustion.
func drainEntries(s *Server, txID string, at time.Time) []queuedEntry {
	var out []queuedEntry
	for {
		head := s.dequeueHead(txID, at)
		if head == nil {
			return out
		}
		out = append(out, queuedEntry{head.URL, head.PageID, head.EffHour, head.Bytes, len(head.Traces)})
	}
}

// TestIngressEquivalence is the proof that "admission off" is not a
// second implementation: one request sequence — repeats of a pending
// page, two towers, an epoch change, a request nobody covers, a page
// re-requested after it aired — run through Admission.Enabled=false
// and through Enabled=true + FlushAdmissionConcurrent(1) must leave identical
// per-tower queues (URL, PageID, EffHour, Bytes, Count) and an identical
// lifecycle stage sequence for every trace.
func TestIngressEquivalence(t *testing.T) {
	// churner is the first corpus page to change content, at hour changed;
	// pages[1..3] are pages still at epoch 0 by then.
	var churner corpus.PageRef
	changed := 0
	for churner.URL == "" {
		changed++
		for _, ref := range corpus.Pages() {
			if corpus.EffectiveHour(ref, changed) == changed {
				churner = ref
				break
			}
		}
	}
	pages := []corpus.PageRef{churner}
	for _, ref := range corpus.Pages() {
		if corpus.EffectiveHour(ref, changed) == 0 && len(pages) < 4 {
			pages = append(pages, ref)
		}
	}
	if len(pages) < 4 {
		t.Fatalf("only %d corpus pages unchanged at hour %d", len(pages)-1, changed)
	}
	type step struct {
		url      string
		lat, lon float64
		at       time.Duration
		dequeue  string // instead of a request: drain this tower
	}
	khi := func(url string, at time.Duration) step { return step{url: url, lat: 24.87, lon: 67.01, at: at} }
	lhe := func(url string, at time.Duration) step { return step{url: url, lat: 31.55, lon: 74.34, at: at} }
	script := []step{
		khi(pages[1].URL, 0),
		khi(pages[2].URL, time.Second),
		khi(pages[1].URL, 2*time.Second),                         // rides the pending broadcast
		lhe(pages[1].URL, 3*time.Second),                         // same page, other tower: its own entry
		{url: pages[3].URL, lat: 0, lon: 0, at: 4 * time.Second}, // no coverage
		khi(churner.URL, 5*time.Second),
		khi(churner.URL, time.Duration(changed)*time.Hour), // new epoch: not a rider
		khi(churner.URL, time.Duration(changed)*time.Hour+time.Second),
		{dequeue: "khi-1", at: time.Duration(changed)*time.Hour + time.Minute},
		khi(pages[1].URL, time.Duration(changed)*time.Hour+2*time.Minute), // aired already: queued again
		lhe(pages[1].URL, time.Duration(changed)*time.Hour+3*time.Minute), // still pending on lhe-1
	}

	type outcome struct {
		queues map[string][]queuedEntry
		traces map[string][]string
	}
	run := func(acfg admission.Config) outcome {
		p, err := core.NewPipeline(core.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.Admission = acfg
		s := New(cfg, p)
		defer s.Close()
		s.AddTransmitter(Transmitter{ID: "khi-1", FreqMHz: 93.7, Lat: 24.86, Lon: 67.00, RadiusKm: 40})
		s.AddTransmitter(Transmitter{ID: "lhe-1", FreqMHz: 95.1, Lat: 31.55, Lon: 74.34, RadiusKm: 40})
		reg := telemetry.New()
		telemetry.NewLifecycle(reg, telemetry.LifecycleConfig{})
		s.Instrument(reg)

		out := outcome{queues: map[string][]queuedEntry{}, traces: map[string][]string{}}
		var last time.Time
		for _, st := range script {
			last = cfg.Epoch.Add(st.at)
			if st.dequeue != "" {
				s.FlushAdmissionConcurrent(1)
				out.queues[st.dequeue] = append(out.queues[st.dequeue], drainEntries(s, st.dequeue, last)...)
				continue
			}
			// the no-coverage step errors by design; the traces record it
			_, _ = s.EnqueuePage(st.url, st.lat, st.lon, last)
		}
		s.FlushAdmissionConcurrent(1)
		for _, tx := range s.Transmitters() {
			out.queues[tx.ID] = append(out.queues[tx.ID], drainEntries(s, tx.ID, last)...)
		}
		for _, ev := range reg.Lifecycle().Ring().Events("") {
			stage := ev.Stage
			if stage == telemetry.StageAborted.String() {
				stage += ": " + ev.Detail
			}
			out.traces[ev.Trace] = append(out.traces[ev.Trace], stage)
		}
		return out
	}

	direct := run(admission.Config{})
	batched := run(admission.Config{Enabled: true, MaxBatch: 1 << 20})

	if !reflect.DeepEqual(direct.queues, batched.queues) {
		t.Errorf("queues differ:\n admission off: %+v\n admission on:  %+v", direct.queues, batched.queues)
	}
	if !reflect.DeepEqual(direct.traces, batched.traces) {
		t.Errorf("lifecycle stage sequences differ:\n admission off: %v\n admission on:  %v", direct.traces, batched.traces)
	}
	// The script must have exercised what it claims to.
	khiQ := direct.queues["khi-1"]
	if len(khiQ) != 5 || khiQ[0].Count != 2 || khiQ[2].EffHour == khiQ[3].EffHour || khiQ[3].Count != 2 {
		t.Errorf("khi-1 queue = %+v, want 5 entries: a rider on the first, two epochs of the churner, a rider on the second", khiQ)
	}
	if lheQ := direct.queues["lhe-1"]; len(lheQ) != 1 || lheQ[0].Count != 2 {
		t.Errorf("lhe-1 queue = %+v, want one entry carrying both requests", lheQ)
	}
	if len(direct.traces) != 10 {
		t.Errorf("%d traces, want one per request (10)", len(direct.traces))
	}
}

// TestPushPopularRacesRequests runs PushPopular against concurrent SMS
// requests for the very pages it pushes. Push and request go through
// the same sink, which decides push-or-ride under the shard lock, so a
// tower's queue holds each (URL, epoch) once however the two interleave
// (a check-then-push with the lock released in between would not). Run
// under -race.
func TestPushPopularRacesRequests(t *testing.T) {
	const topN, rounds, senders = 4, 3, 4
	s := testServer(t)
	reg := telemetry.New()
	telemetry.NewLifecycle(reg, telemetry.LifecycleConfig{})
	s.Instrument(reg)
	now := s.cfg.Epoch
	smsc := sms.NewSMSC(time.Second, time.Second, 1)
	handle := s.HandleSMS(smsc)
	popular := rankByDemand(corpus.Pages(), nil)[:topN]

	var wg sync.WaitGroup
	start := make(chan struct{})
	for r := 0; r < rounds; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if err := s.PushPopular(topN, now); err != nil {
				t.Error(err)
			}
		}()
	}
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i, ref := range popular {
				handle(sms.Message{
					From:      fmt.Sprintf("+user%d", g),
					Body:      sms.FormatRequest(sms.Request{URL: ref.URL, Lat: 24.87, Lon: 67.01}),
					DeliverAt: now.Add(time.Duration(i) * time.Second),
				})
			}
		}(g)
	}
	close(start)
	wg.Wait()

	for _, tx := range s.Transmitters() {
		seen := map[string]bool{}
		requests := 0
		for _, e := range drainEntries(s, tx.ID, now.Add(time.Minute)) {
			key := fmt.Sprintf("%s@%d", e.URL, e.EffHour)
			if seen[key] {
				t.Errorf("%s: %s queued twice", tx.ID, key)
			}
			seen[key] = true
			requests += e.Count
		}
		if len(seen) != topN {
			t.Errorf("%s: %d distinct pages queued, want %d", tx.ID, len(seen), topN)
		}
		if want := map[string]int{"khi-1": senders * topN}[tx.ID]; requests != want {
			t.Errorf("%s: queue entries carry %d requests, want %d", tx.ID, requests, want)
		}
	}
	if got := reg.Snapshot().Counters["lifecycle_on_air_total"]; got != senders*topN {
		t.Errorf("%d of %d requests went on air", got, senders*topN)
	}
}
