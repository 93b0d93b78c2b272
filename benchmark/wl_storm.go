package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"sonic/internal/admission"
	"sonic/internal/core"
	"sonic/internal/routing"
	"sonic/internal/server"
	"sonic/internal/sms"
	"sonic/internal/telemetry"
)

// sms_storm: open loop on the simulated clock. U users send one SMS
// each, at times drawn uniformly over the first 59 simulated minutes (so
// every admission falls in corpus hour 0), for a Zipf(1.1) page, from
// inside a random tower's disc on a 16-tower grid. The loop is
// sonic-loadgen's, over public calls, with a 1 s tick:
//
//	sms.FormatRequest -> SMSC.Submit/Advance -> server.HandleSMS (batched
//	admission on) -> FlushAdmissionConcurrent -> per-tower DequeuePageAt,
//	paced by each page's airtime
//
// and runs until every queue has drained. Set-up rendered every page, so
// render is the hit path and the request path is what is timed. An op
// is one request resolved: aired, refused (BUSY) or rejected (ERR). The
// simulated clock cannot run late, so generator lag is zero by
// construction; latencies are exact functions of the seed.

const (
	stormTick      = time.Second
	stormWindowS   = 59 * 60 // arrivals stop a minute short of corpus hour 1
	stormReplyPool = 1024    // users share reply numbers, as in sonic-loadgen
	stormGroup     = 60      // ticks folded into one traced op
	stormZipf      = 1.1
)

// stormGrid lays n towers on a lat/lon grid over a Pakistan-sized
// region, spaced so neighbouring discs overlap slightly while a point
// within ±0.2° of a tower has that tower as its unique nearest. Every
// fourth station runs a second frequency and drains twice as fast.
func stormGrid(n int) []server.Transmitter {
	cols := 1
	for cols*cols < n {
		cols++
	}
	fleet := make([]server.Transmitter, 0, n)
	for i := 0; i < n; i++ {
		tx := server.Transmitter{
			ID:       fmt.Sprintf("tx-%03d", i),
			FreqMHz:  88.0 + 0.2*float64(i%100),
			Lat:      24.0 + 0.55*float64(i/cols),
			Lon:      66.0 + 0.55*float64(i%cols),
			RadiusKm: 45,
		}
		if i%4 == 0 {
			tx.ExtraFreqsMHz = []float64{tx.FreqMHz + 0.4}
		}
		fleet = append(fleet, tx)
	}
	return fleet
}

type stormEvent struct {
	atSec    float64
	page     uint16
	tower    uint16
	lat, lon float64
}

type inflight struct {
	tower, page uint16
	n           int
}

// onAirBook is the harness's own record of who waits for what: the
// requests the server accepted, by home tower and page, until the tower
// puts that page on air. Queued broadcasts coalesce — the server keeps at
// most one entry per page and tower — so one airing serves every request
// for the page that tower has accepted so far.
type onAirBook struct {
	pending     [][][]int64 // [tower][page] delivery times (ns) of accepted, not yet aired requests
	queueWaitNs int64       // summed delivery -> on-air start
}

func newOnAirBook(towers, pages int) *onAirBook {
	b := &onAirBook{pending: make([][][]int64, towers)}
	for i := range b.pending {
		b.pending[i] = make([][]int64, pages)
	}
	return b
}

func (b *onAirBook) accept(tower, page int, deliveredNs int64) {
	b.pending[tower][page] = append(b.pending[tower][page], deliveredNs)
}

// air puts page on the tower's air from atNs for airS seconds, appends
// each waiting request's delivery -> end-of-broadcast wait to waits, and
// returns how many requests it served. A tower that was idle dequeues
// with the time it fell idle, which can lie before the request existed;
// such a request waits for the airtime alone.
func (b *onAirBook) air(tower, page int, atNs int64, airS float64, waits *[]float64) int {
	reqs := b.pending[tower][page]
	for _, d := range reqs {
		start := max(atNs, d)
		b.queueWaitNs += start - d
		*waits = append(*waits, float64(start-d)/1e9+airS)
	}
	b.pending[tower][page] = reqs[:0]
	return len(reqs)
}

// waiting is how many accepted requests have not been aired.
func (b *onAirBook) waiting() int {
	n := 0
	for _, t := range b.pending {
		for _, reqs := range t {
			n += len(reqs)
		}
	}
	return n
}

// stormState is the harness's view of the uplink: every delivery to the
// server, how it ended, and how long the handler ran.
type stormState struct {
	handle    sms.Handler
	timed     bool // traced: time every handler call
	handleNs  time.Duration
	handled   int
	cRejected *telemetry.Counter
	cNoCover  *telemetry.Counter
	cBad      *telemetry.Counter

	inflight   map[string]*inflight
	book       *onAirBook
	accepted   int
	busy, errs int
	unknown    int
	uplinkNs   int64
}

func (s *stormState) deliver(m sms.Message) {
	rej, nc, bad := s.cRejected.Value(), s.cNoCover.Value(), s.cBad.Value()
	if s.timed {
		t0 := time.Now()
		s.handle(m)
		s.handleNs += time.Since(t0)
	} else {
		s.handle(m)
	}
	s.handled++
	s.uplinkNs += int64(m.DeliverAt.Sub(m.SubmitAt))
	in := s.inflight[m.Body]
	if in == nil {
		s.unknown++
		return
	}
	if in.n--; in.n == 0 {
		delete(s.inflight, m.Body)
	}
	switch {
	case s.cRejected.Value() != rej:
		s.busy++
	case s.cNoCover.Value() != nc || s.cBad.Value() != bad:
		s.errs++
	default:
		s.accepted++
		s.book.accept(int(in.tower), int(in.page), m.DeliverAt.UnixNano())
	}
}

func runStorm(e *env) (*report, error) {
	rep := &report{budgetTitle: "sms_storm, request -> on air", enforce: true}
	tr := e.tr
	rng := rand.New(rand.NewSource(e.seed))

	// --- set-up --------------------------------------------------------
	adm := admission.Config{Enabled: true, MaxBatch: 512, MaxPending: 1 << 20, RetryAfter: 30 * time.Second}
	rg, err := newRig(e.sz, adm, 1<<20)
	if err != nil {
		return nil, err
	}
	defer rg.srv.Close()
	fleet := stormGrid(e.sz.StormTowers)
	towers := make([]routing.Tower, len(fleet))
	for i, tx := range fleet {
		rg.srv.AddTransmitter(tx)
		towers[i] = routing.Tower{ID: tx.ID, Lat: tx.Lat, Lon: tx.Lon, RadiusKm: tx.RadiusKm}
	}
	smsc := sms.NewSMSC(time.Second, 5*time.Second, e.seed)
	st := &stormState{
		handle:    rg.srv.HandleSMS(smsc),
		timed:     tr.on(),
		cRejected: rg.reg.Counter("admission_rejected_total"),
		cNoCover:  rg.reg.Counter("server_no_coverage_total"),
		cBad:      rg.reg.Counter("server_sms_bad_requests_total"),
		inflight:  map[string]*inflight{},
		book:      newOnAirBook(len(fleet), len(rg.pages)),
	}
	smsc.Register(rg.cfg.Number, st.deliver)
	var queuedReplies, busyReplies, errReplies int
	replyTo := make([]string, stormReplyPool)
	for i := range replyTo {
		replyTo[i] = fmt.Sprintf("+9230%07d", i)
		smsc.Register(replyTo[i], func(m sms.Message) {
			switch {
			case strings.HasPrefix(m.Body, "QUEUED"):
				queuedReplies++
			case strings.HasPrefix(m.Body, "BUSY"):
				busyReplies++
			default:
				errReplies++
			}
		})
	}

	var missMs []float64
	sizes, err := rg.renderCorpus(0, &missMs) // render is the hit path from here on
	if err != nil {
		return nil, err
	}
	airOf := make([]float64, len(rg.pages))
	pageIdx := make(map[string]int, len(rg.pages))
	for i, ref := range rg.pages {
		airOf[i] = rg.pipe.AirtimeSeconds(sizes[i])
		pageIdx[ref.URL] = i
	}

	zipf := rand.NewZipf(rng, stormZipf, 1, uint64(len(rg.pages)-1))
	events := make([]stormEvent, e.sz.StormUsers)
	for i := range events {
		home := rng.Intn(len(fleet))
		events[i] = stormEvent{
			atSec: rng.Float64() * stormWindowS,
			page:  uint16(zipf.Uint64()),
			tower: uint16(home),
			lat:   fleet[home].Lat + (rng.Float64()-0.5)*0.4,
			lon:   fleet[home].Lon + (rng.Float64()-0.5)*0.4,
		}
	}
	sort.Slice(events, func(i, j int) bool { return events[i].atSec < events[j].atSec })
	rep.inputDigest = newDigest("sms_storm", len(events), events[0], events[len(events)/2], events[len(events)-1])
	rep.attempted = len(events)
	settle()
	rep.setup = time.Since(e.start)

	// --- timed region --------------------------------------------------
	epoch := rg.cfg.Epoch
	busyUntil := make([]time.Time, len(fleet))
	for i := range busyUntil {
		busyUntil[i] = epoch
	}
	checked := make([]bool, len(rg.pages))
	missesBefore := rg.counter("server_render_cache_misses_total")
	var busyS float64 // tower-seconds on air
	var bundleBytes float64
	aired, transmissions := 0, 0
	peakQueue, peakPending, flushTicks := 0, 0, 0
	var dequeueNs time.Duration
	dequeues := 0

	// g folds stormGroup ticks into one traced op
	type group struct {
		start                        time.Time
		wall, submit, advance, flush time.Duration
		drain, handle                time.Duration
		submitted, handled, batches  int
	}
	var g group
	var groups []group
	batchesSeen := rg.counter("admission_batches_total")
	closeGroup := func() {
		if g.wall > 0 {
			g.batches = int(rg.counter("admission_batches_total") - batchesSeen)
			batchesSeen += int64(g.batches)
			groups = append(groups, g)
		}
		g = group{}
	}

	next, ticks := 0, 0
	step := func(now time.Time) {
		t0 := time.Now()
		if g.wall == 0 {
			g.start = t0
		}
		for next < len(events) && events[next].atSec < now.Sub(epoch).Seconds() {
			ev := events[next]
			next++
			body := sms.FormatRequest(sms.Request{URL: rg.pages[ev.page].URL, Lat: ev.lat, Lon: ev.lon})
			if in := st.inflight[body]; in != nil {
				in.n++
			} else {
				st.inflight[body] = &inflight{tower: ev.tower, page: ev.page, n: 1}
			}
			at := epoch.Add(time.Duration(ev.atSec * float64(time.Second)))
			if err := smsc.Submit(at, replyTo[next%stormReplyPool], rg.cfg.Number, body); err != nil {
				rep.fail(1, "submit: %v", err)
			}
			g.submitted++
		}
		t1 := time.Now()
		h0, n0 := st.handleNs, st.handled
		smsc.Advance(now)
		t2 := time.Now()
		if p := rg.srv.AdmissionPending(); p > 0 {
			flushTicks++
			peakPending = max(peakPending, p)
		}
		rg.srv.FlushAdmissionConcurrent(2)
		t3 := time.Now()
		for i := range fleet {
			for !busyUntil[i].After(now) {
				var d0 time.Time
				if st.timed {
					d0 = time.Now()
				}
				url, _, bundle, ok := rg.srv.DequeuePageAt(fleet[i].ID, busyUntil[i])
				if st.timed {
					dequeueNs += time.Since(d0)
					dequeues++
				}
				if !ok {
					busyUntil[i] = now
					break
				}
				page := pageIdx[url]
				if !checked[page] {
					checked[page] = true
					if n := len(core.MarshalBundle(bundle)); n != sizes[page] {
						rep.fail(1, "%s: dequeued bundle is %d bytes, set-up rendered %d", url, n, sizes[page])
					}
				}
				air := airOf[page] / float64(fleet[i].FrequencyCount())
				aired += st.book.air(i, page, busyUntil[i].UnixNano(), air, &rep.onAirS)
				rep.airS = append(rep.airS, airOf[page])
				bundleBytes += float64(sizes[page])
				busyS += air
				transmissions++
				busyUntil[i] = busyUntil[i].Add(time.Duration(air * float64(time.Second)))
			}
			if pages, _ := rg.srv.QueueDepth(fleet[i].ID); pages > peakQueue {
				peakQueue = pages
			}
		}
		t4 := time.Now()
		g.submit += t1.Sub(t0)
		g.advance += t2.Sub(t1)
		g.flush += t3.Sub(t2)
		g.drain += t4.Sub(t3)
		g.wall += t4.Sub(t0)
		g.handle += st.handleNs - h0
		g.handled += st.handled - n0
		if ticks++; ticks%stormGroup == 0 {
			closeGroup()
		}
	}

	rep.m.start()
	now := epoch
	end := epoch.Add(time.Duration(stormWindowS)*time.Second + 48*time.Hour)
	for !now.After(end) {
		now = now.Add(stormTick)
		step(now)
		if next == len(events) && smsc.Pending() == 0 && rg.srv.AdmissionPending() == 0 {
			idle := true
			for i := range fleet {
				if p, _ := rg.srv.QueueDepth(fleet[i].ID); p > 0 || busyUntil[i].After(now) {
					idle = false
					break
				}
			}
			if idle {
				break
			}
		}
	}
	closeGroup()
	rep.m.stop()
	simEndS := now.Sub(epoch).Seconds()

	// --- verification: conservation --------------------------------------
	neverAired := st.book.waiting()
	queueWaitNs := st.book.queueWaitNs
	rep.ops = aired + st.busy + st.errs
	rep.unserved = st.busy + st.errs + neverAired
	if lost := len(events) - st.handled; lost != 0 || st.unknown != 0 {
		rep.fail(abs(lost)+st.unknown, "%d requests submitted, %d delivered to the server, %d unrecognised", len(events), st.handled, st.unknown)
	}
	if neverAired > 0 {
		rep.fail(neverAired, "%d accepted requests never went on air", neverAired)
	}
	if st.accepted != aired+neverAired || queuedReplies != st.accepted || busyReplies != st.busy || errReplies != st.errs {
		rep.fail(1, "conservation: accepted %d aired %d; replies QUEUED %d BUSY %d/%d ERR %d/%d",
			st.accepted, aired, queuedReplies, busyReplies, st.busy, errReplies, st.errs)
	}
	hist := rg.reg.Histogram("request_to_on_air_seconds", telemetry.WaitBuckets)
	if got := hist.Count(); got != int64(aired) {
		rep.fail(abs(int(got)-aired), "lifecycle histogram holds %d on-air requests, harness %d", got, aired)
	}
	misses := rg.counter("server_render_cache_misses_total") - missesBefore
	if misses != 0 {
		rep.fail(int(misses), "%d render misses in the timed region; every page was rendered in set-up", misses)
	}

	// --- per-layer -----------------------------------------------------
	reqs := float64(max(st.handled, 1))
	submitted := float64(rg.counter("admission_submitted_total"))
	enqueued := float64(rg.counter("server_pages_enqueued_total"))
	waits := sortedCopy(rep.onAirS)
	exactP99 := quantile(waits, 0.99)
	top := telemetry.WaitBuckets[len(telemetry.WaitBuckets)-1]
	if hist.Quantile(0.99) >= 0.999*top && exactP99 > top {
		rep.set("telemetry.on_air_p99_saturated", 1)
	}
	rep.set("admission.batches", float64(rg.counter("admission_batches_total")))
	if submitted > 0 {
		rep.set("admission.coalesced_share", float64(rg.counter("admission_coalesced_total"))/submitted)
	}
	rep.set("admission.busy_share", float64(st.busy)/reqs)
	rep.set("admission.peak_pending", float64(peakPending))
	rep.set("server.render_miss_ms", mean(missMs))
	rep.set("server.render_misses", float64(misses))
	rep.set("server.enqueued", enqueued)
	if enqueued > 0 {
		rep.set("server.requests_per_broadcast", float64(st.accepted)/enqueued)
	}
	rep.set("server.peak_queue_pages", float64(peakQueue))
	rep.set("imagecodec.bundle_bytes", bundleBytes/float64(max(transmissions, 1)))
	rep.set("broadcast.transmissions", float64(transmissions))
	rep.set("airtime.sms_uplink_s", float64(st.uplinkNs)/1e9/reqs)
	rep.set("airtime.queue_wait_s", float64(queueWaitNs)/1e9/float64(max(aired, 1)))
	rep.set("airtime.on_air_s", busyS/float64(max(transmissions, 1)))
	rep.set("airtime.utilization", busyS/(simEndS*float64(len(fleet))))
	rep.set("airtime.oversubscription", busyS/(stormWindowS*float64(len(fleet))))
	rep.budgetRows = []budgetRow{
		{Label: "sms uplink wait", SimS: float64(st.uplinkNs) / 1e9 / reqs},
		{Label: "format", Span: "sms.format"},
		{Label: "smsc submit (self)", Span: "sms.submit"},
		{Label: "smsc deliver (self)", Span: "sms.smsc_deliver"},
		{Label: "parse", Span: "sms.parse"},
		{Label: "route", Span: "routing.lookup"},
		{Label: "admission submit", Span: "admission.submit"},
		{Label: "server (handle_sms, self)", Span: "server.handle_sms"},
		{Label: "render (hit)", Span: "server.render_hit"},
		{Label: "marshal", Span: "core.marshal"},
		{Label: "admission+server (flush, self)", Span: "admission.flush"},
		{Label: "queue wait", SimS: float64(queueWaitNs) / 1e9 / float64(max(aired, 1))},
		{Label: "server (dequeue loop)", Span: "server.dequeue"},
		{Label: "airtime", SimS: busyS / float64(max(transmissions, 1))},
	}
	if !tr.on() {
		return rep, nil
	}

	// Unit costs of the layers hidden inside HandleSMS and the flush,
	// replayed on the storm's own requests.
	sample := events[:min(len(events), 20000)]
	bodies := make([]string, len(sample))
	unit := func(fn func()) time.Duration {
		t0 := time.Now()
		fn()
		return time.Since(t0) / time.Duration(len(sample))
	}
	formatNs := unit(func() {
		for i, ev := range sample {
			bodies[i] = sms.FormatRequest(sms.Request{URL: rg.pages[ev.page].URL, Lat: ev.lat, Lon: ev.lon})
		}
	})
	parseNs := unit(func() {
		for i := range sample {
			if _, err := sms.ParseRequest(bodies[i]); err != nil {
				rep.fail(1, "replay parse: %v", err)
			}
		}
	})
	index := routing.Build(towers)
	routeNs := unit(func() {
		for _, ev := range sample {
			if t, _, ok := index.Lookup(ev.lat, ev.lon); !ok || t.ID != fleet[ev.tower].ID {
				rep.fail(1, "replay route: (%.4f,%.4f) resolved to %q, home is %s", ev.lat, ev.lon, t.ID, fleet[ev.tower].ID)
			}
		}
	})
	scratch := admission.New(adm, func(admission.Batch) {})
	submitNs := unit(func() {
		for i, ev := range sample {
			// flush as often as the storm did, so the pending map stays its size
			if i%max(1, len(sample)/max(flushTicks, 1)) == 0 {
				scratch.Flush()
			}
			_, _ = scratch.Submit(admission.Request{URL: rg.pages[ev.page].URL, Tower: fleet[ev.tower].ID, Now: epoch})
		}
	})
	scratch.Close()
	var hitNs, marshalNs time.Duration
	hitNs = unit(func() {
		for _, ev := range sample {
			if _, err := rg.srv.RenderPage(rg.pages[ev.page].URL, epoch); err != nil {
				rep.fail(1, "replay render: %v", err)
			}
		}
	})
	marshalSample := sample[:min(len(sample), 2000)]
	t0 := time.Now()
	for _, ev := range marshalSample {
		b, _ := rg.srv.RenderPage(rg.pages[ev.page].URL, epoch)
		_ = core.MarshalBundle(b)
	}
	marshalNs = time.Since(t0)/time.Duration(len(marshalSample)) - hitNs

	for k, g := range groups {
		root := tr.add(span{Op: k, Name: "op", Calls: g.handled, Budget: g.handled > 0}, g.start, g.wall)
		at := g.start
		sub := tr.add(span{Parent: root, Op: k, Name: "sms.submit", Calls: g.submitted}, at, g.submit)
		tr.add(span{Parent: sub, Op: k, Name: "sms.format", Replay: true, Times: float64(g.submitted)}, at, formatNs)
		at = at.Add(g.submit)
		adv := tr.add(span{Parent: root, Op: k, Name: "sms.smsc_deliver", Calls: g.handled}, at, g.advance)
		h := tr.add(span{Parent: adv, Op: k, Name: "server.handle_sms", Calls: g.handled}, at, g.handle)
		tr.add(span{Parent: h, Op: k, Name: "sms.parse", Replay: true, Times: float64(g.handled)}, at, parseNs)
		tr.add(span{Parent: h, Op: k, Name: "routing.lookup", Replay: true, Times: float64(g.handled)}, at, routeNs)
		tr.add(span{Parent: h, Op: k, Name: "admission.submit", Replay: true, Times: float64(g.handled)}, at, submitNs)
		at = at.Add(g.advance)
		fl := tr.add(span{Parent: root, Op: k, Name: "admission.flush", Calls: g.batches}, at, g.flush)
		// the flush runs its batches on two workers, so a batch's cost
		// shows as half its CPU time on the wall
		tr.add(span{Parent: fl, Op: k, Name: "server.render_hit", Replay: true, Times: float64(g.batches) / 2}, at, hitNs)
		tr.add(span{Parent: fl, Op: k, Name: "core.marshal", Replay: true, Times: float64(g.batches) / 2}, at, marshalNs)
		at = at.Add(g.flush)
		tr.add(span{Parent: root, Op: k, Name: "server.dequeue"}, at, g.drain)
	}
	tr.noteClocks(2*st.handled + 2*dequeues)

	sst := newSpanStats(tr.snapshot())
	rep.set("sms.format_parse_ns", float64(formatNs+parseNs))
	rep.set("sms.smsc_deliver_ns", sst.selfTotal("sms.smsc_deliver")/reqs)
	rep.set("routing.lookup_ns", float64(routeNs))
	rep.set("admission.submit_ns", float64(submitNs))
	var flushNs time.Duration
	for _, g := range groups {
		flushNs += g.flush
	}
	rep.set("admission.flush_ms", float64(flushNs)/1e6/float64(max(flushTicks, 1)))
	rep.set("server.handle_sms_us", float64(st.handleNs)/1e3/reqs)
	rep.set("server.render_hit_ns", float64(hitNs))
	rep.set("server.dequeue_us", float64(dequeueNs)/1e3/float64(max(dequeues, 1)))
	rep.set("core.marshal_us", float64(marshalNs)/1e3)
	return rep, nil
}
