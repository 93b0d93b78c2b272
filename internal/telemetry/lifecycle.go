package telemetry

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Request lifecycle tracing. Kernel spans (span.go) answer "where does
// the CPU go inside one stage"; the Lifecycle answers the operational
// question "how long does one SMS request live, end to end": every
// request is stamped with a trace ID and monotonic stage timestamps
// (received → admitted → render_start → render_done → enqueued →
// on_air_start → on_air_done → delivered), feeding
//
//   - request_to_on_air_seconds / request_to_delivered_seconds
//     histograms (p50/p99 in every snapshot),
//   - lifecycle_stage_wait_seconds{stage=…} per-stage wait histograms,
//   - an SLO evaluator (LifecycleConfig.SLOTargets) with
//     lifecycle_slo_{ok,breach}_total{slo=…} counters, and
//   - the bounded structured event ring (events.go) that /trace/<id>
//     reconstructs timelines from.
//
// Timestamps live in whatever clock domain the caller stamps in: a live
// server stamps wall time, sonic-sim stamps simulation time, and the two
// never mix inside one trace. Stage waits are clamped at zero so a
// caller that interleaves domains (e.g. a render measured on the wall
// clock inside a simulated timeline) can never record a negative wait.
//
// Everything is nil-safe: a nil *Lifecycle yields nil *Trace handles and
// every stamp collapses to a nil check, so instrumented components keep
// the calls compiled in even when telemetry is off.

// Stage enumerates the lifecycle checkpoints of one request.
type Stage uint8

// Lifecycle stages, in causal order.
const (
	StageReceived    Stage = iota // request arrived (SMS delivered / API call)
	StageAdmitted                 // parsed, validated, admitted for service
	StageRenderStart              // page render began (cache miss or hit check)
	StageRenderDone               // encoded bundle ready
	StageEnqueued                 // appended to a transmitter broadcast queue
	StageOnAirStart               // handed to the transmitter (dequeue)
	StageOnAirDone                // broadcast airtime complete
	StageDelivered                // a receiver decoded and cached the page
	StageAborted                  // request failed (no coverage, render error)
	numStages
)

var stageNames = [numStages]string{
	"received", "admitted", "render_start", "render_done",
	"enqueued", "on_air_start", "on_air_done", "delivered", "aborted",
}

// String returns the stage's snake_case name (used as the stage label).
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return fmt.Sprintf("stage_%d", uint8(s))
}

// SLOTargets declares the two latency budgets the evaluator checks.
// Zero values disable the corresponding check.
type SLOTargets struct {
	// RequestToOnAir bounds received → on_air_done.
	RequestToOnAir time.Duration
	// RequestToDelivered bounds received → delivered.
	RequestToDelivered time.Duration
}

// LifecycleConfig tunes a Lifecycle. Its event ring holds the last
// DefaultEventRing events.
type LifecycleConfig struct {
	// SLOTargets are the latency budgets the evaluator enforces.
	SLOTargets SLOTargets
	// MaxOpenTraces bounds how many undelivered traces the URL index
	// retains before the oldest are evicted (0 = DefaultMaxOpenTraces).
	MaxOpenTraces int
}

// DefaultMaxOpenTraces bounds the open-trace index of a lifecycle whose
// requests are never confirmed delivered (a transmit-only server).
const DefaultMaxOpenTraces = 16384

// Lifecycle tracks in-flight request traces for one registry.
type Lifecycle struct {
	reg  *Registry
	cfg  LifecycleConfig
	ring *EventRing

	nextID atomic.Uint64

	mu    sync.Mutex
	byURL map[string][]*Trace // open (undelivered) traces per URL
	openq []*Trace            // FIFO for MaxOpenTraces eviction
	open  int

	hOnAir     *Histogram // request_to_on_air_seconds
	hDelivered *Histogram // request_to_delivered_seconds
	stageWait  [numStages]*Histogram
	cBegun     *Counter // lifecycle_requests_total
	cOnAir     *Counter // lifecycle_on_air_total
	cDelivered *Counter // lifecycle_delivered_total
	cAborted   *Counter // lifecycle_aborted_total
	gOpen      *Gauge   // lifecycle_open_traces
}

// NewLifecycle builds a lifecycle tracker on reg and installs it as the
// registry's tracker (Registry.Lifecycle returns it; the ops endpoint
// serves its ring under /trace/ and /events.json). Returns nil — a valid
// "tracing off" handle — on a nil registry.
func NewLifecycle(reg *Registry, cfg LifecycleConfig) *Lifecycle {
	if reg == nil {
		return nil
	}
	if cfg.MaxOpenTraces <= 0 {
		cfg.MaxOpenTraces = DefaultMaxOpenTraces
	}
	lc := &Lifecycle{
		reg:        reg,
		cfg:        cfg,
		ring:       NewEventRing(DefaultEventRing),
		byURL:      make(map[string][]*Trace),
		hOnAir:     reg.Histogram("request_to_on_air_seconds", WaitBuckets),
		hDelivered: reg.Histogram("request_to_delivered_seconds", WaitBuckets),
		cBegun:     reg.Counter("lifecycle_requests_total"),
		cOnAir:     reg.Counter("lifecycle_on_air_total"),
		cDelivered: reg.Counter("lifecycle_delivered_total"),
		cAborted:   reg.Counter("lifecycle_aborted_total"),
		gOpen:      reg.Gauge("lifecycle_open_traces"),
	}
	for st := StageAdmitted; st < StageAborted; st++ {
		lc.stageWait[st] = reg.Histogram("lifecycle_stage_wait_seconds", WaitBuckets, "stage", st.String())
	}
	reg.installLifecycle(lc)
	return lc
}

// Ring exposes the structured event ring (nil when tracing is off).
func (lc *Lifecycle) Ring() *EventRing {
	if lc == nil {
		return nil
	}
	return lc.ring
}

// BeginAt opens a trace stamped "received" at an explicit time (callers
// in a simulated clock domain pass simulation timestamps). Returns nil —
// a valid no-op trace — on a nil lifecycle.
func (lc *Lifecycle) BeginAt(url, from string, at time.Time) *Trace {
	if lc == nil {
		return nil
	}
	tr := &Trace{
		lc:  lc,
		id:  fmt.Sprintf("t-%06x", lc.nextID.Add(1)),
		url: url,
	}
	tr.at[StageReceived] = at
	tr.last, tr.lastAt = StageReceived, at

	lc.mu.Lock()
	lc.byURL[url] = append(lc.byURL[url], tr)
	lc.openq = append(lc.openq, tr)
	lc.open++
	for lc.open > lc.cfg.MaxOpenTraces && len(lc.openq) > 0 {
		old := lc.openq[0]
		lc.openq = lc.openq[1:]
		if !old.evicted {
			lc.dropLocked(old)
		}
	}
	// Shed already-closed heads so the FIFO doesn't retain delivered
	// traces until the eviction cap is hit.
	for len(lc.openq) > 0 && lc.openq[0].evicted {
		lc.openq = lc.openq[1:]
	}
	lc.gOpen.Set(float64(lc.open))
	lc.mu.Unlock()

	lc.cBegun.Inc()
	lc.ring.Append(Event{Trace: tr.id, Stage: StageReceived.String(), URL: url, At: at, Detail: from})
	return tr
}

// dropLocked removes tr from the URL index; callers hold lc.mu and set
// the open-traces gauge before releasing it, so the gauge is always the
// count of the last update to take the lock.
func (lc *Lifecycle) dropLocked(tr *Trace) {
	if tr.evicted {
		return
	}
	tr.evicted = true
	lc.open--
	q := lc.byURL[tr.url]
	for i, t := range q {
		if t == tr {
			q = append(q[:i], q[i+1:]...)
			break
		}
	}
	if len(q) == 0 {
		delete(lc.byURL, tr.url)
	} else {
		lc.byURL[tr.url] = q
	}
}

// DeliveredAt records decode-side receipt confirmation: every open trace
// requesting url is stamped "delivered" at the given time and closed,
// which is what closes the request loop end to end.
func (lc *Lifecycle) DeliveredAt(url string, at time.Time) {
	if lc == nil {
		return
	}
	lc.mu.Lock()
	traces := append([]*Trace(nil), lc.byURL[url]...)
	for _, tr := range traces {
		lc.dropLocked(tr)
	}
	lc.gOpen.Set(float64(lc.open))
	lc.mu.Unlock()
	for _, tr := range traces {
		tr.StampAt(StageDelivered, at)
	}
}

// evalSLO checks one budget and bumps the ok/breach counters. Telemetry
// label values identify the budget ("request_to_on_air",
// "request_to_delivered").
func (lc *Lifecycle) evalSLO(name string, observed, target time.Duration) {
	if target <= 0 {
		return
	}
	if observed > target {
		lc.reg.Counter("lifecycle_slo_breach_total", "slo", name).Inc()
	} else {
		lc.reg.Counter("lifecycle_slo_ok_total", "slo", name).Inc()
	}
}

// Trace is one in-flight request. All methods are nil-safe no-ops.
type Trace struct {
	lc  *Lifecycle
	id  string
	url string

	mu      sync.Mutex
	at      [numStages]time.Time
	last    Stage
	lastAt  time.Time
	evicted bool // removed from the URL index (delivered/aborted/evicted)
}

// StampAt records stage at an explicit time: it appends a structured
// event, observes the wait since the previous stamped stage (clamped at
// zero), and — on on_air_done and delivered — observes the end-to-end
// histograms and evaluates the SLO budgets. Re-stamping a stage is
// idempotent: the first stamp wins.
func (t *Trace) StampAt(stage Stage, at time.Time) {
	if t == nil || stage >= numStages {
		return
	}
	lc := t.lc

	t.mu.Lock()
	if !t.at[stage].IsZero() {
		t.mu.Unlock()
		return
	}
	t.at[stage] = at
	wait := at.Sub(t.lastAt)
	if wait < 0 {
		wait = 0
	}
	t.last, t.lastAt = stage, at
	received := t.at[StageReceived]
	t.mu.Unlock()

	if stage > StageReceived && stage < StageAborted {
		lc.stageWait[stage].Observe(wait.Seconds())
	}

	lc.ring.Append(Event{Trace: t.id, Stage: stage.String(), URL: t.url, At: at, WaitSeconds: wait.Seconds()})

	switch stage {
	case StageOnAirDone:
		e2e := at.Sub(received)
		if e2e < 0 {
			e2e = 0
		}
		lc.hOnAir.Observe(e2e.Seconds())
		lc.cOnAir.Inc()
		lc.evalSLO("request_to_on_air", e2e, lc.cfg.SLOTargets.RequestToOnAir)
	case StageDelivered:
		e2e := at.Sub(received)
		if e2e < 0 {
			e2e = 0
		}
		lc.hDelivered.Observe(e2e.Seconds())
		lc.cDelivered.Inc()
		lc.evalSLO("request_to_delivered", e2e, lc.cfg.SLOTargets.RequestToDelivered)
		t.close()
	case StageAborted:
		lc.cAborted.Inc()
		t.close()
	}
}

// Abort ends the trace with a reason (no coverage, render failure). The
// event carries the reason; end-to-end histograms are not observed.
func (t *Trace) Abort(at time.Time, reason string) {
	if t == nil {
		return
	}
	lc := t.lc
	t.mu.Lock()
	if !t.at[StageAborted].IsZero() {
		t.mu.Unlock()
		return
	}
	t.at[StageAborted] = at
	t.mu.Unlock()
	lc.ring.Append(Event{Trace: t.id, Stage: StageAborted.String(), URL: t.url, At: at, Detail: reason})
	lc.cAborted.Inc()
	t.close()
}

// close removes the trace from the lifecycle's open-trace index.
func (t *Trace) close() {
	lc := t.lc
	lc.mu.Lock()
	lc.dropLocked(t)
	lc.gOpen.Set(float64(lc.open))
	lc.mu.Unlock()
}
