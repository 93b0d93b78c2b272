package telemetry

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Structured lifecycle events. Every stage stamp a Lifecycle records is
// also appended to a bounded ring of Event values, so a single slow
// request can be reconstructed after the fact (the /trace/<id> endpoint
// reads this ring). The ring is fixed-size: old events are overwritten,
// never reallocated, so a long-running server holds a constant amount of
// event memory no matter how much traffic it serves.

// Event is one lifecycle stage transition of one traced request.
type Event struct {
	// Seq is the global append sequence number (monotonic, never reused;
	// gaps in a trace's view mean unrelated traffic, not loss).
	Seq uint64 `json:"seq"`
	// Trace is the request's trace ID.
	Trace string `json:"trace"`
	// Stage is the lifecycle stage name (see Stage.String).
	Stage string `json:"stage"`
	// URL is the page the request asked for.
	URL string `json:"url,omitempty"`
	// At is the stage timestamp in the clock domain the caller stamps in
	// (wall time on a live server, simulation time under sonic-sim).
	At time.Time `json:"at"`
	// WaitSeconds is the time spent since the previous stamped stage of
	// the same trace (0 for the first stage).
	WaitSeconds float64 `json:"wait_seconds,omitempty"`
	// Detail carries optional context: the requester for "received",
	// an abort reason for "aborted".
	Detail string `json:"detail,omitempty"`
}

// EventRing is a bounded, concurrency-safe ring of lifecycle events.
// A nil *EventRing is a valid "off" handle: appends drop, reads return
// nothing.
type EventRing struct {
	mu   sync.Mutex
	buf  []Event
	next uint64 // total events ever appended
}

// DefaultEventRing is the capacity of every Lifecycle's ring: at ~8
// stamps per request it reconstructs the last ~500 requests.
const DefaultEventRing = 4096

// NewEventRing builds a ring holding the last n events (n<=0 uses
// DefaultEventRing).
func NewEventRing(n int) *EventRing {
	if n <= 0 {
		n = DefaultEventRing
	}
	return &EventRing{buf: make([]Event, n)}
}

// Append stamps e.Seq and stores the event, overwriting the oldest entry
// when the ring is full.
func (r *EventRing) Append(e Event) {
	if r == nil {
		return
	}
	r.mu.Lock()
	e.Seq = r.next
	r.buf[r.next%uint64(len(r.buf))] = e
	r.next++
	r.mu.Unlock()
}

// Len reports how many events the ring currently holds.
func (r *EventRing) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.next < uint64(len(r.buf)) {
		return int(r.next)
	}
	return len(r.buf)
}

// snapshotLocked copies the live events oldest-first; callers hold r.mu.
func (r *EventRing) snapshotLocked() []Event {
	n := uint64(len(r.buf))
	start := uint64(0)
	count := r.next
	if r.next > n {
		start = r.next - n
		count = n
	}
	out := make([]Event, 0, count)
	for i := start; i < r.next; i++ {
		out = append(out, r.buf[i%n])
	}
	return out
}

// Events returns the retained events oldest-first. A non-empty traceID
// filters to one trace's timeline.
func (r *EventRing) Events(traceID string) []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	all := r.snapshotLocked()
	r.mu.Unlock()
	if traceID == "" {
		return all
	}
	out := all[:0:0]
	for _, e := range all {
		if e.Trace == traceID {
			out = append(out, e)
		}
	}
	return out
}

// WriteJSON streams the retained events (optionally filtered to one
// trace) as a JSON array, oldest-first.
func (r *EventRing) WriteJSON(w io.Writer, traceID string) error {
	events := r.Events(traceID)
	if events == nil {
		events = []Event{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(events)
}
