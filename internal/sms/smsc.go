package sms

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Message is one SMS in flight.
type Message struct {
	From, To string
	Body     string
	// SubmitAt and DeliverAt are simulation timestamps.
	SubmitAt  time.Time
	DeliverAt time.Time
}

// Handler consumes delivered messages.
type Handler func(Message)

// SMSC is a simulated Short Message Service Center: store-and-forward
// with per-message latency. SONIC's uplink rides on it. The zero value is
// not usable; construct with NewSMSC.
type SMSC struct {
	mu       sync.Mutex
	rng      *rand.Rand
	minDelay time.Duration
	maxDelay time.Duration
	handlers map[string]Handler
	queue    []Message
}

// NewSMSC builds a center whose deliveries take [minDelay, maxDelay]
// (uniform). The paper's workflow expects "potentially seconds in uplink".
func NewSMSC(minDelay, maxDelay time.Duration, seed int64) *SMSC {
	if maxDelay < minDelay {
		maxDelay = minDelay
	}
	return &SMSC{
		rng:      rand.New(rand.NewSource(seed)),
		minDelay: minDelay,
		maxDelay: maxDelay,
		handlers: make(map[string]Handler),
	}
}

// Register attaches the handler for a phone number.
func (s *SMSC) Register(number string, h Handler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.handlers[number] = h
}

// Submit queues a message at the given simulation time. Long bodies are
// segmented and re-joined on delivery, adding one latency draw per part
// (the longest part dominates).
func (s *SMSC) Submit(now time.Time, from, to, body string) error {
	parts, err := Segment(body)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.handlers[to]; !ok {
		return fmt.Errorf("sms: no such subscriber %q", to)
	}
	var worst time.Duration
	for range parts {
		d := s.minDelay + time.Duration(s.rng.Int63n(int64(s.maxDelay-s.minDelay)+1))
		if d > worst {
			worst = d
		}
	}
	s.queue = append(s.queue, Message{
		From: from, To: to, Body: body,
		SubmitAt: now, DeliverAt: now.Add(worst),
	})
	return nil
}

// Advance delivers every queued message due at or before now, in
// delivery-time order, and returns how many were delivered.
func (s *SMSC) Advance(now time.Time) int {
	s.mu.Lock()
	var due []Message
	var rest []Message
	for _, m := range s.queue {
		if !m.DeliverAt.After(now) {
			due = append(due, m)
		} else {
			rest = append(rest, m)
		}
	}
	s.queue = rest
	handlers := make([]Handler, len(due))
	sort.Slice(due, func(i, j int) bool { return due[i].DeliverAt.Before(due[j].DeliverAt) })
	for i, m := range due {
		handlers[i] = s.handlers[m.To]
	}
	s.mu.Unlock()
	// Deliver outside the lock: handlers may submit replies.
	for i, m := range due {
		if handlers[i] != nil {
			handlers[i](m)
		}
	}
	return len(due)
}

// Pending returns the number of undelivered messages.
func (s *SMSC) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue)
}

// --- SONIC message grammar -------------------------------------------------
//
// Request:  GET <url> LOC <lat>,<lon>
// Ack:      QUEUED <url> ETA <seconds>
// Busy:     BUSY <url> RETRY <seconds>
// Error:    ERR <reason>

// Request is a parsed SONIC page request.
type Request struct {
	URL      string
	Lat, Lon float64
}

// ErrBadRequest is returned for malformed request bodies.
var ErrBadRequest = errors.New("sms: malformed SONIC request")

// FormatRequest renders a request body.
func FormatRequest(r Request) string {
	return fmt.Sprintf("GET %s LOC %.4f,%.4f", r.URL, r.Lat, r.Lon)
}

// ParseRequest parses a request body. Coordinates must be finite and on
// the globe (lat in [-90, 90], lon in [-180, 180]).
func ParseRequest(body string) (Request, error) {
	fields := strings.Fields(body)
	if len(fields) != 4 || fields[0] != "GET" || fields[2] != "LOC" {
		return Request{}, ErrBadRequest
	}
	ll := strings.SplitN(fields[3], ",", 2)
	if len(ll) != 2 {
		return Request{}, ErrBadRequest
	}
	lat, err1 := strconv.ParseFloat(ll[0], 64)
	lon, err2 := strconv.ParseFloat(ll[1], 64)
	if err1 != nil || err2 != nil {
		return Request{}, ErrBadRequest
	}
	// ParseFloat accepts "NaN" and "Inf"; the negated form rejects them
	// too, since every comparison with NaN is false.
	if !(lat >= -90 && lat <= 90 && lon >= -180 && lon <= 180) {
		return Request{}, ErrBadRequest
	}
	return Request{URL: fields[1], Lat: lat, Lon: lon}, nil
}

// FormatAck renders the server's acknowledgement (§3.1: "quickly responds
// to the user via SMS to acknowledge the request, and provide an estimate
// on when the page will be received").
func FormatAck(url string, eta time.Duration) string {
	return fmt.Sprintf("QUEUED %s ETA %d", url, int(eta.Seconds()))
}

// ParseAck parses an acknowledgement body.
func ParseAck(body string) (url string, eta time.Duration, err error) {
	fields := strings.Fields(body)
	if len(fields) != 4 || fields[0] != "QUEUED" || fields[2] != "ETA" {
		return "", 0, ErrBadRequest
	}
	if eta, err = parseSeconds(fields[3]); err != nil {
		return "", 0, err
	}
	return fields[1], eta, nil
}

// parseSeconds parses the non-negative whole-second count that ends an
// ack or busy reply, rejecting counts a time.Duration cannot hold.
func parseSeconds(field string) (time.Duration, error) {
	secs, err := strconv.ParseInt(field, 10, 64)
	if err != nil || secs < 0 || secs > int64(math.MaxInt64/time.Second) {
		return 0, ErrBadRequest
	}
	return time.Duration(secs) * time.Second, nil
}

// FormatBusy renders the server's backpressure reply: the admission
// queue for the user's region is saturated, try again after the hint.
func FormatBusy(url string, retry time.Duration) string {
	return fmt.Sprintf("BUSY %s RETRY %d", url, int(retry.Seconds()))
}

// ParseBusy parses a backpressure reply body.
func ParseBusy(body string) (url string, retry time.Duration, err error) {
	fields := strings.Fields(body)
	if len(fields) != 4 || fields[0] != "BUSY" || fields[2] != "RETRY" {
		return "", 0, ErrBadRequest
	}
	if retry, err = parseSeconds(fields[3]); err != nil {
		return "", 0, err
	}
	return fields[1], retry, nil
}
