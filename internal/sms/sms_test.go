package sms

import (
	"strings"
	"testing"
	"time"
)

func TestGSM7RoundTrip(t *testing.T) {
	for _, s := range []string{
		"GET khabar.pk/ LOC 24.8607,67.0011",
		"hello WORLD 123 !?()",
		"a",
	} {
		got := FromSeptets(ToSeptets(s))
		if got != s {
			t.Errorf("round trip %q -> %q", s, got)
		}
	}
}

func TestGSM7Substitution(t *testing.T) {
	got := FromSeptets(ToSeptets("emoji \U0001F600 end"))
	if got != "emoji ? end" {
		t.Errorf("got %q", got)
	}
}

func TestSegment(t *testing.T) {
	short := strings.Repeat("a", 160)
	parts, err := Segment(short)
	if err != nil || len(parts) != 1 {
		t.Errorf("160 septets should be a single SMS, got %d parts (%v)", len(parts), err)
	}
	long := strings.Repeat("b", 161)
	parts, err = Segment(long)
	if err != nil || len(parts) != 2 {
		t.Fatalf("161 septets should be 2 parts, got %d (%v)", len(parts), err)
	}
	if len(parts[0]) != ConcatLimit {
		t.Errorf("part 0 has %d septets, want %d", len(parts[0]), ConcatLimit)
	}
	if strings.Join(parts, "") != long {
		t.Error("join mismatch")
	}
	if _, err := Segment(""); err != ErrUnencodable {
		t.Errorf("empty message err = %v", err)
	}
}

func TestSMSCDeliveryOrderAndLatency(t *testing.T) {
	smsc := NewSMSC(2*time.Second, 8*time.Second, 1)
	var got []Message
	smsc.Register("+92300SONIC", func(m Message) { got = append(got, m) })
	t0 := time.Unix(0, 0)
	if err := smsc.Submit(t0, "+92301", "+92300SONIC", "GET a.pk/ LOC 1,2"); err != nil {
		t.Fatal(err)
	}
	if err := smsc.Submit(t0, "+92302", "+92300SONIC", "GET b.pk/ LOC 1,2"); err != nil {
		t.Fatal(err)
	}
	if smsc.Pending() != 2 {
		t.Fatalf("pending = %d", smsc.Pending())
	}
	// Nothing delivered before the minimum latency.
	if n := smsc.Advance(t0.Add(1 * time.Second)); n != 0 {
		t.Errorf("early delivery of %d messages", n)
	}
	// Everything delivered by the max latency.
	n := smsc.Advance(t0.Add(9 * time.Second))
	if n != 2 || len(got) != 2 {
		t.Fatalf("delivered %d, handler saw %d", n, len(got))
	}
	for _, m := range got {
		lat := m.DeliverAt.Sub(m.SubmitAt)
		if lat < 2*time.Second || lat > 8*time.Second {
			t.Errorf("latency %v out of range", lat)
		}
	}
	if smsc.Pending() != 0 {
		t.Errorf("pending = %d after delivery", smsc.Pending())
	}
}

func TestSMSCUnknownSubscriber(t *testing.T) {
	smsc := NewSMSC(time.Second, time.Second, 2)
	if err := smsc.Submit(time.Now(), "a", "nobody", "hi"); err == nil {
		t.Error("unknown subscriber should fail")
	}
}

func TestSMSCHandlerCanReply(t *testing.T) {
	smsc := NewSMSC(time.Second, time.Second, 3)
	var userGot []string
	smsc.Register("+USER", func(m Message) { userGot = append(userGot, m.Body) })
	smsc.Register("+SONIC", func(m Message) {
		// Server acks from within the delivery callback (must not deadlock).
		_ = smsc.Submit(m.DeliverAt, "+SONIC", "+USER", FormatAck("a.pk/", 90*time.Second))
	})
	t0 := time.Unix(100, 0)
	if err := smsc.Submit(t0, "+USER", "+SONIC", "GET a.pk/ LOC 1,2"); err != nil {
		t.Fatal(err)
	}
	smsc.Advance(t0.Add(time.Second))
	smsc.Advance(t0.Add(2 * time.Second))
	if len(userGot) != 1 {
		t.Fatalf("user got %d messages", len(userGot))
	}
	url, eta, err := ParseAck(userGot[0])
	if err != nil || url != "a.pk/" || eta != 90*time.Second {
		t.Errorf("ack = %q %v %v", url, eta, err)
	}
}

func TestRequestGrammar(t *testing.T) {
	r := Request{URL: "cnn.com/index.html", Lat: 24.8607, Lon: 67.0011}
	body := FormatRequest(r)
	if len(ToSeptets(body)) > SingleLimit {
		t.Errorf("request %q does not fit one SMS", body)
	}
	got, err := ParseRequest(body)
	if err != nil {
		t.Fatal(err)
	}
	if got.URL != r.URL || got.Lat != 24.8607 || got.Lon != 67.0011 {
		t.Errorf("parsed %+v", got)
	}
	for _, bad := range []string{
		"", "GET", "GET url", "GET url LOC", "GET url LOC abc",
		"GET url LOC 1", "POST url LOC 1,2", "GET url XXX 1,2",
		// Coordinates fail closed: ParseFloat accepts these spellings, and a
		// NaN distance compares as "covered" downstream.
		"GET url LOC NaN,NaN", "GET url LOC 1,nan", "GET url LOC Inf,2",
		"GET url LOC 1,-infinity", "GET url LOC 90.0001,0", "GET url LOC -91,0",
		"GET url LOC 0,180.5", "GET url LOC 0,-181", "GET url LOC 1e999,0",
	} {
		if _, err := ParseRequest(bad); err == nil {
			t.Errorf("ParseRequest(%q) should fail", bad)
		}
	}
	for _, edge := range []string{"GET url LOC 90,180", "GET url LOC -90,-180"} {
		if _, err := ParseRequest(edge); err != nil {
			t.Errorf("ParseRequest(%q) = %v, want accepted", edge, err)
		}
	}
}

func TestAckGrammar(t *testing.T) {
	for _, bad := range []string{"", "QUEUED", "QUEUED u ETA", "QUEUED u ETA x", "NOPE u ETA 5",
		"QUEUED u ETA 9223372037"} { // seconds that overflow a Duration
		if _, _, err := ParseAck(bad); err == nil {
			t.Errorf("ParseAck(%q) should fail", bad)
		}
	}
}

func TestBusyGrammar(t *testing.T) {
	body := FormatBusy("cnn.com/index.html", 30*time.Second)
	if len(ToSeptets(body)) > SingleLimit {
		t.Errorf("busy reply %q does not fit one SMS", body)
	}
	url, retry, err := ParseBusy(body)
	if err != nil || url != "cnn.com/index.html" || retry != 30*time.Second {
		t.Errorf("busy = %q %v %v", url, retry, err)
	}
	for _, bad := range []string{"", "BUSY", "BUSY u RETRY", "BUSY u RETRY x", "BUSY u RETRY -1", "QUEUED u RETRY 5",
		"BUSY u RETRY 9223372037"} {
		if _, _, err := ParseBusy(bad); err == nil {
			t.Errorf("ParseBusy(%q) should fail", bad)
		}
	}
}
