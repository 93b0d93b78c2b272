package sms

import (
	"math"
	"testing"
	"time"
)

// The SMS grammar is the one text ingress an arbitrary handset can reach:
// whatever arrives, a parser returns an error or a value inside its
// documented range, and never panics. Seeds are the table tests' cases.

func FuzzParseRequest(f *testing.F) {
	for _, s := range []string{
		"GET khabar.pk/ LOC 24.8607,67.0011", "GET url LOC 90,180", "GET url LOC NaN,NaN",
		"GET url LOC Inf,2", "GET url LOC 1e999,0", "GET url LOC 1", "POST url LOC 1,2", "",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, body string) {
		r, err := ParseRequest(body)
		if err != nil {
			return
		}
		if math.IsNaN(r.Lat) || math.Abs(r.Lat) > 90 || math.IsNaN(r.Lon) || math.Abs(r.Lon) > 180 {
			t.Fatalf("ParseRequest(%q) accepted off-globe coordinates %v,%v", body, r.Lat, r.Lon)
		}
		// The wire carries four decimals (~11 m).
		again, err := ParseRequest(FormatRequest(r))
		if err != nil || again.URL != r.URL ||
			math.Abs(again.Lat-r.Lat) > 0.5e-4 || math.Abs(again.Lon-r.Lon) > 0.5e-4 {
			t.Fatalf("round trip of %+v = %+v, %v", r, again, err)
		}
	})
}

// fuzzReply is the shared contract of the two server replies: a body
// parses to a non-negative duration or fails.
func fuzzReply(f *testing.F, parse func(string) (string, time.Duration, error), seeds ...string) {
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, body string) {
		if _, d, err := parse(body); err == nil && d < 0 {
			t.Fatalf("%q parsed to a negative duration %v", body, d)
		}
	})
}

func FuzzParseAck(f *testing.F) {
	fuzzReply(f, ParseAck, "QUEUED a.pk/ ETA 90", "QUEUED u ETA x", "QUEUED u ETA -1", "QUEUED u ETA 9223372037", "NOPE u ETA 5", "")
}

func FuzzParseBusy(f *testing.F) {
	fuzzReply(f, ParseBusy, "BUSY cnn.com/index.html RETRY 30", "BUSY u RETRY x", "BUSY u RETRY -1", "BUSY u RETRY 9223372037", "QUEUED u RETRY 5", "")
}
