// Package sms implements SONIC's uplink (§3.1): users with an SMS
// subscription request webpages by texting a SONIC number with the URL
// and their location; the server acknowledges with a delivery estimate.
// The package provides the GSM 03.38 7-bit alphabet codec,
// concatenated-message segmentation (160 septets per single SMS, 153 per
// concatenated part), the SONIC request/ack message grammar, and an
// in-memory SMSC with configurable delivery latency.
package sms

import (
	"errors"
	"strings"
)

// gsm7Alphabet is the GSM 03.38 default alphabet, indexed by septet
// value. Only the characters SONIC's grammar needs are mapped faithfully;
// everything else round-trips through '?' like a real constrained handset.
var gsm7Alphabet = []rune{
	'@', '£', '$', '¥', 'è', 'é', 'ù', 'ì', 'ò', 'Ç', '\n', 'Ø', 'ø', '\r', 'Å', 'å',
	'Δ', '_', 'Φ', 'Γ', 'Λ', 'Ω', 'Π', 'Ψ', 'Σ', 'Θ', 'Ξ', '\x1b', 'Æ', 'æ', 'ß', 'É',
	' ', '!', '"', '#', '¤', '%', '&', '\'', '(', ')', '*', '+', ',', '-', '.', '/',
	'0', '1', '2', '3', '4', '5', '6', '7', '8', '9', ':', ';', '<', '=', '>', '?',
	'¡', 'A', 'B', 'C', 'D', 'E', 'F', 'G', 'H', 'I', 'J', 'K', 'L', 'M', 'N', 'O',
	'P', 'Q', 'R', 'S', 'T', 'U', 'V', 'W', 'X', 'Y', 'Z', 'Ä', 'Ö', 'Ñ', 'Ü', '§',
	'¿', 'a', 'b', 'c', 'd', 'e', 'f', 'g', 'h', 'i', 'j', 'k', 'l', 'm', 'n', 'o',
	'p', 'q', 'r', 's', 't', 'u', 'v', 'w', 'x', 'y', 'z', 'ä', 'ö', 'ñ', 'ü', 'à',
}

var gsm7Index = func() map[rune]byte {
	m := make(map[rune]byte, len(gsm7Alphabet))
	for i, r := range gsm7Alphabet {
		m[r] = byte(i)
	}
	return m
}()

// SMS size limits (septets).
const (
	SingleLimit = 160
	ConcatLimit = 153 // 160 minus the 7-septet UDH shadow
	// MaxConcatParts bounds a concatenated message (1 byte reference).
	MaxConcatParts = 255
)

// ErrUnencodable is returned when text has no GSM-7 representation at
// all (after '?' substitution nothing remains).
var ErrUnencodable = errors.New("sms: text not encodable in GSM-7")

// ToSeptets converts text to GSM-7 septet values, substituting '?' for
// unsupported runes (as constrained SMS stacks do).
func ToSeptets(text string) []byte {
	out := make([]byte, 0, len(text))
	for _, r := range text {
		v, ok := gsm7Index[r]
		if !ok {
			v = gsm7Index['?']
		}
		out = append(out, v)
	}
	return out
}

// FromSeptets converts septet values back to text.
func FromSeptets(septets []byte) string {
	var b strings.Builder
	for _, s := range septets {
		if int(s) < len(gsm7Alphabet) {
			b.WriteRune(gsm7Alphabet[s])
		} else {
			b.WriteByte('?')
		}
	}
	return b.String()
}

// Segment splits text into SMS parts: one part if it fits in 160
// septets, otherwise concatenated parts of 153 septets each.
func Segment(text string) ([]string, error) {
	septets := ToSeptets(text)
	if len(septets) == 0 {
		return nil, ErrUnencodable
	}
	if len(septets) <= SingleLimit {
		return []string{FromSeptets(septets)}, nil
	}
	var parts []string
	for off := 0; off < len(septets); off += ConcatLimit {
		end := off + ConcatLimit
		if end > len(septets) {
			end = len(septets)
		}
		parts = append(parts, FromSeptets(septets[off:end]))
	}
	if len(parts) > MaxConcatParts {
		return nil, errors.New("sms: message exceeds 255 concatenated parts")
	}
	return parts, nil
}
