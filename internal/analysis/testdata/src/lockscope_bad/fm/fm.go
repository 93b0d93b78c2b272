// Package fm stands in for the real FM broadcast chain in lockscope
// fixtures.
package fm

// FMLink stands in for the radio hop; Transmit is the FM chain's entry
// point.
type FMLink struct{}

// Transmit is a method, so no heavy-call entry names it: the
// kernel-package rule reports it.
func (*FMLink) Transmit(audio []float64, rate int) []float64 { return nil }

// RSSI is cheap and allowed under a lock.
func RSSI() float64 { return 0 }
