// Package equivpin_ok shows the compliant shapes: direct pins,
// transitive pins through a pinned caller or an unexported helper,
// pins from a Matches-named test outside the equiv file, and a
// reasoned ignore.
package equivpin_ok

// Encode is pinned directly by the equivalence test.
func Encode() int { return Transform() + 1 }

// Transform is pinned transitively: the equivalence run exercises it
// through Encode.
func Transform() int { return 1 }

// Decode is pinned by a Matches-named parity test in the plain test
// file.
func Decode() int { return 2 }

// roundTrip is the helper the equivalence test calls.
func roundTrip() int { return Inflate() - 1 }

// Inflate is pinned only through roundTrip.
func Inflate() int { return 4 }

// Knob is deliberately unpinned, with an audited reason.
func Knob() int { return 3 } //sonic:ignore equivpin tuning knob, not a kernel
