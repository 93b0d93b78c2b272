//go:build race

package artifact

// raceEnabled skips the byte bounds under the race detector, whose
// instrumentation changes what a call allocates. The non-race leg keeps
// them strict.
const raceEnabled = true
