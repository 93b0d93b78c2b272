//go:build race

package modem

// raceEnabled tells the allocation pins they run under the race
// detector, where sync.Pool randomly drops Puts (by design, to widen
// race coverage) and pooled scratch is re-made at random:
// TestModulateAllocsFlat failed 1 run in 10 there and is skipped,
// TestDemodulateAllocsFlat (1 in 45) gets bounds measured for this mode.
// The non-race leg keeps both strict.
const raceEnabled = true
