//go:build race

package webrender

// raceEnabled selects the allocation bound TestRenderWarmAllocs measured
// for race builds, where sync.Pool drops a quarter of Puts by design.
const raceEnabled = true
