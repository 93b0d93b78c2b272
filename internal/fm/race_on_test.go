//go:build race

package fm

// raceEnabled loosens or skips the allocation bounds under the race
// detector, where sync.Pool drops a quarter of Puts by design and each
// dropped buffer is re-made on the next call. The non-race leg keeps
// them strict.
const raceEnabled = true
