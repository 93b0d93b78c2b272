//go:build race

package server

// raceEnabled shortens the longest render walks under the race
// detector, where each cold render costs ~3 s on 2 vCPUs. The
// non-race leg keeps them at full length.
const raceEnabled = true
