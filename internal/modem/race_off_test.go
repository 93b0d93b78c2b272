//go:build !race

package modem

// raceEnabled mirrors race_on_test.go for normal builds.
const raceEnabled = false
