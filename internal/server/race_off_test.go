//go:build !race

package server

// raceEnabled mirrors race_on_test.go for normal builds.
const raceEnabled = false
