//go:build !race

package frame

// raceEnabled mirrors race_on_test.go for normal builds.
const raceEnabled = false
