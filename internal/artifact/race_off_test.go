//go:build !race

package artifact

// raceEnabled mirrors race_on_test.go for normal builds.
const raceEnabled = false
