//go:build !race

package fm

// raceEnabled mirrors race_on_test.go for normal builds.
const raceEnabled = false
