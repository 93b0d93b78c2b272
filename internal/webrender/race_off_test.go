//go:build !race

package webrender

// raceEnabled mirrors race_on_test.go for normal builds.
const raceEnabled = false
