// Package namedpin has no *_equiv_test.go, but one of its tests is
// named as a comparison against a reference, which puts the package
// under the rule: deleting a pin file does not disarm it.
package namedpin

// Solve is pinned through the test helper the pin test calls.
func Solve(x int) int { return x + 1 }

// Unpinned is exported and only a test with no pin name calls it.
func Unpinned() int { return 3 } // want: not reachable from any equivalence/parity test
