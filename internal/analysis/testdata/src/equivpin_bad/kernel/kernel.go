// Package kernel is pinned by its own equivalence test, which reaches
// Sum but not Scale. The parent package's pin test calls Scale, and a
// pin confined to its own package pins nothing here.
package kernel

// Sum is pinned by this package's equivalence test.
func Sum(a, b int) int { return a + b }

// Scale is called only from another package's pin test.
func Scale(x int) int { return 2 * x } // want: not reachable from any equivalence/parity test
