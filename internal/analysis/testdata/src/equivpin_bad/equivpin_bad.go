// Package equivpin_bad has an equivalence test that pins one entry
// point but leaves other exported functions unreachable from any pin.
package equivpin_bad

import "sonic/internal/analysis/testdata/src/equivpin_bad/kernel"

// Pinned is referenced by the equivalence test.
func Pinned() int { return pinnedHelper() }

func pinnedHelper() int { return 1 }

// Orphan is exported but no equivalence or parity test reaches it.
func Orphan() int { return 2 } // want: not reachable from any equivalence/parity test

// Scale shares its name with the kernel function the pin test calls,
// which does not pin it: pins resolve by type, not by name.
func Scale() int { return kernel.Sum(1, 2) } // want: not reachable from any equivalence/parity test
