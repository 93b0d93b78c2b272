package analysis

import (
	"go/types"
)

// GlobalRand keeps randomness explicit: non-test code must draw from a
// seeded *rand.Rand (rand.New(rand.NewSource(seed))), never from
// math/rand's package-level source. The equivalence and parity suites
// replay pipelines byte-for-byte; a hidden global source makes corpus
// generation and pseudo-photo rendering irreproducible across runs.
// Constructors (New, NewSource, ...) are allowed — they are how the
// explicit source is built — and methods on *rand.Rand are the goal
// state, so only package-level function and variable uses are flagged.
var GlobalRand = &Analyzer{Name: "globalrand", Run: perPackage(runGlobalRand)}

// randConstructors build explicit sources and are therefore allowed.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

func runGlobalRand(pass *Pass) {
	for id, obj := range pass.Pkg.Info.Uses {
		pkg := obj.Pkg()
		if pkg == nil || (pkg.Path() != "math/rand" && pkg.Path() != "math/rand/v2") {
			continue
		}
		switch o := obj.(type) {
		case *types.Func:
			// Methods (r.Intn on an explicit *rand.Rand) are fine; the
			// global source is reached through package-level functions.
			if o.Type().(*types.Signature).Recv() != nil || randConstructors[o.Name()] {
				continue
			}
			pass.Report(id.Pos(), "rand.%s draws from the math/rand global source; use a seeded *rand.Rand so parity and corpus runs stay deterministic", o.Name())
		case *types.Var:
			if o.IsField() {
				continue
			}
			pass.Report(id.Pos(), "use of math/rand package variable %s; thread an explicit seeded *rand.Rand instead", o.Name())
		}
	}
}
