package analysis

import (
	"go/ast"
	"path/filepath"
	"regexp"
	"strings"
)

// EquivPin keeps optimized kernels pinned to their reference copies: in
// any package that carries a *_equiv_test.go (the byte-identical
// equivalence pin convention), every exported top-level function must
// be exercised by a pin test — directly, or through a pinned caller. A
// new exported kernel entry point that no equivalence test reaches is
// exactly how an optimization drifts from the reference implementation
// unnoticed.
//
// Pin tests are recognized two ways, matching the repo's conventions:
// everything in a *_equiv_test.go or *parity* test file counts, and so
// does any test function whose name declares a comparison against a
// reference (TestFFTPlanBitIdenticalToDirect,
// TestFFTCorrelatorMatchesCrossCorrelate, ...). What a pin test refers
// to is pinned, and so is what that refers to, transitively, within the
// package: deadcode's walk from the pin tests alone, confined to the
// package, so a call into another package pins nothing there.
var EquivPin = &Analyzer{Name: "equivpin", Run: perPackage(runEquivPin)}

// pinTestName marks test functions that compare against a reference
// implementation even when they live outside *_equiv_test.go files.
// check.sh's GOMAXPROCS=1 leg selects tests by the same words
// (TestSerialLegSelectsPinTests).
var pinTestName = regexp.MustCompile(`Equiv|Parity|Matches|Identical|Reference`)

// pinRoots returns the pin-test code among the pass package's test
// files, typed with its in-package tests: every *_equiv_test.go and
// *parity* file whole, and the body of every other test whose name
// matches pinTestName. equiv reports whether a pin file was among them.
func pinRoots(pass *Pass) (roots []root, equiv bool) {
	var nodes []ast.Node
	for _, f := range pass.Pkg.TestFiles {
		base := filepath.Base(pass.Fset.Position(f.Pos()).Filename)
		if strings.HasSuffix(base, "equiv_test.go") || strings.Contains(base, "parity") {
			equiv = true
			nodes = append(nodes, f)
			continue
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil && strings.HasPrefix(fd.Name.Name, "Test") && pinTestName.MatchString(fd.Name.Name) {
				nodes = append(nodes, fd.Body)
			}
		}
	}
	if len(nodes) == 0 {
		return nil, equiv
	}
	info := pass.loader.testInfo(pass.Pkg)
	for _, n := range nodes {
		roots = append(roots, root{info, n})
	}
	return roots, equiv
}

func runEquivPin(pass *Pass) {
	roots, equiv := pinRoots(pass)
	if !equiv {
		return
	}
	for d, pinned := range reach([]*Package{pass.Pkg}, roots) {
		if fd, ok := d.node.(*ast.FuncDecl); ok && !pinned && fd.Recv == nil && fd.Name.IsExported() {
			pass.Report(d.pos, "exported function %s is not reachable from any equivalence/parity test; pin it against the reference implementation or add a reasoned sonic:ignore", d.name)
		}
	}
}
