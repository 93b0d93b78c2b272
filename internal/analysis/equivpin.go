package analysis

import (
	"go/ast"
	"go/token"
	"path/filepath"
	"regexp"
	"strings"
)

// EquivPin keeps optimized kernels pinned to their reference copies: in
// any package that has a pin test, every exported top-level function
// must be exercised by one — directly, or through a pinned caller. A
// new exported kernel entry point that no equivalence test reaches is
// exactly how an optimization drifts from the reference implementation
// unnoticed.
//
// Pin tests are recognized two ways, matching the repo's conventions:
// everything in a *_equiv_test.go or *parity* test file counts, and so
// does any test or fuzz function whose name declares a comparison
// against a reference (TestFFTPlanBitIdenticalToDirect,
// TestFFTConvolverMatchesFIRFilter, ...). Either kind puts the
// package under the rule, so deleting a package's pin file leaves it
// judged by the pin-named tests that remain. What a pin test refers
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
// *parity* file whole, the body of every other test or fuzz function
// whose name matches pinTestName, and the body of every test-file
// helper those bodies call, transitively.
func pinRoots(pass *Pass) []root {
	var nodes []ast.Node
	helpers := make(map[token.Pos]*ast.FuncDecl) // by the declared name's position
	for _, f := range pass.Pkg.TestFiles {
		base := filepath.Base(pass.Fset.Position(f.Pos()).Filename)
		if strings.HasSuffix(base, "equiv_test.go") || strings.Contains(base, "parity") {
			nodes = append(nodes, f)
			continue
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			switch {
			case !ok || fd.Body == nil:
			case isPinTest(fd.Name.Name):
				nodes = append(nodes, fd.Body)
			default:
				helpers[fd.Name.Pos()] = fd
			}
		}
	}
	if len(nodes) == 0 {
		return nil
	}
	info := pass.loader.testInfo(pass.Pkg)
	for i := 0; i < len(nodes); i++ {
		ast.Inspect(nodes[i], func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if obj := info.Uses[id]; obj != nil {
					if fd := helpers[obj.Pos()]; fd != nil {
						delete(helpers, obj.Pos())
						nodes = append(nodes, fd.Body)
					}
				}
			}
			return true
		})
	}
	roots := make([]root, len(nodes))
	for i, n := range nodes {
		roots[i] = root{info, n}
	}
	return roots
}

// isPinTest reports whether a function name is a test or fuzz target
// named as a comparison against a reference.
func isPinTest(name string) bool {
	return (strings.HasPrefix(name, "Test") || strings.HasPrefix(name, "Fuzz")) && pinTestName.MatchString(name)
}

func runEquivPin(pass *Pass) {
	roots := pinRoots(pass)
	if roots == nil {
		return
	}
	for d, pinned := range reach([]*Package{pass.Pkg}, roots) {
		if fd, ok := d.node.(*ast.FuncDecl); ok && !pinned && fd.Recv == nil && fd.Name.IsExported() {
			pass.Report(d.pos, "exported function %s is not reachable from any equivalence/parity test; pin it against the reference implementation or add a reasoned sonic:ignore", d.name)
		}
	}
}
