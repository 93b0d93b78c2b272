package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
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
// TestFFTCorrelatorMatchesCrossCorrelate, ...). A function referenced
// from a pin test pins every same-package function it calls,
// transitively: the equivalence run exercises those callees
// byte-for-byte through it.
var EquivPin = &Analyzer{Name: "equivpin", Run: perPackage(runEquivPin)}

// pinTestName marks test functions that compare against a reference
// implementation even when they live outside *_equiv_test.go files.
var pinTestName = regexp.MustCompile(`Equiv|Parity|Matches|Identical|Reference`)

// pinTests returns the pin-test code among a package's test files:
// every *_equiv_test.go and *parity* file whole, and the body of every
// other test whose name matches pinTestName. equiv reports whether a
// pin file was among them. deadcode roots liveness in the same code.
func pinTests(fset *token.FileSet, files []*ast.File) (nodes []ast.Node, equiv bool) {
	for _, f := range files {
		base := filepath.Base(fset.Position(f.Pos()).Filename)
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
	return nodes, equiv
}

func runEquivPin(pass *Pass) {
	nodes, hasEquiv := pinTests(pass.Fset, pass.Pkg.TestFiles)
	if !hasEquiv {
		return
	}
	referenced := make(map[string]bool)
	for _, n := range nodes {
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				referenced[id.Name] = true
			}
			return true
		})
	}

	// Transitive closure: a declaration whose name a pin test references
	// pins every same-package function or method it reaches.
	info := pass.Pkg.Info
	decls := make(map[*types.Func]*ast.FuncDecl)
	var roots []*types.Func
	for _, f := range pass.Pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if obj, ok := info.Defs[fd.Name].(*types.Func); ok {
				decls[obj] = fd
				if referenced[fd.Name.Name] {
					roots = append(roots, obj)
				}
			}
		}
	}
	pinned := make(map[*types.Func]bool)
	var mark func(fn *types.Func)
	mark = func(fn *types.Func) {
		if pinned[fn] {
			return
		}
		pinned[fn] = true
		fd, ok := decls[fn]
		if !ok {
			return
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if f := callee(call, info); f != nil && f.Pkg() == pass.Pkg.Types {
				if _, local := decls[f]; local {
					mark(f)
				}
			}
			return true
		})
	}
	for _, r := range roots {
		mark(r)
	}

	for _, f := range pass.Pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv != nil || !fd.Name.IsExported() {
				continue
			}
			obj, _ := info.Defs[fd.Name].(*types.Func)
			if obj != nil && pinned[obj] {
				continue
			}
			pass.Report(fd.Name.Pos(), "exported function %s is not reachable from any equivalence/parity test; pin it against the reference implementation or add a reasoned sonic:ignore", fd.Name.Name)
		}
	}
}
