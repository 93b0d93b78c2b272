// Package analysis is the driver behind cmd/sonic-vet: a small,
// stdlib-only static-analysis framework (go/parser + go/ast + go/types +
// go/importer — deliberately no x/tools, matching the repo's zero-dep
// policy) plus the project-specific analyzers that mechanically enforce
// the conventions the optimization PRs layered on top of plain Go. Each
// stays only while it catches a planted defect no test catches (DESIGN
// §5d has the ledger):
//
//   - lockscope: no kernel calls (webrender/imagecodec/fm/modem) or
//     blocking I/O while a struct mutex is held (PR 5's off-mutex render
//     discipline);
//   - equivpin: every exported function of a package with a
//     *_equiv_test.go is reached from an equivalence/parity test, so
//     new kernels cannot dodge the byte-identical pin;
//   - globalrand: non-test code never draws from math/rand's global
//     source, keeping parity and equivalence runs deterministic;
//   - deadcode: every function, method and type is reachable from
//     something that ships or from a pin test (ROADMAP aim 2: no code
//     that nothing ships).
//
// Findings print as "file:line: [name] message". A finding is suppressed
// by a "//sonic:ignore name reason" comment on the same or the preceding
// line; suppressions require a reason and are reported in the run
// summary so they stay auditable. deadcode findings cannot be
// suppressed.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Finding is one diagnostic produced by an analyzer.
type Finding struct {
	Analyzer string
	File     string
	Line     int
	Message  string
	// IgnoreReason is the reason string of the sonic:ignore directive
	// that suppressed this finding (set only on suppressed findings).
	IgnoreReason string
}

// String renders the canonical "file:line: [name] message" form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.File, f.Line, f.Analyzer, f.Message)
}

// Analyzer is one named check over the packages of a run.
type Analyzer struct {
	Name string
	Run  func(*Pass)
}

// Pass carries one analyzer's run over every loaded package. Analyzers
// read the syntax and type information and call Report.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Pkgs     []*Package // every package of the run
	Pkg      *Package   // the package a per-package check is looking at

	loader   *Loader
	findings []Finding
}

// perPackage adapts a check of one package to Analyzer.Run.
func perPackage(run func(*Pass)) func(*Pass) {
	return func(p *Pass) {
		for _, p.Pkg = range p.Pkgs {
			run(p)
		}
	}
}

// Report records a finding at pos.
func (p *Pass) Report(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	p.findings = append(p.findings, Finding{
		Analyzer: p.Analyzer.Name,
		File:     position.Filename,
		Line:     position.Line,
		Message:  fmt.Sprintf(format, args...),
	})
}

// All returns every registered analyzer, in report order.
func All() []*Analyzer {
	return []*Analyzer{LockScope, EquivPin, GlobalRand, DeadCode}
}

// sortFindings orders findings by file, line, analyzer, message for
// stable output and golden-file comparison.
func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// funcsOf yields every function body of the package's non-test files:
// declared functions and methods plus every function literal. Nested
// literals are yielded on their own so each check stays per-body.
func funcsOf(files []*ast.File, fn func(body *ast.BlockStmt)) {
	for _, f := range files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn(fd.Body)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					fn(lit.Body)
				}
				return true
			})
		}
	}
}

// callee resolves the called function or method object, if any.
func callee(call *ast.CallExpr, info *types.Info) *types.Func {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}

// unparen strips any parentheses around e.
func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}
