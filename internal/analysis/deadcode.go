package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// DeadCode reports every function, method and type that no root
// reaches: the main of every main package (binaries, examples, the
// benchmark), every init and package-level var or const, and what a pin
// test refers to (equivpin's rule, resolved by type, so a reference copy
// stays only while its own pin names it). A live declaration makes live
// what it refers to, and a method of a live type stays live while any
// interface in the program has a method of that name. It judges only the
// packages of the run, so run it over ./...
var DeadCode = &Analyzer{Name: "deadcode", Run: runDeadCode}

// deadDecl is one function, method or type declaration.
type deadDecl struct {
	pkg  *Package
	node ast.Node // *ast.FuncDecl or *ast.TypeSpec
	name string   // "F", "T" or "T.M"
}

func runDeadCode(pass *Pass) {
	decls := make(map[token.Pos]*deadDecl)         // by the declared name's position
	methods := make(map[token.Pos][]*ast.FuncDecl) // receiver type → its methods
	live := make(map[token.Pos]bool)
	var mark func(pos token.Pos)
	visit := func(info *types.Info, n ast.Node) {
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && info.Uses[id] != nil {
				mark(info.Uses[id].Pos())
			}
			return true
		})
	}
	ifaceMethods := interfaceMethodNames(pass.Pkgs)
	mark = func(pos token.Pos) {
		if d := decls[pos]; d != nil && !live[pos] {
			live[pos] = true
			visit(d.pkg.Info, d.node)
			for _, m := range methods[pos] {
				if ifaceMethods[m.Name.Name] {
					mark(m.Name.Pos())
				}
			}
		}
	}

	var roots []func()
	for _, pkg := range pass.Pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					name := d.Name.Name
					if d.Recv == nil && (name == "init" || name == "main" && pkg.Name == "main") {
						roots = append(roots, func() { visit(pkg.Info, d) })
						continue
					}
					if d.Recv != nil {
						recv := pkg.Info.Defs[d.Name].Type().(*types.Signature).Recv().Type()
						if ptr, ok := recv.(*types.Pointer); ok {
							recv = ptr.Elem()
						}
						tn := types.Unalias(recv).(*types.Named).Obj()
						methods[tn.Pos()] = append(methods[tn.Pos()], d)
						name = tn.Name() + "." + name
					}
					decls[d.Name.Pos()] = &deadDecl{pkg, d, name}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							decls[s.Name.Pos()] = &deadDecl{pkg, s, s.Name.Name}
						case *ast.ValueSpec:
							roots = append(roots, func() { visit(pkg.Info, s) })
						}
					}
				}
			}
		}
		if nodes, _ := pinTests(pass.Fset, pkg.TestFiles); len(nodes) > 0 {
			info := pass.loader.testInfo(pkg)
			for _, n := range nodes {
				roots = append(roots, func() { visit(info, n) })
			}
		}
	}
	for _, root := range roots {
		root()
	}
	for pos, d := range decls {
		if !live[pos] && d.name != "_" {
			pass.Report(pos, "%s is reached from no main, init, package-level var or pin test; delete it or add a reasoned sonic:ignore", d.name)
		}
	}
}

// interfaceMethodNames collects the method names of every interface the
// program can see: those its packages spell out, and the named ones of
// the packages they import, the universe's error included. errors.Is, As
// and Unwrap assert interfaces that have no name, so theirs are given.
func interfaceMethodNames(pkgs []*Package) map[string]bool {
	names := map[string]bool{"Is": true, "As": true, "Unwrap": true}
	add := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok {
			for i := range it.NumMethods() {
				names[it.Method(i).Name()] = true
			}
		}
	}
	scopes := []*types.Scope{types.Universe}
	for _, pkg := range pkgs {
		for _, imp := range append([]*types.Package{pkg.Types}, pkg.Types.Imports()...) {
			scopes = append(scopes, imp.Scope())
		}
		for _, tv := range pkg.Info.Types {
			add(tv.Type)
		}
	}
	for _, scope := range scopes {
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
	}
	return names
}
