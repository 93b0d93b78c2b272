package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// DeadCode reports every function, method and type that no root
// reaches: the main of every main package (binaries, examples, the
// benchmark) and every init and package-level var or const. Tests are
// no roots, pin tests included, so a reference copy that only a pin
// names lives in the pin's test files. It judges only the packages of
// the run, so run it over ./...
var DeadCode = &Analyzer{Name: "deadcode", Run: runDeadCode}

func runDeadCode(pass *Pass) {
	var roots []root
	for _, pkg := range pass.Pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if isEntry(pkg, d) {
						roots = append(roots, root{pkg.Info, d})
					}
				case *ast.GenDecl:
					if d.Tok == token.VAR || d.Tok == token.CONST {
						roots = append(roots, root{pkg.Info, d})
					}
				}
			}
		}
	}
	for d, live := range reach(pass.Pkgs, roots) {
		if !live && d.name != "_" {
			pass.Report(d.pos, "%s is reached from no main, init or package-level var; reach it from one or delete it", d.name)
		}
	}
}

// root is code the reachability walk starts from, with the type
// information its identifiers resolve through.
type root struct {
	info *types.Info
	node ast.Node
}

// decl is one function, method or type declaration.
type decl struct {
	pkg  *Package
	node ast.Node // *ast.FuncDecl or *ast.TypeSpec
	pos  token.Pos
	name string // "F", "T" or "T.M"
}

// isEntry reports whether fd is an init, or the main of a main package:
// functions the program runs without anything naming them.
func isEntry(pkg *Package, fd *ast.FuncDecl) bool {
	return fd.Recv == nil && (fd.Name.Name == "init" || fd.Name.Name == "main" && pkg.Name == "main")
}

// reach returns every function, method and type declared in pkgs (entry
// functions aside), each with whether the roots reach it. A reached
// declaration reaches what it refers to, and a method of a reached type
// is reached while any interface pkgs can see has a method of that
// name. Only pkgs' declarations are walked, so a walk over one package
// stays inside it.
func reach(pkgs []*Package, roots []root) map[*decl]bool {
	decls := make(map[token.Pos]*decl)             // by the declared name's position
	methods := make(map[token.Pos][]*ast.FuncDecl) // receiver type → its methods
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if isEntry(pkg, d) {
						continue
					}
					name := d.Name.Name
					if d.Recv != nil {
						recv := pkg.Info.Defs[d.Name].Type().(*types.Signature).Recv().Type()
						if ptr, ok := recv.(*types.Pointer); ok {
							recv = ptr.Elem()
						}
						tn := types.Unalias(recv).(*types.Named).Obj()
						methods[tn.Pos()] = append(methods[tn.Pos()], d)
						name = tn.Name() + "." + name
					}
					decls[d.Name.Pos()] = &decl{pkg, d, d.Name.Pos(), name}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						if s, ok := s.(*ast.TypeSpec); ok {
							decls[s.Name.Pos()] = &decl{pkg, s, s.Name.Pos(), s.Name.Name}
						}
					}
				}
			}
		}
	}

	live := make(map[*decl]bool, len(decls))
	for _, d := range decls {
		live[d] = false
	}
	ifaceMethods := interfaceMethodNames(pkgs)
	var mark func(pos token.Pos)
	visit := func(info *types.Info, n ast.Node) {
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && info.Uses[id] != nil {
				mark(info.Uses[id].Pos())
			}
			return true
		})
	}
	mark = func(pos token.Pos) {
		if d := decls[pos]; d != nil && !live[d] {
			live[d] = true
			visit(d.pkg.Info, d.node)
			for _, m := range methods[pos] {
				if ifaceMethods[m.Name.Name] {
					mark(m.Name.Pos())
				}
			}
		}
	}
	for _, r := range roots {
		visit(r.info, r.node)
	}
	return live
}

// interfaceMethodNames collects the method names of every interface
// pkgs can see: those they spell out, and the named ones of the
// packages they import, the universe's error included. errors.Is, As
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
