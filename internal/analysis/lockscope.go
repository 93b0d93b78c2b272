package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path"
)

// LockScope enforces the off-mutex discipline: while a sync.Mutex or
// sync.RWMutex is held, code must not call into the heavy kernel
// packages (webrender, imagecodec, fm, modem) or perform blocking I/O
// (time.Sleep, net dials/reads, os file ops, os/exec, net/http). The
// mutexes protect queue and cache metadata; render and encode work
// belongs on the pool outside the critical section. Package-local
// helpers are followed transitively, so hiding a kernel call one hop
// away still trips the check.
var LockScope = &Analyzer{Name: "lockscope", Run: perPackage(runLockScope)}

// kernelPkgBases are the package basenames whose calls are forbidden
// under a lock (CPU-heavy DSP/render/codec work).
var kernelPkgBases = map[string]bool{
	"webrender":  true,
	"imagecodec": true,
	"fm":         true,
	"modem":      true,
}

// heavyFuncs lists CPU-heavy functions that must never run inside a
// critical section: page generation and bundle serialization sit on
// the enqueue path, and holding a queue shard's mutex across them
// would serialize the whole stripe; OFDM modulation and the FM
// broadcast chain are the fleet drain's dominant cost, so a mutex held
// across either serializes every tower sharing the lock. Keyed by
// package basename, like kernelPkgBases; entries here take precedence
// over the blanket kernel-package rule so the diagnostic names the
// specific heavy call.
var heavyFuncs = map[string]map[string]bool{
	"corpus": {"Generate": true},
	"core":   {"MarshalBundle": true},
	"modem":  {"Modulate": true},
	"fm":     {"Broadcast": true},
}

// osBlocking lists os package functions and file-method names that hit
// the filesystem.
var osBlocking = map[string]bool{
	"Open": true, "OpenFile": true, "Create": true, "CreateTemp": true,
	"ReadFile": true, "WriteFile": true, "ReadDir": true,
	"Remove": true, "RemoveAll": true, "Rename": true,
	"Mkdir": true, "MkdirAll": true, "MkdirTemp": true,
	"Stat": true, "Lstat": true, "Truncate": true,
	"Read": true, "Write": true, "WriteString": true, "ReadAt": true,
	"WriteAt": true, "Close": true, "Sync": true, "Seek": true,
}

// netBlocking lists net package functions and connection-method names
// that wait on the network.
var netBlocking = map[string]bool{
	"Dial": true, "DialTimeout": true, "DialTCP": true, "DialUDP": true,
	"DialIP": true, "DialUnix": true, "Listen": true, "ListenTCP": true,
	"ListenUDP": true, "ListenPacket": true, "ListenUnix": true,
	"Accept": true, "AcceptTCP": true, "Read": true, "ReadFrom": true,
	"ReadFromUDP": true, "Write": true, "WriteTo": true, "WriteToUDP": true,
	"Close": true, "LookupHost": true, "LookupIP": true, "LookupAddr": true,
	"LookupPort": true, "LookupCNAME": true, "LookupMX": true,
	"LookupTXT": true, "ResolveTCPAddr": true, "ResolveUDPAddr": true,
}

// httpBlocking lists net/http request entry points.
var httpBlocking = map[string]bool{
	"Get": true, "Post": true, "PostForm": true, "Head": true, "Do": true,
}

// forbiddenCallee describes why a call is disallowed under a lock.
func forbiddenCallee(f *types.Func, current *types.Package) (string, bool) {
	pkg := f.Pkg()
	if pkg == nil || pkg == current {
		return "", false
	}
	switch pkg.Path() {
	case "time":
		if f.Name() == "Sleep" {
			return "time.Sleep", true
		}
	case "os/exec":
		return "os/exec." + f.Name(), true
	case "os":
		if osBlocking[f.Name()] {
			return "os." + f.Name(), true
		}
	case "net":
		if netBlocking[f.Name()] {
			return "net." + f.Name(), true
		}
	case "net/http":
		if httpBlocking[f.Name()] {
			return "net/http." + f.Name(), true
		}
	}
	// Heavy-call entries first: modem.Modulate and fm.Broadcast live in
	// kernel packages too, but the specific rule owns the diagnostic.
	if m := heavyFuncs[path.Base(pkg.Path())]; m[f.Name()] {
		return pkg.Path() + "." + f.Name() + " (heavy call)", true
	}
	if kernelPkgBases[path.Base(pkg.Path())] {
		return pkg.Path() + "." + f.Name() + " (kernel package)", true
	}
	return "", false
}

// isMutexType reports whether t is sync.Mutex, sync.RWMutex, or a
// pointer to one.
func isMutexType(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	o := n.Obj()
	if o.Pkg() == nil || o.Pkg().Path() != "sync" {
		return false
	}
	return o.Name() == "Mutex" || o.Name() == "RWMutex"
}

// mutexCall matches <mutex expr>.Lock/RLock/Unlock/RUnlock() and
// returns the rendered mutex expression as its identity.
func mutexCall(call *ast.CallExpr, info *types.Info) (key, method string, ok bool) {
	sel, isSel := unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return "", "", false
	}
	if !isMutexType(info.TypeOf(sel.X)) {
		return "", "", false
	}
	return types.ExprString(sel.X), sel.Sel.Name, true
}

// lockScope runs the held-region walk for one package.
type lockScope struct {
	pass *Pass
	info *types.Info

	// localBad memoizes, per package-local function, the first forbidden
	// call reachable from it (directly or through other locals).
	localBad  map[*types.Func]string
	localSeen map[*types.Func]bool
	decls     map[*types.Func]*ast.FuncDecl
}

func runLockScope(pass *Pass) {
	ls := &lockScope{
		pass:      pass,
		info:      pass.Pkg.Info,
		localBad:  make(map[*types.Func]string),
		localSeen: make(map[*types.Func]bool),
		decls:     make(map[*types.Func]*ast.FuncDecl),
	}
	for _, f := range pass.Pkg.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				if obj, ok := ls.info.Defs[fd.Name].(*types.Func); ok {
					ls.decls[obj] = fd
				}
			}
		}
	}
	funcsOf(pass.Pkg.Files, func(body *ast.BlockStmt) {
		ls.walkHeld(body.List, make(map[string]token.Pos))
	})
}

// reach returns how fn (a package-local function) reaches a forbidden
// call, if it does, following local calls transitively.
func (ls *lockScope) reach(fn *types.Func) (string, bool) {
	if desc, ok := ls.localBad[fn]; ok {
		return desc, desc != ""
	}
	if ls.localSeen[fn] {
		return "", false // cycle: assume clean on the back edge
	}
	ls.localSeen[fn] = true
	defer delete(ls.localSeen, fn)

	fd, ok := ls.decls[fn]
	if !ok {
		ls.localBad[fn] = ""
		return "", false
	}
	result := ""
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if result != "" {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		f := callee(call, ls.info)
		if f == nil {
			return true
		}
		if desc, bad := forbiddenCallee(f, ls.pass.Pkg.Types); bad {
			result = desc
			return false
		}
		if f.Pkg() == ls.pass.Pkg.Types && f != fn {
			if desc, bad := ls.reach(f); bad {
				result = fmt.Sprintf("%s (via %s)", desc, f.Name())
				return false
			}
		}
		return true
	})
	ls.localBad[fn] = result
	return result, result != ""
}

// walkHeld scans a statement list tracking which mutexes are held.
// Branch bodies see a copy of the held set; a branch that unlocks and
// returns does not release the fall-through path.
func (ls *lockScope) walkHeld(list []ast.Stmt, held map[string]token.Pos) {
	for _, stmt := range list {
		switch s := stmt.(type) {
		case *ast.ExprStmt:
			if call, ok := unparen(s.X).(*ast.CallExpr); ok {
				if key, method, ok := mutexCall(call, ls.info); ok {
					switch method {
					case "Lock", "RLock":
						held[key] = call.Pos()
					case "Unlock", "RUnlock":
						delete(held, key)
					}
					continue
				}
			}
			ls.checkStmt(s, held)
		case *ast.DeferStmt:
			// defer mu.Unlock() keeps the region held to function end —
			// exactly what the scan models by not deleting. A deferred
			// closure runs after return; skip its body.
			if _, method, ok := mutexCall(s.Call, ls.info); ok && (method == "Unlock" || method == "RUnlock") {
				continue
			}
			ls.checkStmt(s, held)
		case *ast.GoStmt:
			// The goroutine body runs off this lock; its own locks are
			// checked when funcsOf visits the literal.
		case *ast.BlockStmt:
			ls.walkHeld(s.List, held)
		case *ast.IfStmt:
			if s.Init != nil {
				ls.checkStmt(s.Init, held)
			}
			ls.checkExpr(s.Cond, held)
			ls.walkHeld(s.Body.List, copyHeld(held))
			if s.Else != nil {
				ls.walkHeld([]ast.Stmt{s.Else}, copyHeld(held))
			}
		case *ast.ForStmt:
			if s.Init != nil {
				ls.checkStmt(s.Init, held)
			}
			if s.Cond != nil {
				ls.checkExpr(s.Cond, held)
			}
			ls.walkHeld(s.Body.List, copyHeld(held))
		case *ast.RangeStmt:
			ls.checkExpr(s.X, held)
			ls.walkHeld(s.Body.List, copyHeld(held))
		case *ast.SwitchStmt:
			if s.Init != nil {
				ls.checkStmt(s.Init, held)
			}
			if s.Tag != nil {
				ls.checkExpr(s.Tag, held)
			}
			for _, cl := range s.Body.List {
				if cc, ok := cl.(*ast.CaseClause); ok {
					ls.walkHeld(cc.Body, copyHeld(held))
				}
			}
		case *ast.TypeSwitchStmt:
			for _, cl := range s.Body.List {
				if cc, ok := cl.(*ast.CaseClause); ok {
					ls.walkHeld(cc.Body, copyHeld(held))
				}
			}
		case *ast.SelectStmt:
			for _, cl := range s.Body.List {
				if cc, ok := cl.(*ast.CommClause); ok {
					ls.walkHeld(cc.Body, copyHeld(held))
				}
			}
		case *ast.LabeledStmt:
			ls.walkHeld([]ast.Stmt{s.Stmt}, held)
		default:
			ls.checkStmt(stmt, held)
		}
	}
}

func copyHeld(m map[string]token.Pos) map[string]token.Pos {
	out := make(map[string]token.Pos, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func (ls *lockScope) checkStmt(stmt ast.Stmt, held map[string]token.Pos) {
	ls.checkExpr(stmt, held)
}

// checkExpr reports forbidden calls in a subtree while any mutex is
// held, skipping function literals (they execute elsewhere).
func (ls *lockScope) checkExpr(root ast.Node, held map[string]token.Pos) {
	if len(held) == 0 || root == nil {
		return
	}
	ast.Inspect(root, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		f := callee(call, ls.info)
		if f == nil {
			return true
		}
		desc, bad := forbiddenCallee(f, ls.pass.Pkg.Types)
		if !bad && f.Pkg() == ls.pass.Pkg.Types {
			if via, reached := ls.reach(f); reached {
				desc, bad = fmt.Sprintf("%s (via %s)", via, f.Name()), true
			}
		}
		if bad {
			key := ""
			for k := range held {
				if key == "" || k < key {
					key = k
				}
			}
			lock := ls.pass.Fset.Position(held[key])
			ls.pass.Report(call.Pos(), "call to %s while %s is held (locked at line %d); move it off the critical section", desc, key, lock.Line)
		}
		return true
	})
}
