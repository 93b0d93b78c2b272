package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Path-sensitive tracking of span handles: spanend follows each
// StartSpan/StartChild result to its End(). The walk is a recursive
// descent over the statement tree that merges the handle's state across
// branches — a deliberately small approximation of a CFG that handles the
// repo's idioms (early error returns, defer, branch-local End+return,
// handle reuse via reassignment) without an x/tools dependency.
//
// The approximation is conservative toward silence: any flow the walker
// cannot prove (the handle escapes into a closure, struct, channel, or
// another variable; branches disagree about whether it ended) stops
// tracking rather than reporting, so every finding is a path that
// provably misses its End().

// trackState is the status of the tracked span along the current path.
type trackState int

const (
	stLive  trackState = iota // started, End() still owed
	stEnded                   // ended; a second End() is a bug
	stDone                    // escaped or ambiguous: stop checking
)

// pathState carries the span's state plus whether a deferred End() is
// pending (a pending defer satisfies every later exit).
type pathState struct {
	track    trackState
	deferred bool
}

// flowChecker follows one span variable through one statement list.
type flowChecker struct {
	pass *Pass
	info *types.Info
	obj  types.Object
	what string // `span "sp"`, used in messages
}

// scan is the classification of one statement's contact with obj.
type scan struct {
	ends   []token.Pos // obj.End() calls
	escape bool        // obj's value leaves local tracking
}

func (c *flowChecker) isObjIdent(e ast.Expr) bool {
	id, ok := unparen(e).(*ast.Ident)
	return ok && (c.info.Uses[id] == c.obj || c.info.Defs[id] == c.obj)
}

// endsObj reports whether call is obj.End().
func (c *flowChecker) endsObj(call *ast.CallExpr) bool {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	return ok && isSpanEnd(call) && c.isObjIdent(sel.X)
}

// scanNode classifies every contact with obj in the subtree, excluding
// nested function literals (reported as escapes when they mention obj —
// the closure may run at any time, so tracking stops).
func (c *flowChecker) scanNode(n ast.Node, s *scan) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(nd ast.Node) bool {
		switch x := nd.(type) {
		case *ast.FuncLit:
			if c.mentions(x) {
				s.escape = true
			}
			return false
		case *ast.CallExpr:
			if c.endsObj(x) {
				s.ends = append(s.ends, x.Pos())
				return false
			}
			// Another method call on obj (sp.StartChild): a use, not an
			// escape.
			if sel, ok := unparen(x.Fun).(*ast.SelectorExpr); ok && c.isObjIdent(sel.X) {
				for _, a := range x.Args {
					c.scanNode(a, s)
				}
				return false
			}
		case *ast.SelectorExpr:
			return !c.isObjIdent(x.X)
		case *ast.Ident:
			if c.isObjIdent(x) {
				s.escape = true
			}
		}
		return true
	})
}

// mentions reports whether the subtree references obj at all.
func (c *flowChecker) mentions(n ast.Node) bool {
	found := false
	ast.Inspect(n, func(nd ast.Node) bool {
		if id, ok := nd.(*ast.Ident); ok && c.isObjIdent(id) {
			found = true
		}
		return !found
	})
	return found
}

// containsEnd reports whether any call in the subtree (including inside
// function literals — used for defer func(){...}()) ends obj.
func (c *flowChecker) containsEnd(n ast.Node) bool {
	found := false
	ast.Inspect(n, func(nd ast.Node) bool {
		if call, ok := nd.(*ast.CallExpr); ok && c.endsObj(call) {
			found = true
		}
		return !found
	})
	return found
}

// applyScan folds one statement's classification into the path state,
// reporting second End()s.
func (c *flowChecker) applyScan(s *scan, st pathState) pathState {
	if st.track == stDone {
		return st
	}
	for _, pos := range s.ends {
		switch {
		case st.track == stEnded:
			c.pass.Report(pos, "%s End()-ed twice on this path", c.what)
			return pathState{track: stDone}
		case st.deferred:
			c.pass.Report(pos, "%s End()-ed here but a deferred End() is already pending", c.what)
			return pathState{track: stDone}
		default:
			st.track = stEnded
		}
	}
	if s.escape && st.track == stLive {
		st.track = stDone
	}
	return st
}

// mergeStates folds branch outcomes. Terminated branches drop out; a
// disagreement between surviving branches stops tracking (conservative
// silence) rather than guessing.
func mergeStates(states []pathState, terms []bool, entry pathState) (pathState, bool) {
	var live []pathState
	for i, st := range states {
		if !terms[i] {
			live = append(live, st)
		}
	}
	if len(live) == 0 {
		return entry, true
	}
	for _, st := range live[1:] {
		if st != live[0] {
			return pathState{track: stDone}, false
		}
	}
	return live[0], false
}

// walkStmts follows obj through a statement list. It returns the state
// at the end of the list and whether every path through it terminated
// (returned or branched away).
func (c *flowChecker) walkStmts(list []ast.Stmt, st pathState) (pathState, bool) {
	for _, stmt := range list {
		var term bool
		st, term = c.walkStmt(stmt, st)
		if term {
			return st, true
		}
	}
	return st, false
}

func (c *flowChecker) walkStmt(stmt ast.Stmt, st pathState) (pathState, bool) {
	switch s := stmt.(type) {
	case *ast.ReturnStmt:
		// Returning obj itself transfers ownership to the caller.
		for _, e := range s.Results {
			if c.isObjIdent(e) {
				return pathState{track: stDone}, true
			}
		}
		var sc scan
		c.scanNode(s, &sc)
		st = c.applyScan(&sc, st)
		if st.track == stLive && !st.deferred {
			c.pass.Report(s.Pos(), "%s is not End()-ed on this return path", c.what)
		}
		return st, true

	case *ast.BranchStmt:
		// break/continue/goto leave this list; treat as terminated so
		// states past the branch are not merged in.
		return st, true

	case *ast.DeferStmt:
		if c.containsEnd(s.Call) {
			if st.track == stEnded || st.deferred {
				c.pass.Report(s.Pos(), "%s End()-ed twice on this path", c.what)
				return pathState{track: stDone}, false
			}
			return pathState{track: stEnded, deferred: true}, false
		}
		if c.mentions(s.Call) {
			return pathState{track: stDone}, false
		}
		return st, false

	case *ast.GoStmt:
		if c.mentions(s.Call) {
			return pathState{track: stDone}, false
		}
		return st, false

	case *ast.AssignStmt:
		return c.walkAssign(s, st), false

	case *ast.IfStmt:
		if s.Init != nil {
			st, _ = c.walkStmt(s.Init, st)
		}
		var sc scan
		c.scanNode(s.Cond, &sc)
		st = c.applyScan(&sc, st)
		thenSt, thenTerm := c.walkStmts(s.Body.List, st)
		elseSt, elseTerm := st, false
		if s.Else != nil {
			elseSt, elseTerm = c.walkStmt(s.Else, st)
		}
		return mergeStates([]pathState{thenSt, elseSt}, []bool{thenTerm, elseTerm}, st)

	case *ast.BlockStmt:
		return c.walkStmts(s.List, st)

	case *ast.LabeledStmt:
		return c.walkStmt(s.Stmt, st)

	case *ast.ForStmt:
		if s.Init != nil {
			st, _ = c.walkStmt(s.Init, st)
		}
		var sc scan
		c.scanNode(s.Cond, &sc)
		c.scanNode(s.Post, &sc)
		st = c.applyScan(&sc, st)
		bodySt, _ := c.walkStmts(s.Body.List, st)
		return afterLoop(st, bodySt), false

	case *ast.RangeStmt:
		var sc scan
		c.scanNode(s.X, &sc)
		st = c.applyScan(&sc, st)
		bodySt, _ := c.walkStmts(s.Body.List, st)
		return afterLoop(st, bodySt), false

	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		return c.walkSwitch(stmt, st)

	default:
		var sc scan
		c.scanNode(stmt, &sc)
		return c.applyScan(&sc, st), false
	}
}

// afterLoop reconciles the state around a loop body that may run zero
// or many times: if the body changed the state at all, the result is
// ambiguous and tracking stops; an untouched body keeps the entry state.
func afterLoop(entry, body pathState) pathState {
	if body == entry {
		return entry
	}
	return pathState{track: stDone}
}

// walkSwitch merges the clause bodies of a switch/type-switch/select.
// A switch without a default may fall past every clause, so the entry
// state joins the merge.
func (c *flowChecker) walkSwitch(stmt ast.Stmt, st pathState) (pathState, bool) {
	var body *ast.BlockStmt
	hasDefault := false
	var sc scan
	switch s := stmt.(type) {
	case *ast.SwitchStmt:
		if s.Init != nil {
			st, _ = c.walkStmt(s.Init, st)
		}
		c.scanNode(s.Tag, &sc)
		body = s.Body
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			st, _ = c.walkStmt(s.Init, st)
		}
		c.scanNode(s.Assign, &sc)
		body = s.Body
	case *ast.SelectStmt:
		body = s.Body
	}
	st = c.applyScan(&sc, st)
	var states []pathState
	var terms []bool
	for _, clause := range body.List {
		var list []ast.Stmt
		switch cl := clause.(type) {
		case *ast.CaseClause:
			hasDefault = hasDefault || cl.List == nil
			list = cl.Body
		case *ast.CommClause:
			hasDefault = hasDefault || cl.Comm == nil
			list = cl.Body
		}
		cs, ct := c.walkStmts(list, st)
		states = append(states, cs)
		terms = append(terms, ct)
	}
	if !hasDefault || len(states) == 0 {
		states = append(states, st)
		terms = append(terms, false)
	}
	return mergeStates(states, terms, st)
}

// walkAssign handles assignments: reassigning the tracked variable with
// a fresh start while the old span is live loses the old span
// (stream.go's handle reuse must End() first); any other overwrite stops
// tracking.
func (c *flowChecker) walkAssign(s *ast.AssignStmt, st pathState) pathState {
	var sc scan
	objLHS := -1
	for i, lhs := range s.Lhs {
		if c.isObjIdent(lhs) {
			objLHS = i
		} else {
			c.scanNode(lhs, &sc)
		}
	}
	for i, rhs := range s.Rhs {
		if i == objLHS && len(s.Lhs) == len(s.Rhs) {
			continue // the expression assigned into obj: classified below
		}
		c.scanNode(rhs, &sc)
	}
	st = c.applyScan(&sc, st)
	if objLHS < 0 {
		return st
	}
	if len(s.Lhs) == len(s.Rhs) {
		if call, ok := unparen(s.Rhs[objLHS]).(*ast.CallExpr); ok && isSpanStart(call) {
			if st.deferred {
				// The deferred End() will run on the NEW span (a method
				// call's receiver is evaluated when the defer runs); too
				// subtle to model — stop.
				return pathState{track: stDone}
			}
			if st.track == stLive {
				c.pass.Report(s.Pos(), "%s reassigned before it is End()-ed; the previous value leaks", c.what)
			}
			return pathState{track: stLive}
		}
	}
	return pathState{track: stDone}
}

// forEachSpanStart finds the span handles started by an assignment in
// list or in any block nested in it (but not in function literals, which
// funcsOf yields as bodies of their own), and calls fn with the handle,
// the statements that follow the start in its list, and whether it was
// bound with := (then its scope ends with that list, so reaching the end
// of the list while live is a leak even without a return).
func forEachSpanStart(list []ast.Stmt, info *types.Info, fn func(obj types.Object, name string, rest []ast.Stmt, declared bool, scopeEnd token.Pos)) {
	startsIn(list, info, fn)
	for _, stmt := range list {
		ast.Inspect(stmt, func(n ast.Node) bool {
			switch b := n.(type) {
			case *ast.FuncLit:
				return false
			case *ast.BlockStmt:
				startsIn(b.List, info, fn)
			}
			return true
		})
	}
}

// startsIn is forEachSpanStart for the statements of list itself.
func startsIn(list []ast.Stmt, info *types.Info, fn func(obj types.Object, name string, rest []ast.Stmt, declared bool, scopeEnd token.Pos)) {
	for i, stmt := range list {
		as, ok := stmt.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			continue
		}
		for j, rhs := range as.Rhs {
			call, ok := unparen(rhs).(*ast.CallExpr)
			if !ok || !isSpanStart(call) {
				continue
			}
			id, ok := unparen(as.Lhs[j]).(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			obj, declared := info.Defs[id], true
			if obj == nil {
				obj, declared = info.Uses[id], false
			}
			if obj == nil {
				continue
			}
			fn(obj, id.Name, list[i+1:], declared, list[len(list)-1].End())
		}
	}
}
