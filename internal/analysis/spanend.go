package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// SpanEnd checks that every telemetry span handle obtained from
// StartSpan or StartChild is End()-ed on all control-flow paths —
// by defer or explicitly before each return — and that a live handle is
// not overwritten by a fresh StartChild (the broadcast chain reuses one
// handle variable per stage, which only balances if each stage ends the
// previous span first).
var SpanEnd = &Analyzer{Name: "spanend", Run: runSpanEnd}

func isSpanStart(call *ast.CallExpr) bool {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	return sel.Sel.Name == "StartSpan" || sel.Sel.Name == "StartChild"
}

func isSpanEnd(call *ast.CallExpr) bool {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "End" && len(call.Args) == 0
}

func runSpanEnd(pass *Pass) {
	info := pass.Pkg.Info
	funcsOf(pass.Pkg.Files, func(body *ast.BlockStmt) {
		forEachSpanStart(body.List, info, func(obj types.Object, name string, rest []ast.Stmt, declared bool, scopeEnd token.Pos) {
			c := &flowChecker{pass: pass, info: info, obj: obj, what: fmt.Sprintf("span %q", name)}
			st, term := c.walkStmts(rest, pathState{track: stLive})
			if !term && st.track == stLive && !st.deferred && declared {
				pass.Report(scopeEnd, "%s is not End()-ed before its scope ends", c.what)
			}
		})
	})
}
