// Package walorder enforces the WAL ordering protocol (PR 6): recovery
// replays the log in LSN order, so LSN order must equal apply order. The
// facade (deepdb) is the one owner of the log and the update queue, and
// one rule covers both:
//
//   - A WAL append must happen inside the write lock's (mutMu) critical
//     section.
//   - A pipeline Enqueue must be dominated by an append under the
//     still-held mutMu, or by a `wal == nil` check — the no-WAL path needs
//     no ordering.
//
// So two producers can never interleave their append and enqueue steps.
// Within each function the analyzer runs a small abstract interpretation
// over the statement list (tracking whether mutMu is held,
// append-under-the-current-mutMu-hold, and wal-nil-ness refined by
// `if db.wal == nil` branches) and reports violations of either half.
//
// Suppress a reviewed exception with //deepdb:walordered <reason>.
package walorder

import (
	"go/ast"

	"repro/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "walorder",
	Doc:  "requires WAL appends under mutMu and pipeline enqueues dominated by one in the same critical section",
	Scope: map[string]bool{
		"repro/deepdb": true,
	},
	Run: run,
}

// state is the abstract machine state at one program point.
type state struct {
	mutHeld  bool // mutMu (the write lock) held
	appended bool // an Append happened under the current mutMu hold
	walNil   int8 // 0 unknown, 1 known nil, 2 known non-nil
}

func merge(a, b state) state {
	out := state{
		mutHeld:  a.mutHeld && b.mutHeld,
		appended: a.appended && b.appended,
	}
	if a.walNil == b.walNil {
		out.walNil = a.walNil
	}
	return out
}

func run(pass *analysis.Pass) error {
	w := &walker{pass: pass}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
				w.block(fn.Body.List, state{})
			}
		}
	}
	return nil
}

type walker struct {
	pass *analysis.Pass
}

// block interprets a statement list from st, returning the fall-through
// state and whether every path through the list terminates (returns).
func (w *walker) block(stmts []ast.Stmt, st state) (state, bool) {
	for _, s := range stmts {
		var terminated bool
		st, terminated = w.stmt(s, st)
		if terminated {
			return st, true
		}
	}
	return st, false
}

func (w *walker) stmt(s ast.Stmt, st state) (state, bool) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		return w.scanExprs(st, s.X), false
	case *ast.AssignStmt:
		st = w.scanExprs(st, s.Rhs...)
		return w.scanExprs(st, s.Lhs...), false
	case *ast.ReturnStmt:
		return w.scanExprs(st, s.Results...), true
	case *ast.DeferStmt:
		// A deferred Unlock of the write lock keeps it held for the rest of
		// the function body, so it does not change the current state; other
		// deferred calls are scanned for violations with the entry state.
		if w.mutMuOp(s.Call) == "Unlock" {
			return st, false
		}
		return w.scanExprs(st, s.Call), false
	case *ast.GoStmt:
		// A goroutine body starts with no lock and no append history.
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			w.block(lit.Body.List, state{})
			return st, false
		}
		return w.scanExprs(st, s.Call), false
	case *ast.IfStmt:
		if s.Init != nil {
			st, _ = w.stmt(s.Init, st)
		}
		st = w.scanExprs(st, s.Cond)
		thenSt, elseSt := st, st
		if nilness := w.walNilCond(s.Cond); nilness != 0 {
			thenSt.walNil = nilness
			elseSt.walNil = 3 - nilness // the complementary fact
		}
		thenOut, thenTerm := w.block(s.Body.List, thenSt)
		elseOut, elseTerm := elseSt, false
		if s.Else != nil {
			elseOut, elseTerm = w.stmt(s.Else, elseSt)
		}
		switch {
		case thenTerm && elseTerm:
			return st, true
		case thenTerm:
			return elseOut, false
		case elseTerm:
			return thenOut, false
		default:
			return merge(thenOut, elseOut), false
		}
	case *ast.BlockStmt:
		return w.block(s.List, st)
	case *ast.ForStmt:
		if s.Init != nil {
			st, _ = w.stmt(s.Init, st)
		}
		if s.Cond != nil {
			st = w.scanExprs(st, s.Cond)
		}
		bodyOut, _ := w.block(s.Body.List, st)
		if s.Post != nil {
			bodyOut, _ = w.stmt(s.Post, bodyOut)
		}
		// The loop may run zero or many times: keep only facts that hold
		// both ways.
		return merge(st, bodyOut), false
	case *ast.RangeStmt:
		st = w.scanExprs(st, s.X)
		bodyOut, _ := w.block(s.Body.List, st)
		return merge(st, bodyOut), false
	case *ast.SwitchStmt:
		if s.Init != nil {
			st, _ = w.stmt(s.Init, st)
		}
		if s.Tag != nil {
			st = w.scanExprs(st, s.Tag)
		}
		return w.cases(s.Body, st)
	case *ast.TypeSwitchStmt:
		return w.cases(s.Body, st)
	case *ast.SelectStmt:
		return w.cases(s.Body, st)
	case *ast.LabeledStmt:
		return w.stmt(s.Stmt, st)
	case *ast.IncDecStmt:
		return w.scanExprs(st, s.X), false
	case *ast.SendStmt:
		st = w.scanExprs(st, s.Value)
		return w.scanExprs(st, s.Chan), false
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					st = w.scanExprs(st, vs.Values...)
				}
			}
		}
		return st, false
	}
	return st, false
}

// cases interprets each case clause independently from the entry state and
// merges the fall-through states. Without a default clause the switch
// itself may fall through with the entry state, so that is merged in too;
// termination is never claimed (conservative).
func (w *walker) cases(body *ast.BlockStmt, st state) (state, bool) {
	out := st
	first := true
	hasDefault := false
	for _, c := range body.List {
		var stmts []ast.Stmt
		switch c := c.(type) {
		case *ast.CaseClause:
			stmts = c.Body
			hasDefault = hasDefault || c.List == nil
		case *ast.CommClause:
			stmts = c.Body
			hasDefault = hasDefault || c.Comm == nil
		default:
			continue
		}
		caseOut, term := w.block(stmts, st)
		if term {
			continue
		}
		if first {
			out, first = caseOut, false
		} else {
			out = merge(out, caseOut)
		}
	}
	if !hasDefault {
		out = merge(out, st)
	}
	return out, false
}

// scanExprs folds the effect of every call in the expressions (in source
// order) into the state, reporting violations as they are found. Function
// literals are interpreted with a fresh state: they may run at any time.
func (w *walker) scanExprs(st state, exprs ...ast.Expr) state {
	for _, e := range exprs {
		if e == nil {
			continue
		}
		ast.Inspect(e, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				w.block(lit.Body.List, state{})
				return false
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			// Arguments evaluate before the call itself.
			for _, arg := range call.Args {
				st = w.scanExprs(st, arg)
			}
			st = w.call(call, st)
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
				st = w.scanExprs(st, sel.X)
			}
			return false
		})
	}
	return st
}

// call applies one call's effect to the state.
func (w *walker) call(call *ast.CallExpr, st state) state {
	if op := w.mutMuOp(call); op != "" {
		st.mutHeld = op == "Lock"
		st.appended = false
		return st
	}
	switch {
	case w.isWALAppend(call):
		if !st.mutHeld && !w.pass.Suppressed(call.Pos(), "walordered") {
			w.pass.Reportf(call.Pos(), "WAL append outside the mutMu critical section: concurrent writers could interleave append and enqueue, breaking LSN order == apply order")
		}
		if st.mutHeld {
			st.appended = true
		}
	case w.isEnqueue(call):
		if st.walNil != 1 && !(st.mutHeld && st.appended) && !w.pass.Suppressed(call.Pos(), "walordered") {
			w.pass.Reportf(call.Pos(), "pipeline enqueue not dominated by a WAL append under mutMu (or a wal == nil check): a crash would replay a different order than was applied")
		}
	}
	return st
}

// mutMuOp matches Lock/Unlock on the write lock: a method call whose
// receiver chain ends in a sync.Mutex field or variable named mutMu. It
// returns the operation, or "".
func (w *walker) mutMuOp(call *ast.CallExpr) string {
	recv, method := analysis.MethodCall(call)
	if method != "Lock" && method != "Unlock" {
		return ""
	}
	var name string
	switch r := recv.(type) {
	case *ast.Ident:
		name = r.Name
	case *ast.SelectorExpr:
		name = r.Sel.Name
	}
	if name != "mutMu" || !analysis.NamedType(w.pass.TypesInfo.TypeOf(recv), "sync", "Mutex") {
		return ""
	}
	return method
}

// isWALAppend matches Append calls on internal/wal.Log.
func (w *walker) isWALAppend(call *ast.CallExpr) bool {
	recv, method := analysis.MethodCall(call)
	return method == "Append" && analysis.NamedType(w.pass.TypesInfo.TypeOf(recv), "internal/wal", "Log")
}

// isEnqueue matches Enqueue calls on internal/pipeline.Pipeline.
func (w *walker) isEnqueue(call *ast.CallExpr) bool {
	recv, method := analysis.MethodCall(call)
	if method != "Enqueue" {
		return false
	}
	return analysis.NamedType(w.pass.TypesInfo.TypeOf(recv), "internal/pipeline", "Pipeline")
}

// walNilCond recognizes `X.wal == nil` (returns 1) and `X.wal != nil`
// (returns 2) where the wal field is an internal/wal.Log pointer.
func (w *walker) walNilCond(cond ast.Expr) int8 {
	be, ok := cond.(*ast.BinaryExpr)
	if !ok {
		return 0
	}
	var other ast.Expr
	if isNil(be.X) {
		other = be.Y
	} else if isNil(be.Y) {
		other = be.X
	} else {
		return 0
	}
	sel, ok := other.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "wal" {
		return 0
	}
	if !analysis.NamedType(w.pass.TypesInfo.TypeOf(other), "internal/wal", "Log") {
		return 0
	}
	switch be.Op.String() {
	case "==":
		return 1
	case "!=":
		return 2
	}
	return 0
}

func isNil(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}
