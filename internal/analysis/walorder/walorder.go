// Package walorder enforces the WAL ordering protocol (PR 6): recovery
// replays the log in LSN order, so LSN order must equal apply order. The
// protocol has two tiers since the shard became the only owner of the log
// and the queue:
//
//   - The shard (internal/shard) touches the raw log and queue. A WAL
//     append must happen under the shard's walMu, and a pipeline Enqueue
//     must be dominated by an append under a still-held walMu (or by a
//     `wal == nil` check — the no-WAL path needs no ordering). The raw
//     Append sits in one helper, appendLocked, whose callers hold walMu:
//     a call to it is checked, and counts, as the append. The one enqueue
//     exception is Submit, the shard's one door into the model: it
//     receives the LSN its caller obtained from Log, and the caller owes
//     the ordering.
//   - The host (deepdb) pays that debt: it logs every mutation group with
//     (*shard.Shard).Log and then submits it with Submit, and both calls
//     must run inside one mutMu critical section, so two producers can
//     never interleave their log and submit steps.
//
// Within each function the analyzer runs a small abstract interpretation
// over the statement list (tracking which order locks are held,
// append-under-the-current-walMu-hold, and wal-nil-ness refined by
// `if s.wal == nil` branches) and reports violations of either tier.
//
// Suppress a reviewed exception with //deepdb:walordered <reason>.
package walorder

import (
	"go/ast"

	"repro/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "walorder",
	Doc: "requires WAL appends under walMu and pipeline enqueues dominated by one in the shard, " +
		"and the host's shard Log/Submit pair to run under mutMu",
	Scope: map[string]bool{
		"repro/deepdb":         true,
		"repro/internal/shard": true,
	},
	Run: run,
}

// submitAllowed names the shard's designated post-log submit function: the
// only place a pipeline Enqueue may sit without a dominating append.
var submitAllowed = map[string]bool{"Submit": true}

// appendInner names the shard's one raw append. It runs under its callers'
// walMu hold, so the Append inside it is exempt by name and a call to it is
// held to the append rule instead.
const appendInner = "appendLocked"

// hostOps are the shard methods that make up the host's log-then-submit
// write.
var hostOps = map[string]bool{"Log": true, "Submit": true}

// state is the abstract machine state at one program point.
type state struct {
	muHeld   bool // walMu held
	mutHeld  bool // mutMu (the host's write lock) held
	appended bool // an Append happened under the current walMu hold
	walNil   int8 // 0 unknown, 1 known nil, 2 known non-nil
}

func merge(a, b state) state {
	out := state{
		muHeld:   a.muHeld && b.muHeld,
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
				w.fn = fn.Name.Name
				w.block(fn.Body.List, state{})
			}
		}
	}
	return nil
}

type walker struct {
	pass *analysis.Pass
	fn   string // name of the function declaration being interpreted
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
		// A deferred Unlock of an order lock keeps it held for the rest of
		// the function body, so it does not change the current state; other
		// deferred calls are scanned for violations with the entry state.
		if _, op := w.muOp(s.Call); op == "Unlock" {
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
	mu, op := w.muOp(call)
	switch {
	case mu == "walMu":
		st.muHeld = op == "Lock"
		st.appended = false
	case mu == "mutMu":
		st.mutHeld = op == "Lock"
	case w.isWALAppend(call):
		if !st.muHeld && w.fn != appendInner && !w.pass.Suppressed(call.Pos(), "walordered") {
			w.pass.Reportf(call.Pos(), "WAL append outside the walMu critical section: concurrent writers could interleave append and enqueue, breaking LSN order == apply order")
		}
		if st.muHeld {
			st.appended = true
		}
	case w.isEnqueue(call):
		if st.walNil != 1 && !(st.muHeld && st.appended) && !submitAllowed[w.fn] && !w.pass.Suppressed(call.Pos(), "walordered") {
			w.pass.Reportf(call.Pos(), "pipeline enqueue not dominated by a WAL append under walMu (or a wal == nil check) outside Submit: a crash would replay a different order than was applied")
		}
	default:
		if op := w.hostOp(call); op != "" && !st.mutHeld && !w.pass.Suppressed(call.Pos(), "walordered") {
			w.pass.Reportf(call.Pos(), "shard %s outside the mutMu critical section: concurrent writers could interleave their log and submit steps, breaking LSN order == apply order", op)
		}
	}
	return st
}

// muOp matches Lock/Unlock on an order lock: a method call whose receiver
// chain ends in a sync.Mutex field or variable named walMu or mutMu. It
// returns that name and the operation, or "", "".
func (w *walker) muOp(call *ast.CallExpr) (mu, op string) {
	recv, method := analysis.MethodCall(call)
	if method != "Lock" && method != "Unlock" {
		return "", ""
	}
	switch r := recv.(type) {
	case *ast.Ident:
		mu = r.Name
	case *ast.SelectorExpr:
		mu = r.Sel.Name
	}
	if mu != "walMu" && mu != "mutMu" {
		return "", ""
	}
	if !analysis.NamedType(w.pass.TypesInfo.TypeOf(recv), "sync", "Mutex") {
		return "", ""
	}
	return mu, method
}

// hostOp matches the host's side of the protocol: a Log or Submit
// call on an internal/shard.Shard made from another package (inside the
// shard package the append rules above govern ordering). It returns the
// method name, or "".
func (w *walker) hostOp(call *ast.CallExpr) string {
	recv, method := analysis.MethodCall(call)
	if !hostOps[method] || analysis.NormPath(w.pass.Pkg.Path()) == "repro/internal/shard" {
		return ""
	}
	if !analysis.NamedType(w.pass.TypesInfo.TypeOf(recv), "internal/shard", "Shard") {
		return ""
	}
	return method
}

// isWALAppend matches Append calls on internal/wal.Log and calls of the
// shard's appendInner wrapper around it.
func (w *walker) isWALAppend(call *ast.CallExpr) bool {
	recv, method := analysis.MethodCall(call)
	switch method {
	case "Append":
		return analysis.NamedType(w.pass.TypesInfo.TypeOf(recv), "internal/wal", "Log")
	case appendInner:
		return analysis.NamedType(w.pass.TypesInfo.TypeOf(recv), "internal/shard", "Shard")
	}
	return false
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
