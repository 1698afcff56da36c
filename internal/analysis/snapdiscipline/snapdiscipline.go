// Package snapdiscipline enforces the snapshot-publication discipline
// (PR 5): serving state lives in immutable snapshots behind one atomic
// pointer, reads go through a single Load, and every mutation is applied
// to a copy-on-write clone and published — never written in place, because
// a published snapshot may be in the hands of any number of lock-free
// readers.
//
// Three rules, scoped to the facade (deepdb), the one package that holds
// such a pointer and owns apply-and-publish:
//
//  1. The `snap` atomic.Pointer field may appear only as the receiver of
//     .Load() or .Store(…); and .Store is confined to the one publication
//     function (publishLocked), which also publishes the constructor's
//     first snapshot. Anything else — taking its address, copying it,
//     Swap/CompareAndSwap, a constructor that stores directly — bypasses
//     the single-publisher protocol.
//  2. Fields of the snapshot struct are assigned only in composite
//     literals; a field write after construction mutates a possibly
//     published value under readers.
//  3. Known-mutating ensemble methods (Apply, Insert, AttachTables,
//     EnableDrift) must not be invoked on state reached from a snapshot
//     load; such values must be laundered through a CoW clone
//     (CloneForUpdate, SwapMember) first.
//     The drift tracker is exempt: it is documented as shared by pointer
//     across clones with its own synchronization.
//
// Suppress a reviewed exception with //deepdb:snapshotsafe <reason>.
package snapdiscipline

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "snapdiscipline",
	Doc: "enforces snapshot discipline in the facade: atomic snapshot loads only, " +
		"no writes to published snapshots, mutations only through CoW clones",
	Scope: map[string]bool{
		"repro/deepdb": true,
	},
	Run: run,
}

// storeAllowed names the only function that may publish (Store) a
// snapshot: the publication helper, whose contract documents the lock
// requirement (the constructor's first view goes through it too).
const storeAllowed = "publishLocked"

// mutating are the *ensemble.Ensemble methods that change model state
// in place.
var mutating = map[string]bool{
	"Apply":        true,
	"Insert":       true,
	"AttachTables": true,
	"EnableDrift":  true,
}

// laundering are the Ensemble methods whose result is a fresh CoW clone —
// safe to mutate and publish.
var laundering = map[string]bool{
	"CloneForUpdate": true,
	"SwapMember":     true,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkSnapAccess(pass, fn)
			checkSnapshotWrites(pass, fn)
			checkTaintedMutations(pass, fn)
		}
	}
	return nil
}

// isSnapField reports whether e selects a struct field named "snap" of type
// sync/atomic.Pointer[…].
func isSnapField(pass *analysis.Pass, e ast.Expr) bool {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "snap" {
		return false
	}
	s, ok := pass.TypesInfo.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return false
	}
	return analysis.NamedType(s.Type(), "sync/atomic", "Pointer")
}

// checkSnapAccess enforces rule 1.
func checkSnapAccess(pass *analysis.Pass, fn *ast.FuncDecl) {
	// Collect the parent of every snap-field selector to see how it is used.
	var stack []ast.Node
	ast.Inspect(fn, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return false
		}
		stack = append(stack, n)
		if !isSnapField(pass, nodeExpr(n)) {
			return true
		}
		// Walk up: the only legal enclosing shape is a call through a
		// .Load / .Store selector.
		if len(stack) >= 3 {
			if method, ok := stack[len(stack)-2].(*ast.SelectorExpr); ok {
				if call, ok := stack[len(stack)-3].(*ast.CallExpr); ok && call.Fun == method {
					switch method.Sel.Name {
					case "Load":
						return true
					case "Store":
						if fn.Name.Name == storeAllowed || pass.Suppressed(n.Pos(), "snapshotsafe") {
							return true
						}
						pass.Reportf(n.Pos(), "snapshot published outside the publication function publishLocked: call publishLocked (under its lock) instead of %s.Store", render(nodeExpr(n)))
						return true
					}
				}
			}
		}
		if pass.Suppressed(n.Pos(), "snapshotsafe") {
			return true
		}
		pass.Reportf(n.Pos(), "direct use of the snap atomic pointer (only %s.Load() and publication via publishLocked are allowed)", render(nodeExpr(n)))
		return true
	})
}

func nodeExpr(n ast.Node) ast.Expr {
	e, _ := n.(ast.Expr)
	return e
}

// checkSnapshotWrites enforces rule 2: no field assignment on a value of
// the package's snapshot struct type outside composite literals.
func checkSnapshotWrites(pass *analysis.Pass, fn *ast.FuncDecl) {
	ast.Inspect(fn, func(n ast.Node) bool {
		var lhss []ast.Expr
		switch st := n.(type) {
		case *ast.AssignStmt:
			lhss = st.Lhs
		case *ast.IncDecStmt:
			lhss = []ast.Expr{st.X}
		default:
			return true
		}
		for _, lhs := range lhss {
			sel, ok := lhs.(*ast.SelectorExpr)
			if !ok {
				continue
			}
			if !isSnapshotType(pass, pass.TypesInfo.TypeOf(sel.X)) {
				continue
			}
			if pass.Suppressed(lhs.Pos(), "snapshotsafe") {
				continue
			}
			pass.Reportf(lhs.Pos(), "write to field %s of a snapshot after construction: snapshots are immutable once published — build a new one and publish it via publishLocked", sel.Sel.Name)
		}
		return true
	})
}

// isSnapshotType matches the scoped package's own struct type named
// "snapshot" (by convention the immutable published view), through
// pointers.
func isSnapshotType(pass *analysis.Pass, t types.Type) bool {
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
	return n.Obj().Name() == "snapshot" && n.Obj().Pkg() == pass.Pkg
}

// checkTaintedMutations enforces rule 3 with a small forward taint walk
// per function: snapshot-typed values (and ensembles/slices/fields reached
// from them) are tainted; clone calls launder; mutating ensemble methods
// and field/element writes on tainted values are flagged.
func checkTaintedMutations(pass *analysis.Pass, fn *ast.FuncDecl) {
	tainted := map[types.Object]bool{}

	var exprTainted func(e ast.Expr) bool
	exprTainted = func(e ast.Expr) bool {
		switch e := e.(type) {
		case *ast.Ident:
			if tainted[pass.TypesInfo.ObjectOf(e)] {
				return true
			}
		case *ast.ParenExpr:
			return exprTainted(e.X)
		case *ast.SelectorExpr:
			// The drift tracker is shared by pointer across clones by
			// design; taint stops there.
			if e.Sel.Name == "Drift" {
				return false
			}
			if exprTainted(e.X) {
				return true
			}
		case *ast.IndexExpr:
			return exprTainted(e.X)
		case *ast.StarExpr:
			return exprTainted(e.X)
		case *ast.CallExpr:
			recv, method := analysis.MethodCall(e)
			if method == "" {
				return false
			}
			if laundering[method] && isEnsemble(pass, e.Fun) {
				return false // fresh clone
			}
			// db.snap.Load() / db.snapshotNow() results are snapshots —
			// caught by the type check below via TypeOf.
			_ = recv
		}
		// Any expression of the snapshot type is by definition possibly
		// published.
		return isSnapshotType(pass, pass.TypesInfo.TypeOf(e))
	}

	ast.Inspect(fn, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			// Propagate taint through simple assignments, then check
			// writes through tainted bases.
			if len(n.Lhs) == len(n.Rhs) {
				for i := range n.Lhs {
					if id, ok := n.Lhs[i].(*ast.Ident); ok {
						obj := pass.TypesInfo.ObjectOf(id)
						if obj != nil {
							tainted[obj] = exprTainted(n.Rhs[i])
						}
						continue
					}
					checkWrite(pass, n.Lhs[i], exprTainted)
				}
			} else {
				for _, lhs := range n.Lhs {
					if _, ok := lhs.(*ast.Ident); !ok {
						checkWrite(pass, lhs, exprTainted)
					}
				}
			}
		case *ast.IncDecStmt:
			if _, ok := n.X.(*ast.Ident); !ok {
				checkWrite(pass, n.X, exprTainted)
			}
		case *ast.CallExpr:
			recv, method := analysis.MethodCall(n)
			if method == "" || !mutating[method] || !isEnsemble(pass, n.Fun) {
				return true
			}
			if !exprTainted(recv) {
				return true
			}
			if pass.Suppressed(n.Pos(), "snapshotsafe") {
				return true
			}
			pass.Reportf(n.Pos(), "%s called on an ensemble reached from a published snapshot: clone it first (CloneForUpdate) and publish the clone", method)
		}
		return true
	})
}

// checkWrite flags assignments whose destination is a selector or index
// chain rooted in a tainted value (a structure reachable from a published
// snapshot).
func checkWrite(pass *analysis.Pass, lhs ast.Expr, exprTainted func(ast.Expr) bool) {
	var base ast.Expr
	switch e := lhs.(type) {
	case *ast.SelectorExpr:
		base = e.X
	case *ast.IndexExpr:
		base = e.X
	case *ast.StarExpr:
		base = e.X
	default:
		return
	}
	if !exprTainted(base) {
		return
	}
	if pass.Suppressed(lhs.Pos(), "snapshotsafe") {
		return
	}
	pass.Reportf(lhs.Pos(), "write through %s mutates state reachable from a published snapshot; apply mutations to a CoW clone instead", render(base))
}

// isEnsemble reports whether the selector call's receiver is the
// internal/ensemble.Ensemble type.
func isEnsemble(pass *analysis.Pass, fun ast.Expr) bool {
	sel, ok := fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	return analysis.NamedType(pass.TypesInfo.TypeOf(sel.X), "internal/ensemble", "Ensemble")
}

func render(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return render(e.X) + "." + e.Sel.Name
	case *ast.CallExpr:
		return render(e.Fun) + "()"
	case *ast.IndexExpr:
		return render(e.X) + "[…]"
	}
	return "expression"
}
