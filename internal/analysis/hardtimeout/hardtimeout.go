// Package hardtimeout flags hard-coded time budgets on the failure-handling
// paths (PR 9). A literal duration at a timeout sink — `time.Sleep(250 *
// time.Millisecond)`, `context.WithTimeout(ctx, 10*time.Second)`, an
// `http.Client{Timeout: …}` literal — is a magic number that silently caps
// how long a retry, probe or shutdown may take, and it is exactly the class
// of bug satellite 1 of this PR fixed (a client-wide 10s Timeout that
// overrode every caller's context deadline). Time budgets must instead be
// named: a documented package constant or a configuration field, so the
// value has one home, a rationale, and an override path. Sites where a
// literal is genuinely right carry a reviewed justification:
//
//	//deepdb:hardtimeout <why this literal needs no name>
//
// on the flagged line or directly above it. Only production code in the
// hardened packages is checked (test files are excluded by the framework,
// and internal/fault — whose whole job is configuring delays — is out of
// scope). Named constants pass by construction: the analyzer looks for
// numeric basic literals inside the sink argument, so `shutdownTimeout`
// passes while `10 * time.Second` does not.
package hardtimeout

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "hardtimeout",
	Doc: "flags literal durations at timeout sinks (time.Sleep, time.After, " +
		"context.WithTimeout, http.Client.Timeout) that are neither named " +
		"constants nor annotated //deepdb:hardtimeout <reason>",
	Scope: map[string]bool{
		"repro/internal/wal":      true,
		"repro/internal/pipeline": true,
		"repro/deepdb":            true,
		"repro/cmd/deepdb":        true,
	},
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				name, arg := sinkArg(pass, n)
				if name == "" || !hasNumericLiteral(arg) {
					return true
				}
				if pass.Suppressed(n.Pos(), "hardtimeout") {
					return true
				}
				pass.Reportf(n.Pos(), "hard-coded duration in %s: lift it into a named, documented constant or config field, or annotate //deepdb:hardtimeout <reason>", name)
			case *ast.CompositeLit:
				if !analysis.NamedType(pass.TypesInfo.TypeOf(n), "net/http", "Client") {
					return true
				}
				for _, el := range n.Elts {
					kv, ok := el.(*ast.KeyValueExpr)
					if !ok {
						continue
					}
					key, ok := kv.Key.(*ast.Ident)
					if !ok || key.Name != "Timeout" || !hasNumericLiteral(kv.Value) {
						continue
					}
					if pass.Suppressed(kv.Pos(), "hardtimeout") {
						continue
					}
					pass.Reportf(kv.Pos(), "hard-coded duration in http.Client.Timeout: lift it into a named, documented constant or config field, or annotate //deepdb:hardtimeout <reason>")
				}
			}
			return true
		})
	}
	return nil
}

// sinkArg recognizes the timeout sinks and returns the sink's display name
// plus the duration argument to inspect ("" / nil if call is not a sink).
func sinkArg(pass *analysis.Pass, call *ast.CallExpr) (string, ast.Expr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", nil
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return "", nil
	}
	switch fn.Pkg().Path() {
	case "time":
		if (fn.Name() == "Sleep" || fn.Name() == "After") && len(call.Args) == 1 {
			return "time." + fn.Name(), call.Args[0]
		}
	case "context":
		if fn.Name() == "WithTimeout" && len(call.Args) == 2 {
			return "context.WithTimeout", call.Args[1]
		}
	}
	return "", nil
}

// hasNumericLiteral reports whether the expression contains an integer or
// float basic literal anywhere in its subtree — `10 * time.Second` and
// `time.Duration(1e9)` do, `shutdownTimeout` and `cfg.probeInterval` do
// not. This is the named-vs-magic test: a numeric literal reaching a sink
// means the budget was written inline rather than given a name.
func hasNumericLiteral(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		if lit, ok := n.(*ast.BasicLit); ok && (lit.Kind == token.INT || lit.Kind == token.FLOAT) {
			found = true
			return false
		}
		return true
	})
	return found
}
