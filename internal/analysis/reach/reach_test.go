// Package reach holds the "no code that only tests call" ratchet: every
// function and method of non-test code must be reachable from a main
// package, the benchmark harness's included, or carry a
// //deepdb:testonly <reason> directive. The package has only test files, so
// nothing here ships.
//
// The rules work on go/types objects keyed by full name
// (types.Func.FullName), so two loads of the same package agree and two
// packages' functions of the same name never do:
//
//   - Roots: every main.main and init, every package-level var initializer,
//     and every function carrying a justified //deepdb:testonly directive.
//   - Static edges: every use of a function or method in a live body,
//     through Origin for generics.
//   - Interface dispatch: a method is live when its type implements an
//     interface whose method live code calls, or any standard-library
//     interface that has it (a live value may reach fmt, sort, encoding/json,
//     net/http or io through one).
//   - Facade: an exported function or method of the facade package also
//     needs a live use outside the facade, unless it is an interface method
//     or carries the directive.
package reach

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/load"
)

func TestNoCodeOnlyTestsReach(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", "..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	module := mustLoad(t, root, "repro/...")
	// The harness is a nested module and the only caller of some of the
	// facade and the model, so it is a root like any other main.
	harness := mustLoad(t, filepath.Join(root, "benchmark"), "./...", "repro/...")
	g := walk("repro/deepdb", module, harness)
	for _, f := range g.findings() {
		if f.pkg == "repro/benchmark" || strings.HasPrefix(f.pkg, "repro/benchmark/") {
			continue
		}
		t.Errorf("%s: %s (%d lines) %s; delete it, move it into a _test.go file, "+
			"or annotate it //deepdb:testonly <reason>", f.pos, f.name, f.lines, f.why)
	}
}

// TestFixture runs the rules on testdata, a module whose every case sits
// next to a twin that the rule under test decides the other way.
func TestFixture(t *testing.T) {
	g := walk("fixture/facade", mustLoad(t, "testdata", "./..."))
	var got []string
	for _, f := range g.findings() {
		got = append(got, f.name+" "+f.why)
	}
	want := []string{
		"(fixture/lib.Square).Perimeter " + unreachable,
		"fixture/facade.Internal " + insideOnly,
		"fixture/lib.BareOracle " + unreachable,
		"fixture/lib.Helper " + unreachable,
		"fixture/lib.OnlyFromTest " + unreachable,
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("findings:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

func mustLoad(t *testing.T, dir string, patterns ...string) []*load.Package {
	t.Helper()
	pkgs, err := load.Packages(dir, patterns...)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pkgs {
		for _, err := range p.TypeErrors {
			t.Fatalf("%s: %v", p.ImportPath, err)
		}
	}
	return pkgs
}

const (
	unreachable = "is reached from no main"
	insideOnly  = "is exported by the facade but used only inside it"
)

// A finding is one function or method that breaks a rule.
type finding struct {
	pkg, name, pos string
	lines          int
	why            string
}

// A decl is one function or method declaration of non-test code.
type decl struct {
	pkg *load.Package
	fn  *types.Func
	fd  *ast.FuncDecl
}

// A loaded is what interface dispatch needs of one load; types from two
// loads never implement each other's interfaces.
type loaded struct {
	// offering maps a method's full name to the pointer types whose method
	// set has it, promoted methods included.
	offering map[string][]types.Type
	// ifaces maps a method name to the interfaces that may dispatch to it:
	// every standard-library interface, and each interface whose method
	// live code calls.
	ifaces map[string][]*types.Interface
}

type graph struct {
	facade   string
	decls    map[string][]decl
	loads    map[*token.FileSet]*loaded
	live     map[string]bool
	work     []string
	testonly map[string]bool
	// outside marks facade functions used by live code of another package.
	outside map[string]bool
}

// walk loads the declarations and roots of every load, then marks what the
// roots reach.
func walk(facade string, loads ...[]*load.Package) *graph {
	g := &graph{
		facade:   facade,
		decls:    map[string][]decl{},
		loads:    map[*token.FileSet]*loaded{},
		live:     map[string]bool{},
		testonly: map[string]bool{},
		outside:  map[string]bool{},
	}
	for _, pkgs := range loads {
		g.add(pkgs)
	}
	for changed := true; changed; {
		for len(g.work) > 0 {
			key := g.work[len(g.work)-1]
			g.work = g.work[:len(g.work)-1]
			for _, d := range g.decls[key] {
				g.scan(d.pkg, d.fd)
			}
		}
		changed = false
		for key := range g.decls {
			if !g.live[key] && g.dispatched(key) {
				g.mark(key)
				changed = true
			}
		}
	}
	return g
}

// add records one load's declarations and scans its roots.
func (g *graph) add(pkgs []*load.Package) {
	l := &loaded{offering: map[string][]types.Type{}, ifaces: map[string][]*types.Interface{}}
	g.loads[pkgs[0].Fset] = l
	targets := map[string]bool{}
	for _, p := range pkgs {
		targets[p.ImportPath] = true
	}
	l.addInterface(types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	seen := map[*types.Package]bool{}
	var std func(*types.Package)
	std = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		if !targets[p.Path()] {
			for _, name := range p.Scope().Names() {
				if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() {
					if iface, ok := tn.Type().Underlying().(*types.Interface); ok {
						l.addInterface(iface)
					}
				}
			}
		}
		for _, imp := range p.Imports() {
			std(imp)
		}
	}
	for _, p := range pkgs {
		std(p.Types)
		for _, name := range p.Types.Scope().Names() {
			tn, ok := p.Types.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || named.TypeParams().Len() > 0 || types.IsInterface(named) {
				continue
			}
			ptr := types.NewPointer(named)
			ms := types.NewMethodSet(ptr)
			for i := 0; i < ms.Len(); i++ {
				key := ms.At(i).Obj().(*types.Func).Origin().FullName()
				l.offering[key] = append(l.offering[key], ptr)
			}
		}
		dirs := analysis.ParseDirectives(p.Fset, p.Files)
		for _, f := range p.Files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					fn := p.Info.Defs[d.Name].(*types.Func)
					if d.Recv == nil && d.Name.Name == "init" {
						g.scan(p, d) // several per package, so never keyed
						continue
					}
					key := fn.FullName()
					g.decls[key] = append(g.decls[key], decl{p, fn, d})
					if dir := dirs.At(p.Fset, d.Pos(), "testonly"); dir != nil && dir.Justification != "" {
						g.testonly[key] = true
						g.mark(key)
					}
					if d.Recv == nil && d.Name.Name == "main" && p.Types.Name() == "main" {
						g.mark(key)
					}
				case *ast.GenDecl:
					if d.Tok == token.VAR {
						g.scan(p, d)
					}
				}
			}
		}
	}
}

func (l *loaded) addInterface(iface *types.Interface) {
	for i := 0; i < iface.NumMethods(); i++ {
		name := iface.Method(i).Name()
		for _, known := range l.ifaces[name] {
			if known == iface {
				return
			}
		}
		l.ifaces[name] = append(l.ifaces[name], iface)
	}
}

func (g *graph) mark(key string) {
	if !g.live[key] {
		g.live[key] = true
		g.work = append(g.work, key)
	}
}

// scan follows every function use in n, which belongs to live code of p.
func (g *graph) scan(p *load.Package, n ast.Node) {
	ast.Inspect(n, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		fn, ok := p.Info.Uses[id].(*types.Func)
		if !ok {
			return true
		}
		fn = fn.Origin()
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			if iface, ok := recv.Type().Underlying().(*types.Interface); ok {
				g.loads[p.Fset].addInterface(iface)
				return true
			}
		}
		key := fn.FullName()
		if fn.Pkg() != nil && fn.Pkg().Path() == g.facade && p.ImportPath != g.facade {
			g.outside[key] = true
		}
		g.mark(key)
		return true
	})
}

// dispatched reports whether an interface call may reach the method key.
func (g *graph) dispatched(key string) bool {
	for _, d := range g.decls[key] {
		recv := d.fn.Type().(*types.Signature).Recv()
		if recv == nil {
			return false
		}
		l := g.loads[d.pkg.Fset]
		ifaces := l.ifaces[d.fn.Name()]
		if named, ok := deref(recv.Type()).(*types.Named); ok && named.TypeParams().Len() > 0 {
			// Implements is unspecified for uninstantiated generic types;
			// the method name is the conservative answer.
			return len(ifaces) > 0
		}
		for _, t := range l.offering[key] {
			for _, iface := range ifaces {
				if types.Implements(t, iface) {
					return true
				}
			}
		}
	}
	return false
}

func deref(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// findings lists the rule breakers, sorted by full name.
func (g *graph) findings() []finding {
	var out []finding
	for key, ds := range g.decls {
		d := ds[0]
		why := ""
		switch {
		case !g.live[key]:
			why = unreachable
		case g.facadeAPI(d) && !g.outside[key] && !g.testonly[key] && !g.dispatched(key):
			why = insideOnly
		default:
			continue
		}
		start, end := d.pkg.Fset.Position(d.fd.Pos()), d.pkg.Fset.Position(d.fd.End())
		out = append(out, finding{
			pkg:   d.pkg.ImportPath,
			name:  key,
			pos:   fmt.Sprintf("%s:%d", start.Filename, start.Line),
			lines: end.Line - start.Line + 1,
			why:   why,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// facadeAPI reports whether d is an exported function of the facade, or an
// exported method of one of its exported types.
func (g *graph) facadeAPI(d decl) bool {
	if d.pkg.ImportPath != g.facade || !d.fn.Exported() {
		return false
	}
	recv := d.fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return true
	}
	named, ok := deref(recv.Type()).(*types.Named)
	return ok && named.Obj().Exported()
}
