// Package analysis is a minimal, dependency-free reimplementation of the
// golang.org/x/tools/go/analysis vocabulary, just large enough to host this
// repository's invariant checkers (cmd/deepdb-lint). The build environment
// deliberately has no module dependencies, so the real framework cannot be
// vendored; the subset here keeps the same shape (Analyzer / Pass /
// Diagnostic, a loader, an analysistest-style harness) so the analyzers
// could be ported to x/tools mechanically if a dependency ever becomes
// acceptable.
//
// # Suppression directives
//
// Findings are suppressed site-by-site with a justified directive comment —
// the grammar is
//
//	//deepdb:<directive> <justification>
//
// written flush against the code (no space after //, like //go:build), on
// the flagged line or on its own line directly above it. The justification
// is mandatory: a bare directive does not suppress and is itself flagged by
// the directive analyzer. Each analyzer documents the directive name it
// honors (orderinvariant, nocancel, hardtimeout).
// One more name, testonly, is honored by the reachability test in
// internal/analysis/reach: written above a function declaration, it roots a
// function that only tests call.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer is one invariant checker: a named unit of analysis run over a
// single type-checked package at a time.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and reports.
	Name string
	// Doc is the one-paragraph description `deepdb-lint help` prints.
	Doc string
	// Scope restricts the analyzer to specific package import paths (the
	// invariants it enforces are properties of specific packages, not of Go
	// code in general). A nil Scope means every package. Test-binary
	// variants ("pkg [pkg.test]") are normalized before matching.
	Scope map[string]bool
	// Run performs the analysis and reports findings through the pass.
	Run func(*Pass) error
}

// AppliesTo reports whether the analyzer covers the given package path.
func (a *Analyzer) AppliesTo(pkgPath string) bool {
	if a.Scope == nil {
		return true
	}
	return a.Scope[NormPath(pkgPath)]
}

// NormPath strips the " [pkg.test]" suffix `go vet` appends to the
// in-package test variant, so scoped analyzers treat it like the base
// package.
func NormPath(path string) string {
	if i := strings.IndexByte(path, ' '); i >= 0 {
		return path[:i]
	}
	return path
}

// A Pass carries one package's parsed and type-checked state to an
// analyzer's Run function, plus the Report sink for findings.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files holds the package's non-test source files. Test files are
	// excluded everywhere: the invariants govern production code, and test
	// code routinely does things (unsorted map ranges in assertions, say)
	// that are fine there.
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Directives indexes every //deepdb: comment in Files by position.
	Directives *Directives
	Report     func(Diagnostic)
}

// Reportf reports a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Suppressed reports whether a well-formed (justified) directive with the
// given name covers pos — same line, or the line directly above.
func (p *Pass) Suppressed(pos token.Pos, directive string) bool {
	d := p.Directives.At(p.Fset, pos, directive)
	return d != nil && d.Justification != ""
}

// A Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// DirectiveNames is the set of valid //deepdb: directive names; the
// directive analyzer rejects everything else as a likely typo.
var DirectiveNames = map[string]bool{
	"orderinvariant": true, // detmap: map iteration order provably cannot reach output
	"nocancel":       true, // ctxloop: loop bounds are metadata-sized, not data-sized
	"hardtimeout":    true, // hardtimeout: an inline duration literal is deliberate here
	"testonly":       true, // reach: only tests call this function, and the reason says why it ships
}

// A Directive is one parsed //deepdb:<name> <justification> comment.
type Directive struct {
	Pos           token.Pos
	Name          string
	Justification string
}

// Directives indexes the //deepdb: comments of a package by file and line.
type Directives struct {
	byLine map[string]map[int][]*Directive // filename -> line -> directives
	all    []*Directive
}

// ParseDirectives extracts every //deepdb: comment from the files. Comments
// must be parsed (parser.ParseComments).
func ParseDirectives(fset *token.FileSet, files []*ast.File) *Directives {
	d := &Directives{byLine: map[string]map[int][]*Directive{}}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//deepdb:")
				if !ok {
					continue
				}
				name, just, _ := strings.Cut(text, " ")
				dir := &Directive{
					Pos:           c.Pos(),
					Name:          name,
					Justification: strings.TrimSpace(just),
				}
				pos := fset.Position(c.Pos())
				lines := d.byLine[pos.Filename]
				if lines == nil {
					lines = map[int][]*Directive{}
					d.byLine[pos.Filename] = lines
				}
				lines[pos.Line] = append(lines[pos.Line], dir)
				d.all = append(d.all, dir)
			}
		}
	}
	return d
}

// At returns a directive with the given name covering pos — on the same
// line, or alone on the line directly above — or nil.
func (d *Directives) At(fset *token.FileSet, pos token.Pos, name string) *Directive {
	p := fset.Position(pos)
	for _, line := range []int{p.Line, p.Line - 1} {
		for _, dir := range d.byLine[p.Filename][line] {
			if dir.Name == name {
				return dir
			}
		}
	}
	return nil
}

// All returns every parsed directive in deterministic (position) order.
func (d *Directives) All() []*Directive {
	out := append([]*Directive(nil), d.all...)
	sort.Slice(out, func(i, j int) bool { return out[i].Pos < out[j].Pos })
	return out
}

// ---- shared type matchers ----

// NamedType reports whether t (after stripping pointers and generic
// instantiation) is the named type pkgSuffix.name — e.g.
// ("internal/pipeline", "Pipeline"). Matching by path suffix keeps the
// analyzers applicable to their testdata fixtures, which import the real
// packages.
func NamedType(t types.Type, pkgSuffix, name string) bool {
	for {
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
			continue
		}
		break
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	if obj.Name() != name || obj.Pkg() == nil {
		return false
	}
	path := obj.Pkg().Path()
	return path == pkgSuffix || strings.HasSuffix(path, "/"+pkgSuffix)
}

// IsContext reports whether t is context.Context.
func IsContext(t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}
