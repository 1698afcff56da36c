// Package analysistest runs an analyzer over fixture packages and checks
// its diagnostics against `// want` expectations, mirroring (a useful
// subset of) golang.org/x/tools/go/analysis/analysistest.
//
// Fixtures live under <testdata>/src/<import-path>/ and are type-checked
// under that import path, so scoped analyzers see the paths they expect in
// production. Fixture files may import real packages of this module and
// the standard library; their export data is resolved with `go list
// -export`.
//
// Expectations are comments on the line a diagnostic is reported at:
//
//	for k := range m { // want `range over map`
//
// Each backquoted or double-quoted string after `want` is a regular
// expression that must match one diagnostic on that line; diagnostics and
// expectations must match one-to-one per line.
package analysistest

import (
	"go/ast"
	"go/token"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/load"
)

// Run loads the fixture package at <testdata>/src/<importPath>, runs the
// analyzer over it, and reports any mismatch between diagnostics and
// `// want` expectations as test errors.
//
//deepdb:testonly the fixture harness every analyzer's test drives
func Run(t *testing.T, testdata string, a *analysis.Analyzer, importPath string) {
	t.Helper()
	dir := filepath.Join(testdata, "src", filepath.FromSlash(importPath))

	pkg, err := loadFixture(dir, importPath)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	for _, terr := range pkg.TypeErrors {
		t.Errorf("fixture %s does not type-check: %v", importPath, terr)
	}
	if len(pkg.TypeErrors) > 0 {
		t.FailNow()
	}

	wants := parseWants(t, pkg.Fset, pkg.Files)

	var diags []analysis.Diagnostic
	pass := &analysis.Pass{
		Analyzer:   a,
		Fset:       pkg.Fset,
		Files:      pkg.Files,
		Pkg:        pkg.Types,
		TypesInfo:  pkg.Info,
		Directives: analysis.ParseDirectives(pkg.Fset, pkg.Files),
		Report:     func(d analysis.Diagnostic) { diags = append(diags, d) },
	}
	if err := a.Run(pass); err != nil {
		t.Fatalf("%s: %v", a.Name, err)
	}

	// Match diagnostics against expectations line by line.
	for _, d := range diags {
		p := pkg.Fset.Position(d.Pos)
		key := lineKey{filepath.Base(p.Filename), p.Line}
		ws := wants[key]
		matched := false
		for i, w := range ws {
			if !w.used && w.re.MatchString(d.Message) {
				ws[i].used = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s:%d: unexpected diagnostic: %s", key.file, key.line, d.Message)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.used {
				t.Errorf("%s:%d: expected diagnostic matching %q, got none", key.file, key.line, w.re)
			}
		}
	}
}

type lineKey struct {
	file string
	line int
}

type want struct {
	re   *regexp.Regexp
	used bool
}

// loadFixture type-checks the fixture directory under importPath, first
// resolving export data for everything the fixture imports.
func loadFixture(dir, importPath string) (*load.Package, error) {
	// A cheap pre-parse discovers the imports so `go list` can produce
	// their export data before the real type-check.
	pre, err := load.FromDir(dir, importPath, nil)
	if err != nil && pre == nil {
		return nil, err
	}
	seen := map[string]bool{}
	var imports []string
	for _, f := range pre.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil || path == "unsafe" || seen[path] {
				continue
			}
			seen[path] = true
			imports = append(imports, path)
		}
	}
	sort.Strings(imports)
	exports, err := load.Exports(imports...)
	if err != nil {
		return nil, err
	}
	return load.FromDir(dir, importPath, exports)
}

// wantRE extracts the quoted expectations from a `// want …` comment.
var wantRE = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")

// parseWants collects the `// want` expectations of every file, keyed by
// (basename, line).
func parseWants(t *testing.T, fset *token.FileSet, files []*ast.File) map[lineKey][]want {
	t.Helper()
	wants := map[lineKey][]want{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				// Both comment forms carry expectations; the block form
				// lets a want share a line with a //-comment under test.
				text := c.Text
				if cut, ok := strings.CutPrefix(text, "/*"); ok {
					text = strings.TrimSuffix(cut, "*/")
				} else {
					text = strings.TrimPrefix(text, "//")
				}
				rest, ok := strings.CutPrefix(strings.TrimSpace(text), "want ")
				if !ok {
					continue
				}
				p := fset.Position(c.Pos())
				key := lineKey{filepath.Base(p.Filename), p.Line}
				quoted := wantRE.FindAllString(rest, -1)
				if len(quoted) == 0 {
					t.Errorf("%s:%d: malformed want comment: %s", key.file, key.line, c.Text)
					continue
				}
				for _, q := range quoted {
					var pat string
					if q[0] == '`' {
						pat = q[1 : len(q)-1]
					} else {
						var err error
						pat, err = strconv.Unquote(q)
						if err != nil {
							t.Errorf("%s:%d: bad want pattern %s: %v", key.file, key.line, q, err)
							continue
						}
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Errorf("%s:%d: bad want regexp %q: %v", key.file, key.line, pat, err)
						continue
					}
					wants[key] = append(wants[key], want{re: re})
				}
			}
		}
	}
	return wants
}
