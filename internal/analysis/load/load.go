// Package load turns `go list -export` output into parsed, type-checked
// packages for the analyzers — a small stand-in for golang.org/x/tools'
// go/packages, built only on the standard library. Type information for
// imports (both standard-library and this module's own packages) comes from
// the compiler's export data, produced as a side effect of `go list
// -export`, so no source outside the analyzed packages is ever re-parsed.
package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// A Package is one parsed and type-checked target package.
type Package struct {
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	// Files are the package's non-test source files, parsed with comments.
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// TypeErrors collects type-checking problems (the package is still
	// returned; callers decide whether to analyze it anyway).
	TypeErrors []error
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	Dir        string
	ImportPath string
	Export     string
	GoFiles    []string
	Standard   bool
	DepOnly    bool
	ImportMap  map[string]string
	Error      *struct{ Err string }
}

// Packages loads the packages matching the patterns (plus type information
// for their dependencies) and returns them sorted by import path. `go list`
// runs in dir, so the patterns resolve in the module that contains it ("" is
// the current directory).
func Packages(dir string, patterns ...string) ([]*Package, error) {
	args := append([]string{"list", "-e", "-export", "-deps", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}

	exports := map[string]string{}
	var targets []*listPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		p := new(listPkg)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if p.DepOnly || p.Standard {
			continue
		}
		if p.Error != nil {
			return nil, fmt.Errorf("go list: %s: %s", p.ImportPath, p.Error.Err)
		}
		targets = append(targets, p)
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].ImportPath < targets[j].ImportPath })

	fset := token.NewFileSet()
	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	})

	var pkgs []*Package
	for _, t := range targets {
		pkg, err := check(fset, t.ImportPath, t.Dir, t.GoFiles, importerFor(gc, t.ImportMap))
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// Exports resolves the given import paths (and their dependencies) to
// compiler export-data files via `go list -export`. Used to type-check
// fixture packages that import real module or standard-library packages.
func Exports(paths ...string) (map[string]string, error) {
	exports := map[string]string{}
	if len(paths) == 0 {
		return exports, nil
	}
	args := append([]string{"list", "-e", "-export", "-deps", "-json"}, paths...)
	cmd := exec.Command("go", args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		p := new(listPkg)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	return exports, nil
}

// FromDir parses and type-checks every .go file in dir as a package with
// the given import path, resolving imports through the export map (see
// Exports). This is how the analysistest harness loads testdata fixture
// packages, which live outside the module proper but may import real
// packages.
func FromDir(dir, importPath string, exports map[string]string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var goFiles []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			goFiles = append(goFiles, e.Name())
		}
	}
	if len(goFiles) == 0 {
		return nil, fmt.Errorf("load: no .go files in %s", dir)
	}
	sort.Strings(goFiles)
	fset := token.NewFileSet()
	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	})
	return check(fset, importPath, dir, goFiles, importerFor(gc, nil))
}

// importerFor wraps the shared export-data importer with a package's import
// map (vendoring/test renames; usually empty here).
func importerFor(gc types.Importer, importMap map[string]string) types.Importer {
	return importerFunc(func(path string) (*types.Package, error) {
		if mapped, ok := importMap[path]; ok {
			path = mapped
		}
		if path == "unsafe" {
			return types.Unsafe, nil
		}
		return gc.Import(path)
	})
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// check parses and type-checks one package's files.
func check(fset *token.FileSet, importPath, dir string, goFiles []string, imp types.Importer) (*Package, error) {
	pkg := &Package{ImportPath: importPath, Dir: dir, Fset: fset}
	for _, name := range goFiles {
		path := name
		if !filepath.IsAbs(path) {
			path = filepath.Join(dir, name)
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("parsing %s: %v", path, err)
		}
		pkg.Files = append(pkg.Files, f)
	}
	conf := types.Config{
		Importer: imp,
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	pkg.Info = NewInfo()
	// Type-check under the package's true path so scoped analyzers match.
	tpkg, _ := conf.Check(importPath, fset, pkg.Files, pkg.Info) // errors collected via conf.Error
	pkg.Types = tpkg
	return pkg, nil
}

// NewInfo returns a types.Info with every map the analyzers consult.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
}

// IsTestFile reports whether the file's name marks it as a test file.
func IsTestFile(fset *token.FileSet, f *ast.File) bool {
	return strings.HasSuffix(fset.Position(f.Package).Filename, "_test.go")
}
