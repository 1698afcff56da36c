package deepdb_test

// api_test.go is the ratchet on the package's exported surface, next to
// check.sh's option and flag counts: every exported top-level identifier
// and every exported method of an exported type — promoted ones included,
// which is what a consumer can actually call — is listed from the source
// with go/parser and compared with the committed testdata/api.golden. A PR
// that adds, removes or moves one shows it as a diff of that file.
// Regenerate deliberately with
//
//	go test ./deepdb -run TestAPIGolden -update
//
// and say in CHANGES.md why the surface moved; it should only shrink.

import (
	"flag"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var updateAPI = flag.Bool("update", false, "rewrite testdata/api.golden from the current source")

const apiGoldenPath = "testdata/api.golden"

// baseIdent unwraps *T and T[...] to the type's name ("" for anything that
// is not a plain in-package name, e.g. pkg.T).
func baseIdent(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.StarExpr:
		return baseIdent(x.X)
	case *ast.IndexExpr:
		return baseIdent(x.X)
	case *ast.IndexListExpr:
		return baseIdent(x.X)
	case *ast.Ident:
		return x.Name
	}
	return ""
}

// exportedAPI lists the exported surface of the non-test Go files in dir,
// one sorted "kind name" line each; extra declarations (source text without
// the package clause) are parsed as one more file of the package.
func exportedAPI(t *testing.T, dir string, extra string) []string {
	t.Helper()
	fset := token.NewFileSet()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	if extra != "" {
		f, err := parser.ParseFile(fset, "extra.go", "package deepdb\n"+extra, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}

	var lines []string
	var types []string               // exported type names
	methods := map[string][]string{} // declared receiver type -> exported method names
	embeds := map[string][]string{}  // struct type -> in-package embedded type names
	for _, f := range files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				if d.Recv == nil {
					lines = append(lines, "func "+d.Name.Name)
				} else if recv := baseIdent(d.Recv.List[0].Type); recv != "" {
					methods[recv] = append(methods[recv], d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.IsExported() {
								lines = append(lines, strings.ToLower(d.Tok.String())+" "+n.Name)
							}
						}
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							lines = append(lines, "type "+s.Name.Name)
							types = append(types, s.Name.Name)
						}
						if st, ok := s.Type.(*ast.StructType); ok {
							for _, fld := range st.Fields.List {
								if name := baseIdent(fld.Type); len(fld.Names) == 0 && name != "" {
									embeds[s.Name.Name] = append(embeds[s.Name.Name], name)
								}
							}
						}
					}
				}
			}
		}
	}
	// A type's method set: its own methods plus those promoted from the
	// structs it embeds, at any depth.
	var methodSet func(typ string, into map[string]bool)
	methodSet = func(typ string, into map[string]bool) {
		for _, m := range methods[typ] {
			into[m] = true
		}
		for _, e := range embeds[typ] {
			methodSet(e, into)
		}
	}
	for _, typ := range types {
		set := map[string]bool{}
		methodSet(typ, set)
		for m := range set {
			lines = append(lines, "method "+typ+"."+m)
		}
	}
	sort.Strings(lines)
	return lines
}

// TestAPIGolden holds the exported surface to the committed listing.
func TestAPIGolden(t *testing.T) {
	got := strings.Join(exportedAPI(t, ".", ""), "\n") + "\n"
	if *updateAPI {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(apiGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(apiGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("exported surface of package deepdb differs from %s (regenerate with -update and state the reason in CHANGES.md).\ngot:\n%s\nwant:\n%s",
			apiGoldenPath, got, want)
	}
}

// TestAPIGoldenMustFail is the twin: one injected function, one injected
// method on an existing type and one method reaching an exported type only
// through an embedded unexported struct must each break the comparison.
func TestAPIGoldenMustFail(t *testing.T) {
	want, err := os.ReadFile(apiGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]struct{ src, line string }{
		"function":        {"func Injected() {}", "func Injected"},
		"method":          {"func (db *DB) Injected() {}", "method DB.Injected"},
		"promoted-method": {"type Outer struct{ inner }\ntype inner struct{}\nfunc (inner) Injected() {}", "method Outer.Injected"},
	} {
		got := exportedAPI(t, ".", c.src)
		if strings.Join(got, "\n")+"\n" == string(want) {
			t.Errorf("%s: an injected declaration did not change the listing", name)
		}
		if i := sort.SearchStrings(got, c.line); i == len(got) || got[i] != c.line {
			t.Errorf("%s: listing lacks %q", name, c.line)
		}
	}
}
