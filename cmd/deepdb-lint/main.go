// Command deepdb-lint is the repository's invariant multichecker: it runs
// the project-specific analyzers under internal/analysis/… (determinism of
// map iteration, context propagation, hard-coded timeout budgets,
// suppression-directive grammar) over Go packages and fails when any
// unsuppressed finding remains.
//
// Two invocation modes:
//
//	deepdb-lint [-json|-report] ./...        # standalone, loads packages itself
//	go vet -vettool=$(pwd)/deepdb-lint ./... # as a vet tool (unitchecker protocol)
//
// The vet-tool mode makes the suite a drop-in `go vet` pass: the go command
// hands each package's files and export data to the tool, caches results
// per package, and reruns only what changed. The standalone mode is used
// for reports and ad-hoc runs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/ctxloop"
	"repro/internal/analysis/detmap"
	"repro/internal/analysis/directive"
	"repro/internal/analysis/driver"
	"repro/internal/analysis/hardtimeout"
	"repro/internal/analysis/load"
)

// analyzers is the full suite, in report order.
var analyzers = []*analysis.Analyzer{
	detmap.Analyzer,
	ctxloop.Analyzer,
	hardtimeout.Analyzer,
	directive.Analyzer,
}

func main() {
	// The go command probes vet tools before use: `-V=full` must print a
	// version line it can hash into the build cache key, and `-flags` must
	// list the tool's flags (none beyond the standard ones here).
	for _, arg := range os.Args[1:] {
		if arg == "-V=full" || arg == "--V=full" {
			versionHandshake()
			return
		}
		if arg == "-flags" || arg == "--flags" {
			// The go command asks which analyzer flags exist so it can
			// route `go vet -<flag>` arguments; this tool defines none.
			fmt.Println("[]")
			return
		}
	}

	jsonOut := flag.Bool("json", false, "emit findings as JSON")
	report := flag.Bool("report", false, "emit a per-analyzer summary report (never fails)")
	flag.Usage = usage
	flag.Parse()
	args := flag.Args()

	if len(args) == 1 && args[0] == "help" {
		help()
		return
	}
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		// go vet -vettool invocation: one package unit described by a JSON
		// config file.
		unitcheck(args[0])
		return
	}
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}

	pkgs, err := load.Packages("", args...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "deepdb-lint:", err)
		os.Exit(1)
	}
	for _, p := range pkgs {
		// Type errors make analysis unreliable; surface them instead.
		for _, terr := range p.TypeErrors {
			fmt.Fprintf(os.Stderr, "deepdb-lint: %s: %v\n", p.ImportPath, terr)
		}
		if len(p.TypeErrors) > 0 {
			os.Exit(1)
		}
	}
	findings, err := driver.Run(pkgs, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "deepdb-lint:", err)
		os.Exit(1)
	}
	switch {
	case *report:
		printReport(findings)
	case *jsonOut:
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if findings == nil {
			findings = []driver.Finding{}
		}
		enc.Encode(findings) //nolint:errcheck // stdout
		if len(findings) > 0 {
			os.Exit(1)
		}
	default:
		for _, f := range findings {
			fmt.Println(f)
		}
		if len(findings) > 0 {
			os.Exit(1)
		}
	}
}

// printReport renders a per-analyzer breakdown (for `make lint-fix-report`)
// and exits 0 regardless of findings: the report is for planning fixes, not
// gating.
func printReport(findings []driver.Finding) {
	byAnalyzer := map[string][]driver.Finding{}
	for _, f := range findings {
		byAnalyzer[f.Analyzer] = append(byAnalyzer[f.Analyzer], f)
	}
	fmt.Printf("deepdb-lint report: %d finding(s)\n", len(findings))
	for _, a := range analyzers {
		fs := byAnalyzer[a.Name]
		fmt.Printf("\n%s (%d)\n", a.Name, len(fs))
		for _, f := range fs {
			fmt.Printf("  %s:%d:%d %s\n", f.File, f.Line, f.Col, f.Message)
		}
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage:
  deepdb-lint [-json|-report] <packages>   standalone (e.g. deepdb-lint ./...)
  go vet -vettool=<path-to-deepdb-lint> <packages>
  deepdb-lint help                         describe the analyzers
`)
}

func help() {
	fmt.Println("deepdb-lint enforces this repository's concurrency and determinism invariants:")
	for _, a := range analyzers {
		fmt.Printf("\n%s: %s\n", a.Name, a.Doc)
		if a.Scope != nil {
			scope := make([]string, 0, len(a.Scope))
			for p := range a.Scope {
				scope = append(scope, p)
			}
			sort.Strings(scope)
			fmt.Printf("  scope: %s\n", strings.Join(scope, ", "))
		}
	}
	fmt.Println("\nSuppression: //deepdb:<directive> <justification> on the flagged line or the line above.")
}
