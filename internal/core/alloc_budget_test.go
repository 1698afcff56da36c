package core

import (
	"runtime/debug"
	"testing"

	"repro/internal/query"
)

// TestAllocBudgets pins the heap allocations of compiling one plan, as the
// root package's test of the same name pins the facade paths around it (see
// alloc_budget_test.go in the repository root for why counts and not
// times). The budget is raised only with the reason next to it.
func TestAllocBudgets(t *testing.T) {
	// The race detector's instrumentation allocates.
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("allocation counts are not stable under the race detector")
			}
		}
	}
	eng := goldenEngine(t, "imdb1")
	q, err := query.Parse(compile5Table, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Compile(q); err != nil {
		t.Fatal(err)
	}
	// Theorem 2 nested two levels deep over single-table members. 259 while
	// every neighbour lookup rebuilt the FK edge list and the decomposition
	// kept its table sets in maps.
	const budget = 82
	if got := testing.AllocsPerRun(200, func() { _, _ = eng.Compile(q) }); got != budget {
		t.Errorf("compile five-table Case 3: %v allocs/op, budget %v", got, budget)
	}
}
