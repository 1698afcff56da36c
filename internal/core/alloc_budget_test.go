package core

import (
	"context"
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

	// S4.3 streamed through the iterator on a reused plan: 354 candidate
	// keys in two chunks, none live at this scale. 4 253 while the memo
	// lived for one key chunk, the gate bound every variance part and
	// every key rebuilt its binding vector and the whole count tree; 1 681
	// while every evaluation round built a chunk list and an evaluator
	// closure.
	ssb := ssbEngine(t)
	q43, err := query.Parse("SELECT SUM(lo_profit) FROM lineorder JOIN dates JOIN supplier JOIN part "+
		"WHERE s_nation = 7 AND d_year IN (1997, 1998) AND p_category = 14 GROUP BY d_year, p_brand1", nil)
	if err != nil {
		t.Fatal(err)
	}
	p43, err := ssb.Compile(q43)
	if err != nil {
		t.Fatal(err)
	}
	stream := func() {
		it, err := p43.ExecuteGroupsIter(context.Background(), ExecOpts{}, q43, 0)
		if err != nil {
			t.Fatal(err)
		}
		for it.Next() {
		}
		if err := it.Err(); err != nil {
			t.Fatal(err)
		}
	}
	stream()
	const budget43 = 1676
	if got := testing.AllocsPerRun(20, stream); got != budget43 {
		t.Errorf("stream S4.3: %v allocs/op, budget %v", got, budget43)
	}
}
