package core

// plan_iter_mem_test.go proves the streaming GROUP BY memory contract: a
// grouped query whose key space is 10^6 combinations — ten times what
// ExecuteBatch accepts — streams to completion inside a fixed heap budget,
// because only one chunk of group keys is ever resident.

import (
	"context"
	"math"
	"runtime"
	"testing"

	"repro/internal/ensemble"
	"repro/internal/query"
	"repro/internal/rspn"
	"repro/internal/schema"
	"repro/internal/table"
)

// millionKeyEngine learns a single-table model whose two group columns
// have 1000 distinct values each, so GROUP BY g1, g2 enumerates 10^6
// candidate keys. g2 = 7*g1 mod 1000 is declared as a functional
// dependency: the model itself learns only g1 (one exact leaf — cheap to
// evaluate a million times), g2 enumerates through the FD dictionary, and
// exactly 1000 (g1, g2) pairs are consistent — the non-empty groups.
func millionKeyEngine(t *testing.T) *Engine {
	t.Helper()
	s := &schema.Schema{Tables: []*schema.Table{{
		Name: "wide",
		Columns: []schema.Column{
			{Name: "w_id", Kind: schema.IntKind},
			{Name: "g1", Kind: schema.IntKind},
			{Name: "g2", Kind: schema.IntKind},
		},
		PrimaryKey: "w_id",
		FDs:        []schema.FunctionalDependency{{Determinant: "g1", Dependent: "g2"}},
	}}}
	tab := table.New(s.Table("wide"))
	for i := 0; i < 1000; i++ {
		tab.AppendRow(table.Int(i), table.Int(i), table.Int((7*i)%1000))
	}
	fd, err := rspn.BuildFD(tab, s.Table("wide").FDs[0])
	if err != nil {
		t.Fatal(err)
	}
	fds := []rspn.FD{fd}
	opts := rspn.DefaultLearnOptions()
	cols := rspn.LearnColumns(s, tab, []string{"wide"}, fds)
	r, err := rspn.Learn(context.Background(), tab, []string{"wide"}, nil, cols, fds, opts)
	if err != nil {
		t.Fatal(err)
	}
	ens := ensemble.NewManual(s, map[string]*table.Table{"wide": tab},
		[]*rspn.RSPN{r}, ensemble.DefaultConfig())
	return New(ens)
}

// TestGroupIterMillionKeysBoundedMemory drains a 10^6-key GROUP BY through
// the streaming iterator and asserts the live heap never grows past a
// fixed budget (the eager entry, which would have to hold every row,
// refuses the key space outright, which the test also pins down).
func TestGroupIterMillionKeysBoundedMemory(t *testing.T) {
	e := millionKeyEngine(t)
	q := query.Query{Aggregate: query.Count, Tables: []string{"wide"},
		GroupBy: []string{"g1", "g2"}}
	p, err := e.Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	// The eager entry must refuse this key space, not try to hold it.
	if _, err := p.ExecuteQuery(context.Background(), ExecOpts{}, q); err == nil {
		t.Fatal("ExecuteQuery accepted a million-key group-by")
	}

	const heapBudget = 64 << 20 // bytes of allowed live-heap growth
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	baseline := ms.HeapAlloc

	it, err := p.ExecuteGroupsIter(context.Background(), ExecOpts{}, q, 0)
	if err != nil {
		t.Fatal(err)
	}
	rows := 0
	var peak uint64
	for it.Next() {
		g := it.Group()
		rows++
		// Each consistent (g1, 7*g1 mod 1000) pair holds exactly one row.
		if math.Abs(g.Estimate.Value-1) > 1e-6 {
			t.Fatalf("group %v estimated %v rows, want 1", g.Key, g.Estimate.Value)
		}
		if rows%100 == 0 {
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > peak {
				peak = ms.HeapAlloc
			}
		}
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > peak {
		peak = ms.HeapAlloc
	}
	if rows != 1000 {
		t.Fatalf("streamed %d non-empty groups, want the 1000 FD-consistent pairs", rows)
	}
	if peak > baseline && peak-baseline > heapBudget {
		t.Fatalf("live heap grew %d bytes during streaming (budget %d)",
			peak-baseline, heapBudget)
	}
}
