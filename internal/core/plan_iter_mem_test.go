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
	"weak"

	"repro/internal/ensemble"
	"repro/internal/query"
	"repro/internal/rspn"
	"repro/internal/schema"
	"repro/internal/spn"
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

// weakBatches is a batchEvaluator that answers in process and keeps a weak
// pointer to every request batch it is handed, so a test can ask which
// batches are still reachable.
type weakBatches struct {
	seen []weak.Pointer[spn.Request]
}

func (w *weakBatches) EvaluateRSPN(_ context.Context, r *rspn.RSPN, reqs []spn.Request, out []float64) error {
	w.seen = append(w.seen, weak.Make(&reqs[0]))
	return r.EvaluateRequests(reqs, out)
}

// TestGroupIterMemoScopes is the memory contract of the memo a streamed
// execution shares across its key chunks. Over a key space of many chunks
// it checks, at every chunk boundary, that an entry reading one group
// column is bounded by that column's candidates — the first, slowest one
// here, so its entries do span chunks —, that an entry reading no group
// column exists once, that entries reading two (of three) group columns
// are gone, and that no batch of a finished round is reachable any more.
func TestGroupIterMemoScopes(t *testing.T) {
	ctx := context.Background()
	e := ssbEngine(t)
	q, err := query.Parse("SELECT COUNT(*) FROM lineorder JOIN dates JOIN part GROUP BY d_year, p_category, p_brand1", nil)
	if err != nil {
		t.Fatal(err)
	}
	p, err := e.Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	batches := &weakBatches{}
	e.eval = batches
	defer func() { e.eval = nil }()
	it, err := p.ExecuteGroupsIter(ctx, ExecOpts{}, q, 0)
	if err != nil {
		t.Fatal(err)
	}
	candidates := make([]int, len(p.groupCols))
	for c, vals := range it.keys[0].vals {
		candidates[c] = len(vals)
	}
	chunks, slowCarried, twoColumn := 0, 0, 0
	for m := it.stepChunk(); m != nil; m = it.stepChunk() {
		chunks++
		for k, n := range m.memoEntries() {
			switch len(k.cols) {
			case 0:
				if n != 1 {
					t.Fatalf("chunk %d: a call reading no group column has %d entries", chunks, n)
				}
			case 1:
				if n > candidates[k.cols[0]] {
					t.Fatalf("chunk %d: a call reading %s has %d entries, more than its %d candidates",
						chunks, p.groupCols[k.cols[0]], n, candidates[k.cols[0]])
				}
				if k.cols[0] == 0 && n > 1 {
					slowCarried++
				}
			default:
				t.Fatalf("chunk %d: a call reading %d group columns kept %d entries past its chunk", chunks, len(k.cols), n)
			}
		}
		runtime.GC()
		for i, w := range batches.seen {
			if w.Value() != nil {
				t.Fatalf("chunk %d: batch %d of %d stays reachable after its round", chunks, i, len(batches.seen))
			}
		}
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	// The fixture must exercise every scope: many chunks, an entry of the
	// slow column carried over chunks, and a call reading two columns.
	visitCalls(p.count, nil, nil, func(_ *rspn.RSPN, _ []int, k *keyReads) {
		if len(k.cols) == 2 {
			twoColumn++
		}
	})
	if chunks < 10 || slowCarried == 0 || twoColumn == 0 {
		t.Fatalf("fixture too weak: %d chunks, slow column carried over %d chunk boundaries, %d two-column calls",
			chunks, slowCarried, twoColumn)
	}
}

// TestExecuteBatchBoundsPrunedKeySpace: ExecuteBatch bounds each query's
// own key space, after its filters pruned the plan's candidates, not the
// plan's unpruned product. On the 10^6-key plan a filter admitting two g1
// values leaves 2 000 keys, which are answered bit for bit as the iterator
// streams them; a filter admitting 200 leaves 200 000, which are refused.
func TestExecuteBatchBoundsPrunedKeySpace(t *testing.T) {
	ctx := context.Background()
	e := millionKeyEngine(t)
	bind := func(v float64) query.Query {
		return query.Query{Aggregate: query.Count, Tables: []string{"wide"},
			Filters: []query.Predicate{{Column: "g1", Op: query.Lt, Value: v}},
			GroupBy: []string{"g1", "g2"}}
	}
	small := bind(2)
	p, err := e.Compile(small)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.ensureExec(); err != nil {
		t.Fatal(err)
	}
	if p.numGroups <= maxMaterializedGroups {
		t.Fatalf("the plan's candidate product %d is within the bound: nothing to prune", p.numGroups)
	}
	if n := p.keySpace(small).n; n != 2000 {
		t.Fatalf("g1 < 2 leaves %d keys, want 2000", n)
	}
	res, err := p.ExecuteQuery(ctx, ExecOpts{}, small)
	if err != nil {
		t.Fatalf("a query its own filter prunes to 2000 keys was refused: %v", err)
	}
	it, err := p.ExecuteGroupsIter(ctx, ExecOpts{}, small, 0)
	if err != nil {
		t.Fatal(err)
	}
	var streamed []AQPGroup
	for it.Next() {
		streamed = append(streamed, it.Group())
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	if len(streamed) != 2 || !sameGroups(res.Groups, streamed) {
		t.Fatalf("ExecuteQuery rows %+v, streamed %+v (want the two FD-consistent pairs, bit for bit)", res.Groups, streamed)
	}
	// The must-fail twin: pruned, and still over the bound.
	large := bind(200)
	if n := p.keySpace(large).n; n <= maxMaterializedGroups {
		t.Fatalf("g1 < 200 leaves %d keys, within the bound", n)
	}
	if _, err := p.ExecuteQuery(ctx, ExecOpts{}, large); err == nil {
		t.Fatal("ExecuteQuery accepted a pruned key space still over the bound")
	}
}
