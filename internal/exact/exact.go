// Package exact executes aggregate queries exactly over the in-memory
// tables. It is the ground-truth oracle: every q-error and relative error in
// the experiment harness is computed against this executor's results on the
// same generated data the models were trained on.
package exact

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/query"
	"repro/internal/schema"
	"repro/internal/table"
)

// Engine executes queries exactly. Materialized joins are cached per first
// table and table set because experiment workloads reuse the same join
// shapes across hundreds of queries.
type Engine struct {
	Schema *schema.Schema
	Tables map[string]*table.Table

	mu        sync.Mutex
	joinCache map[string]*table.Table
}

// New returns an exact engine over the live rows of the given data: rows a
// table records as tombstoned (deleted through the update path, still
// physically present) are not part of any answer.
func New(s *schema.Schema, tables map[string]*table.Table) *Engine {
	live := make(map[string]*table.Table, len(tables))
	//deepdb:orderinvariant builds independent per-table map entries; no cross-iteration state
	for name, t := range tables {
		live[name] = t.Live()
	}
	return &Engine{Schema: s, Tables: live, joinCache: make(map[string]*table.Table)}
}

// materialize returns the join of the query's tables (the single base
// table for 1-table queries), cached. Tables listed in outer keep
// unmatched rows of the remaining tables (outer-join semantics).
func (e *Engine) materialize(tables, outer []string) (*table.Table, error) {
	if len(tables) == 1 {
		t, ok := e.Tables[tables[0]]
		if !ok {
			return nil, fmt.Errorf("exact: unknown table %s", tables[0])
		}
		return t, nil
	}
	key := joinKey(tables, outer)
	e.mu.Lock()
	cached, ok := e.joinCache[key]
	e.mu.Unlock()
	if ok {
		return cached, nil
	}
	edges, err := e.Schema.JoinTree(tables)
	if err != nil {
		return nil, err
	}
	spec := table.JoinSpec{Tables: tables, Edges: edges}
	ji, err := table.IndexJoin(e.Tables, spec, len(outer) == 0)
	if err != nil {
		return nil, err
	}
	if len(outer) > 0 {
		// A full outer join, keeping the tuples in which every non-outer
		// table is present.
		ji.Require(slices.DeleteFunc(slices.Clone(tables), func(t string) bool { return slices.Contains(outer, t) }))
	}
	j := ji.Table()
	e.mu.Lock()
	e.joinCache[key] = j
	e.mu.Unlock()
	return j, nil
}

// joinKey names a join in the cache by everything its fold depends on:
// the first table, which the fold starts from (the join tree and so the
// row order follow from it and the table set, and the row order decides
// how an aggregate over the join rounds), the table set and the outer
// set, each sorted.
func joinKey(tables, outer []string) string {
	sorted := append([]string(nil), tables...)
	sort.Strings(sorted)
	outerSorted := append([]string(nil), outer...)
	sort.Strings(outerSorted)
	return tables[0] + "/" + strings.Join(sorted, ",") + "/" + strings.Join(outerSorted, ",")
}

// Materialize returns the (cached) inner join of the given tables, exposing
// the oracle's joined relation to baselines that need row-level access.
func (e *Engine) Materialize(tables []string) (*table.Table, error) {
	return e.materialize(tables, nil)
}

// Execute runs the query and returns exact results. SQL three-valued logic
// applies: rows where a filtered or aggregated column is NULL are excluded
// from that predicate/aggregate; group-by treats NULL as its own group key
// (encoded as a sentinel).
func (e *Engine) Execute(q query.Query) (query.Result, error) {
	return e.ExecuteContext(context.Background(), q)
}

// ExecuteContext is Execute with cancellation: the row scans honor ctx, so
// a caller serving an RPC can abandon an expensive oracle query.
func (e *Engine) ExecuteContext(ctx context.Context, q query.Query) (query.Result, error) {
	if err := q.Validate(); err != nil {
		return query.Result{}, err
	}
	j, err := e.materialize(q.Tables, q.OuterTables)
	if err != nil {
		return query.Result{}, err
	}
	rows, err := FilterRowsContext(ctx, j, q.Filters)
	if err != nil {
		return query.Result{}, err
	}
	if len(q.Disjunction) > 0 {
		rows, err = filterDisjunction(j, rows, q.Disjunction)
		if err != nil {
			return query.Result{}, err
		}
	}
	if len(q.GroupBy) == 0 {
		v, err := aggregate(j, q, rows)
		if err != nil {
			return query.Result{}, err
		}
		return query.Result{Groups: []query.Group{{Value: v}}}, nil
	}
	// Group rows by key.
	keyCols := make([]*table.Column, len(q.GroupBy))
	for i, g := range q.GroupBy {
		c := j.Column(g)
		if c == nil {
			return query.Result{}, fmt.Errorf("exact: unknown group-by column %s", g)
		}
		keyCols[i] = c
	}
	groups := make(map[string][]int)
	keys := make(map[string][]float64)
	for i, r := range rows {
		if i%4096 == 0 {
			if err := ctx.Err(); err != nil {
				return query.Result{}, err
			}
		}
		key := make([]float64, len(keyCols))
		skip := false
		for i, c := range keyCols {
			if c.Nul[r] {
				skip = true // NULL group keys are excluded, like the paper's queries
				break
			}
			key[i] = c.Data[r]
		}
		if skip {
			continue
		}
		ks := fmt.Sprint(key)
		groups[ks] = append(groups[ks], r)
		keys[ks] = key
	}
	var out query.Result
	for ks, grows := range groups {
		v, err := aggregate(j, q, grows)
		if err != nil {
			return query.Result{}, err
		}
		out.Groups = append(out.Groups, query.Group{Key: keys[ks], Value: v})
	}
	sortGroups(out.Groups)
	return out, nil
}

func sortGroups(gs []query.Group) {
	sort.Slice(gs, func(i, j int) bool {
		a, b := gs[i].Key, gs[j].Key
		for k := 0; k < len(a) && k < len(b); k++ {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
}

// FilterRows returns the indices of rows satisfying every predicate. A NULL
// cell fails any comparison (SQL three-valued logic).
func FilterRows(t *table.Table, preds []query.Predicate) ([]int, error) {
	return FilterRowsContext(context.Background(), t, preds)
}

// FilterRowsContext is FilterRows with cancellation, checked every few
// thousand rows so the scan stays tight.
func FilterRowsContext(ctx context.Context, t *table.Table, preds []query.Predicate) ([]int, error) {
	cols := make([]*table.Column, len(preds))
	for i, p := range preds {
		c := t.Column(p.Column)
		if c == nil {
			return nil, fmt.Errorf("exact: unknown filter column %s", p.Column)
		}
		cols[i] = c
	}
	var rows []int
	for r := 0; r < t.NumRows(); r++ {
		if r%4096 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		ok := true
		for i, p := range preds {
			if cols[i].Nul[r] || !p.Matches(cols[i].Data[r]) {
				ok = false
				break
			}
		}
		if ok {
			rows = append(rows, r)
		}
	}
	return rows, nil
}

// filterDisjunction keeps the rows satisfying at least one disjunct.
func filterDisjunction(t *table.Table, rows []int, disjuncts []query.Predicate) ([]int, error) {
	cols := make([]*table.Column, len(disjuncts))
	for i, p := range disjuncts {
		c := t.Column(p.Column)
		if c == nil {
			return nil, fmt.Errorf("exact: unknown disjunct column %s", p.Column)
		}
		cols[i] = c
	}
	var out []int
	for _, r := range rows {
		for i, p := range disjuncts {
			if !cols[i].Nul[r] && p.Matches(cols[i].Data[r]) {
				out = append(out, r)
				break
			}
		}
	}
	return out, nil
}

func aggregate(t *table.Table, q query.Query, rows []int) (float64, error) {
	switch q.Aggregate {
	case query.Count:
		return float64(len(rows)), nil
	case query.Sum, query.Avg:
		c := t.Column(q.AggColumn)
		if c == nil {
			return 0, fmt.Errorf("exact: unknown aggregate column %s", q.AggColumn)
		}
		sum, n := 0.0, 0
		for _, r := range rows {
			if c.Nul[r] {
				continue
			}
			sum += c.Data[r]
			n++
		}
		if q.Aggregate == query.Sum {
			return sum, nil
		}
		if n == 0 {
			return 0, nil
		}
		return sum / float64(n), nil
	default:
		return 0, fmt.Errorf("exact: unsupported aggregate %v", q.Aggregate)
	}
}

// Cardinality returns the exact inner-join cardinality under the query's
// filters, i.e. the COUNT(*) form of the query. It is the ground truth for
// every cardinality-estimation experiment.
func (e *Engine) Cardinality(q query.Query) (float64, error) {
	cq := q
	cq.Aggregate = query.Count
	cq.AggColumn = ""
	cq.GroupBy = nil
	res, err := e.Execute(cq)
	if err != nil {
		return 0, err
	}
	return res.Scalar(), nil
}

// JoinSize returns the unfiltered inner-join cardinality of the table set.
func (e *Engine) JoinSize(tables []string) (float64, error) {
	j, err := e.materialize(tables, nil)
	if err != nil {
		return 0, err
	}
	return float64(j.NumRows()), nil
}
