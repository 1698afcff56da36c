package baselines

import (
	"fmt"
	"math/rand"

	"repro/internal/query"
	"repro/internal/schema"
	"repro/internal/table"
)

// WanderJoin is the online-aggregation random-walk estimator of Li et al.
// (SIGMOD 2016): each walk starts from a uniformly random qualifying row of
// the root table and extends across the join tree by picking one uniformly
// random matching partner per step through an index. The product of the
// fan-outs along the walk is its inverse sampling probability
// (Horvitz-Thompson weight); walks that die on a filter or an empty index
// bucket contribute zero. COUNT, SUM and AVG average the weighted
// contributions over a fixed number of walks (the stand-in for the paper's
// two-second time budget).
type WanderJoin struct {
	Schema  *schema.Schema
	tables  map[string]*table.Table
	indexes *indexSet
	// Walks per estimate.
	Walks int
	rng   *rand.Rand
}

// NewWanderJoin prepares the estimator; hash indexes build lazily, standing
// in for the secondary indexes the original requires.
func NewWanderJoin(s *schema.Schema, tables map[string]*table.Table, walks int, seed int64) *WanderJoin {
	if walks <= 0 {
		walks = 10000
	}
	return &WanderJoin{
		Schema: s, tables: tables, indexes: newIndexSet(tables),
		Walks: walks, rng: rand.New(rand.NewSource(seed)),
	}
}

// Name identifies the baseline.
func (w *WanderJoin) Name() string { return "WanderJoin" }

// walkResult is one successful walk: its HT weight, the walked rows, and
// the aggregate value found on them.
type walkResult struct {
	weight  float64
	current map[string]int
}

// walk performs one random walk; ok is false when the walk dies.
func (w *WanderJoin) walk(root string, qualifying []int, steps []joinStep, filters []query.Predicate) (walkResult, bool) {
	row := qualifying[w.rng.Intn(len(qualifying))]
	weight := float64(len(qualifying))
	current := map[string]int{root: row}
	for _, st := range steps {
		fromTable := w.tables[st.fromTable]
		fromCol := fromTable.Column(st.fromCol)
		fromRow := current[st.fromTable]
		if fromCol.IsNull(fromRow) {
			return walkResult{}, false
		}
		idx, err := w.indexes.get(st.toTable, st.toCol)
		if err != nil {
			return walkResult{}, false
		}
		partners := idx[fromCol.Data[fromRow]]
		if len(partners) == 0 {
			return walkResult{}, false
		}
		pick := partners[w.rng.Intn(len(partners))]
		toTable := w.tables[st.toTable]
		if !rowMatches(toTable, pick, predsOf(toTable, filters)) {
			return walkResult{}, false
		}
		weight *= float64(len(partners))
		current[st.toTable] = pick
	}
	return walkResult{weight: weight, current: current}, true
}

// columnValue finds the named column among the walked rows.
func (w *WanderJoin) columnValue(current map[string]int, col string) (float64, bool) {
	for tn, r := range current {
		if c := w.tables[tn].Column(col); c != nil {
			if c.IsNull(r) {
				return 0, false
			}
			return c.Data[r], true
		}
	}
	return 0, false
}

// Execute estimates the aggregate with HT-weighted random walks; group-by
// queries accumulate per group key.
func (w *WanderJoin) Execute(q query.Query) (query.Result, error) {
	if err := q.Validate(); err != nil {
		return query.Result{}, err
	}
	root := chooseRoot(w.Schema, q.Tables)
	rootTable, ok := w.tables[root]
	if !ok {
		return query.Result{}, fmt.Errorf("baselines: unknown table %s", root)
	}
	steps, err := orientEdges(w.Schema, q.Tables, root)
	if err != nil {
		return query.Result{}, err
	}
	var qualifying []int
	rootPreds := predsOf(rootTable, q.Filters)
	for i := 0; i < rootTable.NumRows(); i++ {
		if rowMatches(rootTable, i, rootPreds) {
			qualifying = append(qualifying, i)
		}
	}
	if len(qualifying) == 0 {
		return query.Result{}, nil
	}
	type acc struct{ count, sum, sumWeight float64 }
	groups := map[string]*acc{}
	keys := map[string][]float64{}
	for i := 0; i < w.Walks; i++ {
		res, alive := w.walk(root, qualifying, steps, q.Filters)
		if !alive {
			continue
		}
		key := make([]float64, len(q.GroupBy))
		bad := false
		for gi, g := range q.GroupBy {
			v, ok := w.columnValue(res.current, g)
			if !ok {
				bad = true
				break
			}
			key[gi] = v
		}
		if bad {
			continue
		}
		ks := fmt.Sprint(key)
		a, exists := groups[ks]
		if !exists {
			a = &acc{}
			groups[ks] = a
			keys[ks] = key
		}
		a.count += res.weight
		if q.Aggregate != query.Count {
			if v, ok := w.columnValue(res.current, q.AggColumn); ok {
				a.sum += res.weight * v
				a.sumWeight += res.weight
			}
		}
	}
	var out query.Result
	for ks, a := range groups {
		var v float64
		switch q.Aggregate {
		case query.Count:
			v = a.count / float64(w.Walks)
		case query.Sum:
			v = a.sum / float64(w.Walks)
		case query.Avg:
			// Normalize by the weight of walks with a non-NULL aggregate
			// value (SQL AVG ignores NULLs).
			if a.sumWeight == 0 {
				continue
			}
			v = a.sum / a.sumWeight
		}
		out.Groups = append(out.Groups, query.Group{Key: keys[ks], Value: v})
	}
	return out, nil
}
