package baselines

import (
	"fmt"
	"math/rand"

	"repro/internal/query"
	"repro/internal/schema"
	"repro/internal/table"
)

// IBJS is Index-Based Join Sampling (Leis et al., CIDR 2017): it draws a
// uniform sample of a root table's qualifying rows and extends each sampled
// row across the query's join tree through (hash) indexes, counting the
// number of qualifying join partners per step. The Horvitz-Thompson scale-
// up of the product of partner counts estimates the join cardinality.
type IBJS struct {
	Schema  *schema.Schema
	tables  map[string]*table.Table
	indexes *indexSet
	// SampleSize is the number of root rows sampled per estimate.
	SampleSize int
	rng        *rand.Rand
}

// NewIBJS prepares the estimator (indexes build lazily, standing in for the
// secondary indexes the original assumes exist).
func NewIBJS(s *schema.Schema, tables map[string]*table.Table, sampleSize int, seed int64) *IBJS {
	if sampleSize <= 0 {
		sampleSize = 1000
	}
	return &IBJS{
		Schema: s, tables: tables, indexes: newIndexSet(tables),
		SampleSize: sampleSize, rng: rand.New(rand.NewSource(seed)),
	}
}

// EstimateCardinality samples root rows and walks the join tree.
func (b *IBJS) EstimateCardinality(q query.Query) (float64, error) {
	if err := q.Validate(); err != nil {
		return 0, err
	}
	root := chooseRoot(b.Schema, q.Tables)
	rootTable, ok := b.tables[root]
	if !ok {
		return 0, fmt.Errorf("baselines: unknown table %s", root)
	}
	steps, err := orientEdges(b.Schema, q.Tables, root)
	if err != nil {
		return 0, err
	}
	n := rootTable.NumRows()
	if n == 0 {
		return 0, nil
	}
	sample := b.SampleSize
	if sample > n {
		sample = n
	}
	rootPreds := predsOf(rootTable, q.Filters)
	total := 0.0
	for s := 0; s < sample; s++ {
		row := b.rng.Intn(n)
		if !rowMatches(rootTable, row, rootPreds) {
			continue
		}
		contribution, err := b.extend(map[string]int{root: row}, steps, 0, q.Filters)
		if err != nil {
			return 0, err
		}
		total += contribution
	}
	return total * float64(n) / float64(sample), nil
}

// extend recursively multiplies qualifying partner counts along the steps.
// To bound work, at each step one random partner is followed for the rest
// of the walk while the full partner count scales the contribution (the
// standard index-based sampling estimator).
func (b *IBJS) extend(current map[string]int, steps []joinStep, depth int, preds []query.Predicate) (float64, error) {
	if depth == len(steps) {
		return 1, nil
	}
	st := steps[depth]
	fromTable := b.tables[st.fromTable]
	fromRow, ok := current[st.fromTable]
	if !ok {
		return 0, fmt.Errorf("baselines: walk order broken at %s", st.fromTable)
	}
	fromCol := fromTable.Column(st.fromCol)
	if fromCol.IsNull(fromRow) {
		return 0, nil
	}
	idx, err := b.indexes.get(st.toTable, st.toCol)
	if err != nil {
		return 0, err
	}
	toTable := b.tables[st.toTable]
	toPreds := predsOf(toTable, preds)
	var qualifying []int
	for _, r := range idx[fromCol.Data[fromRow]] {
		if rowMatches(toTable, r, toPreds) {
			qualifying = append(qualifying, r)
		}
	}
	if len(qualifying) == 0 {
		return 0, nil
	}
	pick := qualifying[b.rng.Intn(len(qualifying))]
	current[st.toTable] = pick
	rest, err := b.extend(current, steps, depth+1, preds)
	if err != nil {
		return 0, err
	}
	return float64(len(qualifying)) * rest, nil
}
