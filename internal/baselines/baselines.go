// Package baselines implements the comparison systems of the paper's
// evaluation, each as a from-scratch substitute for the original (see
// DESIGN.md for the substitution table):
//
//   - Postgres-style histogram estimator (non-learned cardinalities)
//   - MCSN, the workload-driven deep-set cardinality model of Kipf et al.
//   - Index-Based Join Sampling (Leis et al.)
//   - naive random sampling (cardinalities) and TABLESAMPLE (AQP)
//   - VerdictDB-style scramble-based AQP middleware
//   - Wander Join random-walk AQP
//   - DBEst-style per-query-template models
package baselines

import (
	"fmt"
	"sort"

	"repro/internal/query"
	"repro/internal/schema"
	"repro/internal/table"
)

// fkIndex is a hash index from join-column value to row indexes, the
// secondary-index stand-in both IBJS and Wander Join rely on.
type fkIndex map[float64][]int

// buildIndex indexes a column's non-NULL values.
func buildIndex(t *table.Table, col string) (fkIndex, error) {
	c := t.Column(col)
	if c == nil {
		return nil, fmt.Errorf("baselines: no column %s in %s", col, t.Meta.Name)
	}
	idx := make(fkIndex, t.NumRows())
	for i := 0; i < t.NumRows(); i++ {
		if !c.IsNull(i) {
			idx[c.Data[i]] = append(idx[c.Data[i]], i)
		}
	}
	return idx, nil
}

// indexSet lazily maintains hash indexes per (table, column).
type indexSet struct {
	tables map[string]*table.Table
	idx    map[string]fkIndex
}

func newIndexSet(tables map[string]*table.Table) *indexSet {
	return &indexSet{tables: tables, idx: map[string]fkIndex{}}
}

func (s *indexSet) get(tableName, col string) (fkIndex, error) {
	key := tableName + "." + col
	if ix, ok := s.idx[key]; ok {
		return ix, nil
	}
	t, ok := s.tables[tableName]
	if !ok {
		return nil, fmt.Errorf("baselines: unknown table %s", tableName)
	}
	ix, err := buildIndex(t, col)
	if err != nil {
		return nil, err
	}
	s.idx[key] = ix
	return ix, nil
}

// rowMatches evaluates the subset of predicates owned by one table against
// one of its rows (NULL fails, as everywhere).
func rowMatches(t *table.Table, row int, preds []query.Predicate) bool {
	for _, p := range preds {
		c := t.Column(p.Column)
		if c == nil {
			continue // predicate for another table
		}
		if c.IsNull(row) || !p.Matches(c.Data[row]) {
			return false
		}
	}
	return true
}

// predsOf returns the predicates whose column lives in the given table.
func predsOf(t *table.Table, preds []query.Predicate) []query.Predicate {
	var out []query.Predicate
	for _, p := range preds {
		if t.Column(p.Column) != nil {
			out = append(out, p)
		}
	}
	return out
}

// orientEdges orders the join edges of a query as a walk starting from
// `root`, each step recording the table already visited and the new table
// with their join columns. Used by IBJS and Wander Join.
type joinStep struct {
	fromTable, fromCol string
	toTable, toCol     string
}

func orientEdges(s *schema.Schema, tables []string, root string) ([]joinStep, error) {
	edges, err := s.JoinTree(tables)
	if err != nil {
		return nil, err
	}
	visited := map[string]bool{root: true}
	var steps []joinStep
	remaining := append([]schema.Relationship(nil), edges...)
	for len(remaining) > 0 {
		progressed := false
		for i, e := range remaining {
			switch {
			case visited[e.Many] && !visited[e.One]:
				steps = append(steps, joinStep{e.Many, e.ManyColumn, e.One, e.OneColumn})
				visited[e.One] = true
			case visited[e.One] && !visited[e.Many]:
				steps = append(steps, joinStep{e.One, e.OneColumn, e.Many, e.ManyColumn})
				visited[e.Many] = true
			default:
				continue
			}
			remaining = append(remaining[:i], remaining[i+1:]...)
			progressed = true
			break
		}
		if !progressed {
			return nil, fmt.Errorf("baselines: join edges not a connected tree from %s", root)
		}
	}
	return steps, nil
}

// chooseRoot picks a walk root: prefer a table that is never on the Many
// side within the query (the "One-most" table), else the first table.
func chooseRoot(s *schema.Schema, tables []string) string {
	inQuery := map[string]bool{}
	for _, t := range tables {
		inQuery[t] = true
	}
	many := map[string]bool{}
	for _, rel := range s.Relationships() {
		if inQuery[rel.Many] && inQuery[rel.One] {
			many[rel.Many] = true
		}
	}
	cands := append([]string(nil), tables...)
	sort.Strings(cands)
	for _, t := range cands {
		if !many[t] {
			return t
		}
	}
	return tables[0]
}
