package main

import (
	"fmt"

	"repro/internal/query"
	"repro/internal/schema"
	"repro/internal/table"
)

// starOracle counts star joins exactly without materializing them. Every
// IMDb query of the benchmark joins the hub table (title) with spokes that
// each reference it by foreign key, so
//
//	COUNT(*) = sum over hub rows h passing the hub's filters of
//	           prod over spokes s of |{rows of s referencing h that pass s's filters}|
//
// which is one scan per joined table. internal/exact answers the same
// question by materializing the join (up to ~300ms per five-table query at
// this scale); that is too slow to validate thousands of served answers on
// every run, so the harness validates with this oracle and cross-checks the
// oracle against internal/exact on a few queries each run.
type starOracle struct {
	schema *schema.Schema
	tabs   map[string]*table.Table
	hub    string
	hubIdx map[float64]int32  // hub primary key -> hub row
	ref    map[string][]int32 // spoke -> hub row referenced by each spoke row (-1 for none)
}

func newStarOracle(s *schema.Schema, tabs map[string]*table.Table, hub string) (*starOracle, error) {
	meta := s.Table(hub)
	if meta == nil || tabs[hub] == nil {
		return nil, fmt.Errorf("oracle: no hub table %s", hub)
	}
	o := &starOracle{schema: s, tabs: tabs, hub: hub, hubIdx: map[float64]int32{}, ref: map[string][]int32{}}
	pk := tabs[hub].Column(meta.PrimaryKey)
	for i := 0; i < tabs[hub].NumRows(); i++ {
		o.hubIdx[pk.Data[i]] = int32(i)
	}
	return o, nil
}

// refs resolves (once) which hub row each row of the spoke references.
func (o *starOracle) refs(spoke string) ([]int32, error) {
	if r, ok := o.ref[spoke]; ok {
		return r, nil
	}
	meta, t := o.schema.Table(spoke), o.tabs[spoke]
	if meta == nil || t == nil {
		return nil, fmt.Errorf("oracle: unknown table %s", spoke)
	}
	for _, fk := range meta.ForeignKeys {
		if fk.RefTable != o.hub {
			continue
		}
		col := t.Column(fk.Column)
		r := make([]int32, t.NumRows())
		for i := range r {
			r[i] = -1
			if h, ok := o.hubIdx[col.Data[i]]; ok && !col.IsNull(i) {
				r[i] = h
			}
		}
		o.ref[spoke] = r
		return r, nil
	}
	return nil, fmt.Errorf("oracle: %s has no foreign key to %s", spoke, o.hub)
}

// count answers an ungrouped conjunctive COUNT(*) over hub JOIN spokes.
func (o *starOracle) count(q query.Query) (float64, error) {
	if q.Aggregate != query.Count || len(q.GroupBy) > 0 || len(q.Disjunction) > 0 || len(q.OuterTables) > 0 {
		return 0, fmt.Errorf("oracle: only ungrouped conjunctive inner-join COUNT(*) is supported: %v", q)
	}
	if len(q.Tables) == 0 || q.Tables[0] != o.hub {
		return 0, fmt.Errorf("oracle: query does not start at hub %s: %v", o.hub, q)
	}
	preds := map[string][]query.Predicate{}
	for _, p := range q.Filters {
		owner := ownerOf(o.schema, q.Tables, p.Column)
		if owner == "" {
			return 0, fmt.Errorf("oracle: no queried table has column %s", p.Column)
		}
		preds[owner] = append(preds[owner], p)
	}
	hubMatch := matcher(o.tabs[o.hub], preds[o.hub])
	weight := make([]float64, o.tabs[o.hub].NumRows())
	for i := range weight {
		if hubMatch(i) {
			weight[i] = 1
		}
	}
	cnt := make([]float64, len(weight))
	for _, spoke := range q.Tables[1:] {
		ref, err := o.refs(spoke)
		if err != nil {
			return 0, err
		}
		clear(cnt)
		match := matcher(o.tabs[spoke], preds[spoke])
		for i, h := range ref {
			if h >= 0 && match(i) {
				cnt[h]++
			}
		}
		for i := range weight {
			weight[i] *= cnt[i]
		}
	}
	total := 0.0
	for _, w := range weight {
		total += w
	}
	return total, nil
}

// matcher returns the row filter of a conjunction with SQL semantics: a
// NULL cell satisfies no comparison.
func matcher(t *table.Table, preds []query.Predicate) func(row int) bool {
	cols := make([]*table.Column, len(preds))
	for i, p := range preds {
		cols[i] = t.Column(p.Column)
	}
	return func(row int) bool {
		for i, p := range preds {
			if cols[i].IsNull(row) || !p.Matches(cols[i].Data[row]) {
				return false
			}
		}
		return true
	}
}

// ownerOf returns the table among tables that declares the column ("" when
// none does); column names are unique across a DeepDB schema.
func ownerOf(s *schema.Schema, tables []string, col string) string {
	for _, tn := range tables {
		if meta := s.Table(tn); meta != nil {
			if _, ok := meta.Column(col); ok {
				return tn
			}
		}
	}
	return ""
}
