package query_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/query"
	"repro/internal/workload"
)

// fmtShapeKey is ShapeKey as it was built with fmt: the reference whose
// bytes the plan and result caches were keyed on.
func fmtShapeKey(q query.Query) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%v(%s)|T:%s|O:%s|F:", q.Aggregate, q.AggColumn,
		strings.Join(q.Tables, ","), strings.Join(q.OuterTables, ","))
	preds := func(ps []query.Predicate) {
		for i, p := range ps {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%s%v", p.Column, p.Op)
			if p.Op == query.In {
				b.WriteString("(...)")
			}
		}
	}
	preds(q.Filters)
	b.WriteString("|D:")
	preds(q.Disjunction)
	fmt.Fprintf(&b, "|G:%s", strings.Join(q.GroupBy, ","))
	return b.String()
}

// TestShapeKeyMatchesFmtReference: over the benchmark's ad-hoc optimizer
// population (IMDb at 10 000 titles, seed 1: synthetic 2–5-table joins
// plus JOB-light) and hand-built IN, disjunction, GROUP BY, outer-join,
// placeholder and out-of-range enum queries, ShapeKey is byte-identical
// to the fmt rendering. The twin: a query differing only in an operator
// gets a different key.
func TestShapeKeyMatchesFmtReference(t *testing.T) {
	_, tabs := datagen.IMDb(datagen.IMDbConfig{Titles: 10000, Seed: 1})
	named := append(workload.SyntheticIMDb(tabs, 2200, 2, 5, 1), workload.JOBLight(tabs, 2)...)
	var qs []query.Query
	for _, n := range named {
		if err := n.Query.Validate(); err != nil {
			t.Fatalf("%v: %v", n.Query, err)
		}
		qs = append(qs, n.Query)
	}
	in := query.Predicate{Column: "d_year", Op: query.In, Values: []float64{1993, 1995}}
	lt := query.Predicate{Column: "lo_discount", Op: query.Lt, Value: 5}
	qs = append(qs,
		query.Query{Aggregate: query.Count, Tables: []string{"lineorder", "dates"}, Filters: []query.Predicate{in, lt}},
		query.Query{Aggregate: query.Count, Tables: []string{"title", "movie_keyword"},
			Filters:     []query.Predicate{{Column: "t_production_year", Op: query.Gt, Value: 1970}},
			Disjunction: []query.Predicate{{Column: "t_kind_id", Op: query.Eq, Value: 1}, {Column: "mk_keyword_id", Op: query.Lt, Param: 1}}},
		query.Query{Aggregate: query.Avg, AggColumn: "lo_revenue", Tables: []string{"lineorder", "part"},
			Filters: []query.Predicate{lt, {Column: "lo_quantity", Op: query.Ge, Param: 1}}, GroupBy: []string{"p_mfgr", "lo_discount"}},
		query.Query{Aggregate: query.Sum, AggColumn: "t_production_year", Tables: []string{"title", "movie_info", "movie_keyword"},
			OuterTables: []string{"movie_info", "movie_keyword"}, Filters: []query.Predicate{{Column: "t_kind_id", Op: query.Ne, Value: 2}}},
		query.Query{Aggregate: query.AggType(7), AggColumn: "x", Tables: []string{"t"},
			Filters: []query.Predicate{{Column: "a", Op: query.Op(9)}, {Column: "b", Op: query.Le}}},
		query.Query{},
	)
	for _, q := range qs {
		if got, want := q.ShapeKey(), fmtShapeKey(q); got != want {
			t.Fatalf("%v:\n got  %q\n want %q", q, got, want)
		}
	}
	twin := qs[0]
	twin.Filters = append([]query.Predicate(nil), twin.Filters...)
	twin.Filters[0].Op = (twin.Filters[0].Op + 1) % query.In
	if twin.ShapeKey() == qs[0].ShapeKey() {
		t.Fatalf("operator change kept the shape key %q", twin.ShapeKey())
	}
}
