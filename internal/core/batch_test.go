package core

// batch_test.go asserts the batched executor's cross-query batching is
// transparent: ExecuteBatch over many bound queries must produce results
// bit-identical to executing each query alone (which itself batches only
// within the query), across aggregates, GROUP BY and disjunctions.

import (
	"context"
	"math"
	"testing"

	"repro/internal/query"
)

func assertBatchEqualsSequential(t *testing.T, e *Engine, template query.Query, bindings [][]float64) {
	t.Helper()
	ctx := context.Background()
	p, err := e.Compile(template)
	if err != nil {
		t.Fatal(err)
	}
	queries := make([]query.Query, len(bindings))
	for i, vals := range bindings {
		q, err := template.Bind(vals...)
		if err != nil {
			t.Fatal(err)
		}
		queries[i] = q
	}
	batched, err := p.ExecuteBatch(ctx, ExecOpts{}, queries)
	if err != nil {
		t.Fatal(err)
	}
	if len(batched) != len(queries) {
		t.Fatalf("got %d results for %d queries", len(batched), len(queries))
	}
	for i, q := range queries {
		solo, err := p.ExecuteQuery(ctx, ExecOpts{}, q)
		if err != nil {
			t.Fatal(err)
		}
		if len(batched[i].Groups) != len(solo.Groups) {
			t.Fatalf("query %d: %d groups batched vs %d solo", i, len(batched[i].Groups), len(solo.Groups))
		}
		for g := range solo.Groups {
			bg, sg := batched[i].Groups[g], solo.Groups[g]
			if math.Float64bits(bg.Estimate.Value) != math.Float64bits(sg.Estimate.Value) ||
				math.Float64bits(bg.Estimate.Variance) != math.Float64bits(sg.Estimate.Variance) {
				t.Fatalf("query %d group %d: batched %+v != solo %+v", i, g, bg.Estimate, sg.Estimate)
			}
		}
	}
}

func TestExecuteBatchMatchesSequential(t *testing.T) {
	e, _, tabs := exactEnsemble(t, true)
	bindings := [][]float64{{25}, {40}, {55}, {70}, {85}}
	// Sixteen bindings of a grouped template: the grouped pipeline's
	// cross-binding batch, the shape Stmt.ExecBatch sends.
	var sixteen [][]float64
	for i := 0; i < 16; i++ {
		sixteen = append(sixteen, []float64{float64(15 + 5*i)})
	}
	cases := []struct {
		name     string
		template query.Query
		bindings [][]float64 // nil = the five above
	}{
		{name: "count", template: query.Query{
			Aggregate: query.Count,
			Tables:    []string{"customer", "orders"},
			Filters:   []query.Predicate{{Column: "c_age", Op: query.Lt, Param: 1}},
		}},
		{name: "avg", template: query.Query{
			Aggregate: query.Avg, AggColumn: "c_age",
			Tables:  []string{"customer", "orders"},
			Filters: []query.Predicate{{Column: "c_age", Op: query.Le, Param: 1}},
		}},
		{name: "grouped-count", template: query.Query{
			Aggregate: query.Count,
			Tables:    []string{"customer", "orders"},
			Filters:   []query.Predicate{{Column: "c_age", Op: query.Lt, Param: 1}},
			GroupBy:   []string{"o_channel"},
		}},
		{name: "grouped-avg", template: query.Query{
			Aggregate: query.Avg, AggColumn: "c_age",
			Tables:  []string{"customer", "orders"},
			Filters: []query.Predicate{{Column: "c_age", Op: query.Le, Param: 1}},
			GroupBy: []string{"o_channel"},
		}},
		{name: "grouped-sum-16", bindings: sixteen, template: query.Query{
			Aggregate: query.Sum, AggColumn: "c_age",
			Tables:  []string{"customer", "orders"},
			Filters: []query.Predicate{{Column: "c_age", Op: query.Le, Param: 1}},
			GroupBy: []string{"c_region", "o_channel"},
		}},
		{name: "disjunction", template: query.Query{
			Aggregate: query.Count,
			Tables:    []string{"customer", "orders"},
			Disjunction: []query.Predicate{
				{Column: "c_age", Op: query.Lt, Param: 1},
				{Column: "o_channel", Op: query.Eq, Value: onlineCode(tabs)},
			},
		}},
	}
	for _, tc := range cases {
		if tc.bindings == nil {
			tc.bindings = bindings
		}
		t.Run(tc.name, func(t *testing.T) {
			assertBatchEqualsSequential(t, e, tc.template, tc.bindings)
		})
	}
}

// TestExecuteBatchEmpty: a zero-length batch is a no-op, not a panic.
func TestExecuteBatchEmpty(t *testing.T) {
	e, _, _ := exactEnsemble(t, false)
	template := query.Query{
		Aggregate: query.Count,
		Tables:    []string{"customer"},
		Filters:   []query.Predicate{{Column: "c_age", Op: query.Lt, Param: 1}},
	}
	p, err := e.Compile(template)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.ExecuteBatch(context.Background(), ExecOpts{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res != nil {
		t.Fatalf("expected nil results, got %v", res)
	}
}
