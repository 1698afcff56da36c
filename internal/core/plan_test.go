package core

import (
	"context"
	"strings"
	"testing"

	"repro/internal/query"
)

// TestPlanReuseBitIdentical: executing one compiled plan with different
// bound values must produce estimates bit-identical to compiling each
// literal query from scratch — the contract that makes the plan cache and
// prepared statements transparent.
func TestPlanReuseBitIdentical(t *testing.T) {
	e, _, tabs := exactEnsemble(t, false)
	ctx := context.Background()
	template := query.Query{
		Aggregate: query.Count,
		Tables:    []string{"customer", "orders"},
		Filters: []query.Predicate{
			{Column: "c_age", Op: query.Lt, Param: 1},
			{Column: "o_channel", Op: query.Eq, Value: onlineCode(tabs)},
		},
	}
	p, err := e.Compile(template)
	if err != nil {
		t.Fatal(err)
	}
	for _, age := range []float64{25, 55, 85} {
		bound, err := template.Bind(age)
		if err != nil {
			t.Fatal(err)
		}
		prepared, err := p.EstimateCardinalityQuery(ctx, bound)
		if err != nil {
			t.Fatal(err)
		}
		lit := template
		lit.Filters = append([]query.Predicate(nil), template.Filters...)
		lit.Filters[0] = query.Predicate{Column: "c_age", Op: query.Lt, Value: age}
		oneShot, err := e.EstimateCardinality(lit)
		if err != nil {
			t.Fatal(err)
		}
		if prepared != oneShot {
			t.Fatalf("age %v: prepared %+v != one-shot %+v", age, prepared, oneShot)
		}
	}
}

// TestPlanExecuteGroupedAndAggregate: a plan compiled for a grouped AVG
// executes identically to the one-shot path across parameter values.
func TestPlanExecuteGroupedAndAggregate(t *testing.T) {
	e, _, _ := exactEnsemble(t, true)
	ctx := context.Background()
	template := query.Query{
		Aggregate: query.Avg, AggColumn: "c_age",
		Tables:  []string{"customer", "orders"},
		Filters: []query.Predicate{{Column: "c_age", Op: query.Le, Param: 1}},
		GroupBy: []string{"o_channel"},
	}
	p, err := e.Compile(template)
	if err != nil {
		t.Fatal(err)
	}
	for _, hi := range []float64{30, 90} {
		lit, err := template.Bind(hi)
		if err != nil {
			t.Fatal(err)
		}
		prepared, err := p.ExecuteQuery(ctx, ExecOpts{}, lit)
		if err != nil {
			t.Fatal(err)
		}
		oneShot, err := e.Execute(lit)
		if err != nil {
			t.Fatal(err)
		}
		if len(prepared.Groups) != len(oneShot.Groups) {
			t.Fatalf("hi %v: group counts differ: %d vs %d", hi, len(prepared.Groups), len(oneShot.Groups))
		}
		for i := range prepared.Groups {
			if prepared.Groups[i].Estimate != oneShot.Groups[i].Estimate {
				t.Fatalf("hi %v group %d: %+v != %+v", hi, i, prepared.Groups[i], oneShot.Groups[i])
			}
		}
	}
}

// TestPlanBindErrors: unbound templates and shape mismatches fail with
// clear errors instead of wrong results.
func TestPlanBindErrors(t *testing.T) {
	e, _, _ := exactEnsemble(t, false)
	ctx := context.Background()
	template := query.Query{
		Aggregate: query.Count, Tables: []string{"customer"},
		Filters: []query.Predicate{{Column: "c_age", Op: query.Lt, Param: 1}},
	}
	p, err := e.Compile(template)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.EstimateCardinalityQuery(ctx, template); err == nil ||
		!strings.Contains(err.Error(), "unbound") {
		t.Fatalf("executing an unbound template: err = %v, want unbound-parameter error", err)
	}
	other := query.Query{Aggregate: query.Count, Tables: []string{"orders"}}
	if _, err := p.EstimateCardinalityQuery(ctx, other); err == nil ||
		!strings.Contains(err.Error(), "shape") {
		t.Fatalf("shape mismatch: err = %v, want shape error", err)
	}
}

// TestPlanExecOptsConfidence: a per-execution confidence level changes the
// interval width but never the estimate.
func TestPlanExecOptsConfidence(t *testing.T) {
	e, _, tabs := exactEnsemble(t, true)
	ctx := context.Background()
	q := query.Query{
		Aggregate: query.Count, Tables: []string{"customer"},
		Filters: []query.Predicate{{Column: "c_region", Op: query.Eq, Value: euCode(tabs)}},
	}
	p, err := e.Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	def, err := p.ExecuteQuery(ctx, ExecOpts{}, q)
	if err != nil {
		t.Fatal(err)
	}
	wide, err := p.ExecuteQuery(ctx, ExecOpts{ConfidenceLevel: 0.999}, q)
	if err != nil {
		t.Fatal(err)
	}
	d, w := def.Groups[0], wide.Groups[0]
	if d.Estimate != w.Estimate {
		t.Fatalf("confidence level changed the estimate: %+v vs %+v", d.Estimate, w.Estimate)
	}
	if d.Estimate.Variance > 0 && (w.CIHigh-w.CILow) <= (d.CIHigh-d.CILow) {
		t.Fatalf("0.999 interval [%v,%v] not wider than default [%v,%v]", w.CILow, w.CIHigh, d.CILow, d.CIHigh)
	}
}

// TestPlanExplainMatchesExecution: Explain renders from the same compiled
// structure the execution walks, including the Theorem-2 decomposition and
// parameter markers.
func TestPlanExplainMatchesExecution(t *testing.T) {
	e, _, _ := exactEnsemble(t, false) // single-table members force Theorem 2 on joins
	template := query.Query{
		Aggregate: query.Count,
		Tables:    []string{"customer", "orders"},
		Filters:   []query.Predicate{{Column: "c_age", Op: query.Lt, Param: 1}},
	}
	p, err := e.Compile(template)
	if err != nil {
		t.Fatal(err)
	}
	out := p.Explain()
	for _, want := range []string{"Theorem 2", "placeholder", "branch"} {
		if !strings.Contains(out, want) {
			t.Fatalf("explain output missing %q:\n%s", want, out)
		}
	}
}
