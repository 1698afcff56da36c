package core

import (
	"context"
	"math"
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
	// A NaN literal is refused by every execution entry point.
	grouped := query.Query{Aggregate: query.Count, Tables: []string{"customer"}, GroupBy: []string{"c_region"},
		Filters: []query.Predicate{{Column: "c_age", Op: query.Le, Value: math.NaN()}}}
	gp, err := e.Compile(grouped)
	if err != nil {
		t.Fatal(err)
	}
	nan, err := template.Bind(math.NaN())
	if err != nil {
		t.Fatal(err)
	}
	_, errCard := p.EstimateCardinalityQuery(ctx, nan)
	_, errBatch := gp.ExecuteBatch(ctx, ExecOpts{}, []query.Query{grouped})
	_, errIter := gp.ExecuteGroupsIter(ctx, ExecOpts{}, grouped, 0)
	for name, err := range map[string]error{"EstimateCardinalityQuery": errCard, "ExecuteBatch": errBatch, "ExecuteGroupsIter": errIter} {
		if err == nil || !strings.Contains(err.Error(), "NaN") {
			t.Errorf("%s with a NaN literal: err = %v, want NaN error", name, err)
		}
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
	if strings.Contains(out, "bound once") {
		t.Fatalf("ungrouped plan says how often it binds per key:\n%s", out)
	}
}

// TestPlanExplainNamesKeyReads: in a grouped plan every Theorem-1 line and
// every branch sub-tree says what the executor binds it per — the group
// columns it reads (within each key chunk when those are two or more but
// not all), or once per query — from the same keyReads the memo uses, and
// the plan says that variance is bound only for surviving groups.
func TestPlanExplainNamesKeyReads(t *testing.T) {
	e, _, _ := exactEnsemble(t, false) // Theorem 2: each side reads its own group column
	const variance = "variance: the gate binds point values only; variance parts are bound only for groups that survive it\n"
	for _, c := range []struct {
		sql  string
		want []string
	}{
		{"SELECT COUNT(*) FROM customer JOIN orders GROUP BY c_region, o_channel", []string{
			variance,
			"answers sub-join customer; bound once per distinct c_region\n",
			"(ratio count/|orders|); bound once per distinct o_channel:\n",
			"answers orders, resolving 1/1 filters; bound once per distinct o_channel\n",
		}},
		{"SELECT AVG(c_age) FROM customer JOIN orders WHERE o_channel = 1 GROUP BY c_region", []string{
			variance,
			"resolving 1/2 filters; bound once per distinct c_region\n",
			"(ratio count/|orders|); bound once per query:\n",
			"answers orders, resolving 1/1 filters; bound once per query\n",
		}},
		{"SELECT COUNT(*) FROM customer JOIN orders GROUP BY c_region, c_age, o_channel", []string{
			"answers sub-join customer; bound once per distinct c_region, c_age in each key chunk\n",
			"answers orders, resolving 1/1 filters; bound once per distinct o_channel\n",
		}},
	} {
		q, err := query.Parse(c.sql, nil)
		if err != nil {
			t.Fatal(err)
		}
		p, err := e.Compile(q)
		if err != nil {
			t.Fatal(err)
		}
		out := p.Explain()
		for _, want := range c.want {
			if !strings.Contains(out, want) {
				t.Fatalf("%s: explain output missing %q:\n%s", c.sql, want, out)
			}
		}
	}
}
