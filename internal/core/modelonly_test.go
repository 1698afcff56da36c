package core

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/query"
)

// TestModelOnlyTheorem2MatchesAttached: with single-table RSPNs only, a
// join query needs Theorem 2 — which used to dereference live tables for
// filter routing and branch denominators. Detaching the tables must not
// change the estimate, and the filters must demonstrably stay applied.
func TestModelOnlyTheorem2MatchesAttached(t *testing.T) {
	e, _, tabs := exactEnsemble(t, false)
	q := query.Query{
		Aggregate: query.Count,
		Tables:    []string{"customer", "orders"},
		Filters: []query.Predicate{
			{Column: "c_region", Op: query.Eq, Value: euCode(tabs)},
			{Column: "o_channel", Op: query.Eq, Value: onlineCode(tabs)},
		},
	}
	attached, err := e.EstimateCardinality(q)
	if err != nil {
		t.Fatal(err)
	}
	unfiltered, err := e.EstimateCardinality(query.Query{Aggregate: query.Count, Tables: q.Tables})
	if err != nil {
		t.Fatal(err)
	}
	if attached.Value == unfiltered.Value {
		t.Fatalf("filters had no effect while attached (both %v)", attached.Value)
	}
	// Detach the base tables: the persisted statistics captured by
	// NewManual must carry column ownership and branch denominators.
	e.Ens.Tables = nil
	modelOnly, err := e.EstimateCardinality(q)
	if err != nil {
		t.Fatalf("model-only Theorem-2 query: %v", err)
	}
	if modelOnly != attached {
		t.Fatalf("model-only estimate %+v != attached %+v", modelOnly, attached)
	}
	// Outer-join classification must survive detachment too: a filter on
	// the outer table reverts it to inner semantics, so the two differ.
	oq := q
	oq.OuterTables = []string{"orders"}
	oq.Filters = q.Filters[:1]
	withOuter, err := e.EstimateCardinality(oq)
	if err != nil {
		t.Fatal(err)
	}
	iq := oq
	iq.OuterTables = nil
	inner, err := e.EstimateCardinality(iq)
	if err != nil {
		t.Fatal(err)
	}
	if withOuter.Value < inner.Value {
		t.Fatalf("outer join estimate %v < inner %v", withOuter.Value, inner.Value)
	}
}

// TestTheorem2ZeroDenominator: an empty bridgehead table zeroes the branch
// ratio without aborting branch evaluation; the estimate is 0 with no
// error.
func TestTheorem2ZeroDenominator(t *testing.T) {
	e, _, tabs := exactEnsemble(t, false)
	st := e.Ens.Stats["orders"]
	st.Rows = 0
	e.Ens.Stats["orders"] = st
	// The filter sits on customer, so the customer RSPN answers the left
	// side and orders is the bridgehead of the remaining branch.
	est, err := e.EstimateCardinality(query.Query{
		Aggregate: query.Count,
		Tables:    []string{"customer", "orders"},
		Filters:   []query.Predicate{{Column: "c_region", Op: query.Eq, Value: euCode(tabs)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if est.Value != 0 {
		t.Fatalf("estimate with empty bridgehead = %v, want 0", est.Value)
	}
}

// TestMedianCountEvenAverages: with an even number of covering RSPNs the
// median strategy must average the two middle estimates instead of taking
// the upper one.
func TestMedianCountEvenAverages(t *testing.T) {
	e, _, _ := exactEnsemble(t, false)
	// Duplicate the customer RSPN with a doubled FullSize: estimates v and
	// 2v, so the even-count median is 1.5v.
	var base *Estimate
	q := query.Query{Aggregate: query.Count, Tables: []string{"customer"}}
	got, err := e.EstimateCardinality(q)
	if err != nil {
		t.Fatal(err)
	}
	base = &got
	for _, r := range e.Ens.RSPNs {
		if r.HasTable("customer") {
			clone := *r
			clone.FullSize = 2 * r.FullSize
			e.Ens.RSPNs = append(e.Ens.RSPNs, &clone)
			break
		}
	}
	e.Strategy = StrategyMedian
	med, err := e.EstimateCardinality(q)
	if err != nil {
		t.Fatal(err)
	}
	if want := 1.5 * base.Value; math.Abs(med.Value-want) > 1e-9 {
		t.Fatalf("even-count median = %v, want %v", med.Value, want)
	}
}

// TestMedianCountCancellation: the compiled median node checks the
// caller's context between covering-RSPN evaluations.
func TestMedianCountCancellation(t *testing.T) {
	e, _, _ := exactEnsemble(t, false)
	// Duplicate the customer RSPN so the median path (>= 2 covering
	// members) actually compiles.
	for _, r := range e.Ens.RSPNs {
		if r.HasTable("customer") {
			clone := *r
			e.Ens.RSPNs = append(e.Ens.RSPNs, &clone)
			break
		}
	}
	e.Strategy = StrategyMedian
	q := query.Query{Aggregate: query.Count, Tables: []string{"customer"}}
	p, err := e.Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.EstimateCardinalityQuery(ctx, q); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestParallelQueryPathMatchesSequential: Theorem-2 branch fan-out and
// inclusion-exclusion fan-out must not change results, only concurrency.
func TestParallelQueryPathMatchesSequential(t *testing.T) {
	seqEng, _, tabs := exactEnsemble(t, false)
	queries := []query.Query{
		{ // Theorem 2 with filters on both sides.
			Aggregate: query.Count,
			Tables:    []string{"customer", "orders"},
			Filters: []query.Predicate{
				{Column: "c_region", Op: query.Eq, Value: euCode(tabs)},
				{Column: "o_channel", Op: query.Eq, Value: onlineCode(tabs)},
			},
		},
		{ // Disjunction: inclusion-exclusion over three terms.
			Aggregate: query.Count,
			Tables:    []string{"customer", "orders"},
			Disjunction: []query.Predicate{
				{Column: "c_age", Op: query.Lt, Value: 30},
				{Column: "c_age", Op: query.Gt, Value: 70},
				{Column: "o_channel", Op: query.Eq, Value: onlineCode(tabs)},
			},
		},
	}
	parEng, _, _ := exactEnsemble(t, false)
	parEng.Parallelism = 4
	for i, q := range queries {
		a, err := seqEng.EstimateCardinality(q)
		if err != nil {
			t.Fatalf("query %d sequential: %v", i, err)
		}
		b, err := parEng.EstimateCardinality(q)
		if err != nil {
			t.Fatalf("query %d parallel: %v", i, err)
		}
		if a != b {
			t.Fatalf("query %d: parallel %+v != sequential %+v", i, b, a)
		}
	}
}
