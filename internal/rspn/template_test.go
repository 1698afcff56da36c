package rspn

// template_test.go pins the contract that makes TermTemplate safe: for
// any term shape, binding the template must produce exactly the request
// the generic buildConstraints path builds — same columns, same order,
// same merged ranges, same moment functions. A divergence here would
// silently change served results, because plan execution prefers the
// template path.

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/query"
	"repro/internal/spn"
	"repro/internal/table"
)

// templateFixture builds an RSPN over a hand-made exact SPN whose columns
// include an attribute, an FD determinant, a join indicator and a tuple
// factor, plus an FD dictionary for a column the model does not learn.
func templateFixture(t *testing.T) *RSPN {
	t.Helper()
	cols := []string{"a", "city", table.IndicatorColumn("t1"), "__fk_t1<-t2"}
	data := [][]float64{
		{1, 10, 1, 1},
		{2, 11, 1, 2},
		{3, 12, 0, 1},
		{2, 10, 1, 3},
	}
	model, err := spn.LearnExact(data, cols)
	if err != nil {
		t.Fatal(err)
	}
	r := &RSPN{
		Model:    model,
		Tables:   []string{"t1", "t2"},
		FullSize: 4,
		FDs: []FD{{
			Table:       "t1",
			Determinant: "city",
			Dependent:   "region",
			Inverse:     map[float64][]float64{100: {10, 11}, 200: {12}},
			Forward:     map[float64]float64{10: 100, 11: 100, 12: 200},
		}},
	}
	r.Refresh()
	return r
}

func templateTerms() []Term {
	return []Term{
		// Plain filters.
		{Filters: []query.Predicate{{Column: "a", Op: query.Lt, Value: 3}}},
		// Two filters on the same column intersect their ranges.
		{Filters: []query.Predicate{
			{Column: "a", Op: query.Ge, Value: 1},
			{Column: "a", Op: query.Le, Value: 2},
		}},
		// Contradictory constraints encode the impossible range.
		{Filters: []query.Predicate{
			{Column: "a", Op: query.Gt, Value: 5},
			{Column: "a", Op: query.Lt, Value: 1},
		}},
		// FD-translated filter on a column the model does not learn.
		{Filters: []query.Predicate{{Column: "region", Op: query.Eq, Value: 100}}},
		// Indicators, moment functions and not-null constraints, with a
		// filter colliding with the moment column.
		{
			Filters:     []query.Predicate{{Column: "a", Op: query.Ge, Value: 2}},
			InnerTables: []string{"t1"},
			Fns:         map[string]spn.Fn{"a": spn.FnIdent, "__fk_t1<-t2": spn.FnInv},
			NotNull:     []string{"a"},
		},
		// In-list filter plus an indicator on the same model.
		{
			Filters:     []query.Predicate{{Column: "city", Op: query.In, Values: []float64{10, 12}}},
			InnerTables: []string{"t1"},
		},
	}
}

// allOrds is the identity ordinal list: every predicate, in place.
func allOrds(n int) []int {
	ords := make([]int, n)
	for i := range ords {
		ords[i] = i
	}
	return ords
}

func TestTemplateMatchesGenericBuild(t *testing.T) {
	r := templateFixture(t)
	for ti, term := range templateTerms() {
		tmpl, err := r.CompileTerm(term)
		if err != nil {
			t.Fatalf("term %d: CompileTerm: %v", ti, err)
		}
		bound, err := tmpl.BindIndexed(term.Filters, allOrds(len(term.Filters)))
		if err != nil {
			t.Fatalf("term %d: BindIndexed: %v", ti, err)
		}
		generic, err := r.BuildRequest(term)
		if err != nil {
			t.Fatalf("term %d: BuildRequest: %v", ti, err)
		}
		if !reflect.DeepEqual(bound, generic) {
			t.Fatalf("term %d: template request %+v != generic request %+v", ti, bound, generic)
		}
		// Rebinding with different literal values must track the generic
		// path too (the template is compiled once per shape).
		shifted := make([]query.Predicate, len(term.Filters))
		for i, p := range term.Filters {
			p.Value++
			shifted[i] = p
		}
		term2 := term
		term2.Filters = shifted
		bound2, err := tmpl.BindIndexed(shifted, allOrds(len(shifted)))
		if err != nil {
			t.Fatalf("term %d: rebind failed: %v", ti, err)
		}
		generic2, err := r.BuildRequest(term2)
		if err != nil {
			t.Fatalf("term %d: BuildRequest rebind: %v", ti, err)
		}
		if !reflect.DeepEqual(bound2, generic2) {
			t.Fatalf("term %d rebind: template %+v != generic %+v", ti, bound2, generic2)
		}
	}
}

// TestTemplateBindIndexed: binding through kept ordinals against the full
// predicate list equals binding the filtered copy.
func TestTemplateBindIndexed(t *testing.T) {
	r := templateFixture(t)
	full := []query.Predicate{
		{Column: "other_table_col", Op: query.Eq, Value: 9}, // not kept
		{Column: "a", Op: query.Lt, Value: 3},
		{Column: "city", Op: query.Eq, Value: 11},
	}
	kept := full[1:]
	term := Term{Filters: kept}
	tmpl, err := r.CompileTerm(term)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := tmpl.BindIndexed(kept, allOrds(len(kept)))
	if err != nil {
		t.Fatalf("direct bind failed: %v", err)
	}
	indexed, err := tmpl.BindIndexed(full, []int{1, 2})
	if err != nil {
		t.Fatalf("indexed bind failed: %v", err)
	}
	if !reflect.DeepEqual(direct, indexed) {
		t.Fatalf("indexed %+v != direct %+v", indexed, direct)
	}
	// Shape mismatches are errors, never a mis-bound request.
	if _, err := tmpl.BindIndexed(full, []int{0, 2}); err == nil {
		t.Fatal("expected shape-mismatch error for wrong column")
	}
	if _, err := tmpl.BindIndexed(full, []int{1}); err == nil {
		t.Fatal("expected shape-mismatch error for wrong arity")
	}
	if _, err := tmpl.BindIndexed(full, []int{1, 99}); err == nil {
		t.Fatal("expected shape-mismatch error for out-of-range ordinal")
	}
}

// TestTemplateValuesFinite guards the fixture itself: the bound requests
// must evaluate to finite values on the model.
func TestTemplateValuesFinite(t *testing.T) {
	r := templateFixture(t)
	for ti, term := range templateTerms() {
		v, err := r.Expectation(term)
		if err != nil {
			t.Fatalf("term %d: %v", ti, err)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("term %d: non-finite expectation %v", ti, v)
		}
	}
}
