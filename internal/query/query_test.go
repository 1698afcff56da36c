package query

import (
	"fmt"
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestPredicateMatches(t *testing.T) {
	cases := []struct {
		pred Predicate
		v    float64
		want bool
	}{
		{Predicate{Column: "a", Op: Eq, Value: 5}, 5, true},
		{Predicate{Column: "a", Op: Eq, Value: 5}, 6, false},
		{Predicate{Column: "a", Op: Ne, Value: 5}, 6, true},
		{Predicate{Column: "a", Op: Lt, Value: 5}, 4, true},
		{Predicate{Column: "a", Op: Lt, Value: 5}, 5, false},
		{Predicate{Column: "a", Op: Le, Value: 5}, 5, true},
		{Predicate{Column: "a", Op: Gt, Value: 5}, 6, true},
		{Predicate{Column: "a", Op: Ge, Value: 5}, 5, true},
		{Predicate{Column: "a", Op: In, Values: []float64{1, 3, 5}}, 3, true},
		{Predicate{Column: "a", Op: In, Values: []float64{1, 3, 5}}, 4, false},
	}
	for _, c := range cases {
		if got := c.pred.Matches(c.v); got != c.want {
			t.Errorf("%v matches %v = %v, want %v", c.pred, c.v, got, c.want)
		}
	}
}

func TestQueryValidate(t *testing.T) {
	good := Query{Aggregate: Count, Tables: []string{"t"}}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Query{Aggregate: Count}).Validate(); err == nil {
		t.Fatal("expected error for no tables")
	}
	if err := (Query{Aggregate: Avg, Tables: []string{"t"}}).Validate(); err == nil {
		t.Fatal("expected error for AVG without column")
	}
	bad := Query{Aggregate: Count, Tables: []string{"t"},
		Filters: []Predicate{{Column: "a", Op: In}}}
	if err := bad.Validate(); err == nil {
		t.Fatal("expected error for empty IN list")
	}
}

func TestQErrorSymmetric(t *testing.T) {
	if q := QError(10, 100); q != 10 {
		t.Fatalf("QError(10,100) = %v, want 10", q)
	}
	if q := QError(1000, 100); q != 10 {
		t.Fatalf("QError(1000,100) = %v, want 10", q)
	}
	if q := QError(100, 100); q != 1 {
		t.Fatalf("QError(100,100) = %v, want 1", q)
	}
	// Clamping: estimates below 1 are lifted to 1.
	if q := QError(0, 10); q != 10 {
		t.Fatalf("QError(0,10) = %v, want 10", q)
	}
}

func TestQErrorAlwaysAtLeastOne(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		return QError(math.Abs(a), math.Abs(b)) >= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRelativeError(t *testing.T) {
	if e := RelativeError(90, 100); math.Abs(e-0.1) > 1e-12 {
		t.Fatalf("RelativeError = %v, want 0.1", e)
	}
	if e := RelativeError(0, 0); e != 0 {
		t.Fatalf("RelativeError(0,0) = %v, want 0", e)
	}
	if e := RelativeError(5, 0); e != 1 {
		t.Fatalf("RelativeError(5,0) = %v, want 1", e)
	}
}

func TestAvgRelativeErrorGroupMatching(t *testing.T) {
	truth := Result{Groups: []Group{
		{Key: []float64{1}, Value: 100},
		{Key: []float64{2}, Value: 200},
	}}
	est := Result{Groups: []Group{
		{Key: []float64{1}, Value: 110}, // 10% error
		// group 2 missing -> error 1
	}}
	got := AvgRelativeError(est, truth)
	want := (0.1 + 1.0) / 2
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("AvgRelativeError = %v, want %v", got, want)
	}
}

func TestWithExtraFilterDoesNotAlias(t *testing.T) {
	q := Query{Aggregate: Count, Tables: []string{"t"},
		Filters: []Predicate{{Column: "a", Op: Eq, Value: 1}}}
	q2 := q.WithExtraFilter(Predicate{Column: "b", Op: Eq, Value: 2})
	if len(q.Filters) != 1 || len(q2.Filters) != 2 {
		t.Fatal("WithExtraFilter must not mutate the original")
	}
	q2.Filters[0].Value = 99
	if q.Filters[0].Value != 1 {
		t.Fatal("filters alias the original slice")
	}
}

func TestResultSortedAndScalar(t *testing.T) {
	r := Result{Groups: []Group{
		{Key: []float64{2, 1}, Value: 20},
		{Key: []float64{1, 5}, Value: 10},
		{Key: []float64{1, 2}, Value: 15},
	}}
	s := r.Sorted()
	if s[0].Value != 15 || s[1].Value != 10 || s[2].Value != 20 {
		t.Fatalf("Sorted order wrong: %v", s)
	}
	if (Result{}).Scalar() != 0 {
		t.Fatal("empty result scalar should be 0")
	}
}

func TestQueryString(t *testing.T) {
	q := Query{Aggregate: Avg, AggColumn: "c_age", Tables: []string{"customer", "orders"},
		Filters: []Predicate{{Column: "c_region", Op: Eq, Value: 0},
			{Column: "c_age", Op: In, Values: []float64{20, 30}}},
		GroupBy: []string{"o_channel"}}
	s := q.String()
	for _, want := range []string{"AVG(c_age)", "customer JOIN orders", "c_region = 0", "IN [20 30]", "GROUP BY o_channel"} {
		if !contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(s) > 0 && (func() bool {
		for i := 0; i+len(sub) <= len(s); i++ {
			if s[i:i+len(sub)] == sub {
				return true
			}
		}
		return false
	})())
}

func TestParseCount(t *testing.T) {
	q, err := Parse("SELECT COUNT(*) FROM customer WHERE c_age >= 30 AND c_age < 60", nil)
	if err != nil {
		t.Fatal(err)
	}
	if q.Aggregate != Count || len(q.Tables) != 1 || q.Tables[0] != "customer" {
		t.Fatalf("parsed %+v", q)
	}
	if len(q.Filters) != 2 || q.Filters[0].Op != Ge || q.Filters[1].Op != Lt {
		t.Fatalf("filters %+v", q.Filters)
	}
}

func TestParseStringLiteral(t *testing.T) {
	resolve := func(col, lit string) (float64, error) {
		if col == "c_region" && lit == "EUROPE" {
			return 7, nil
		}
		return 0, fmt.Errorf("unknown literal")
	}
	q, err := Parse("SELECT COUNT(*) FROM customer C WHERE c_region = 'EUROPE'", resolve)
	if err != nil {
		t.Fatal(err)
	}
	if q.Filters[0].Value != 7 {
		t.Fatalf("resolved value = %v, want 7", q.Filters[0].Value)
	}
}

func TestParseJoinForms(t *testing.T) {
	for _, sql := range []string{
		"SELECT COUNT(*) FROM customer NATURAL JOIN orders",
		"SELECT COUNT(*) FROM customer JOIN orders",
		"SELECT COUNT(*) FROM customer, orders",
		"SELECT COUNT(*) FROM customer C NATURAL JOIN orders O",
	} {
		q, err := Parse(sql, nil)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		if len(q.Tables) != 2 {
			t.Fatalf("%s: tables = %v", sql, q.Tables)
		}
	}
}

func TestParseAggAndGroupBy(t *testing.T) {
	q, err := Parse("SELECT AVG(c_age) FROM customer GROUP BY c_region, c_city", nil)
	if err != nil {
		t.Fatal(err)
	}
	if q.Aggregate != Avg || q.AggColumn != "c_age" {
		t.Fatalf("agg %+v", q)
	}
	if len(q.GroupBy) != 2 {
		t.Fatalf("group by %v", q.GroupBy)
	}
	q2, err := Parse("SELECT SUM(lo_revenue) FROM lineorder WHERE lo_discount IN (1, 2, 3)", nil)
	if err != nil {
		t.Fatal(err)
	}
	if q2.Aggregate != Sum || len(q2.Filters[0].Values) != 3 {
		t.Fatalf("parsed %+v", q2)
	}
}

func TestParseQualifiedColumn(t *testing.T) {
	q, err := Parse("SELECT COUNT(*) FROM customer C WHERE C.c_age > 5", nil)
	if err != nil {
		t.Fatal(err)
	}
	if q.Filters[0].Column != "c_age" {
		t.Fatalf("qualifier not stripped: %q", q.Filters[0].Column)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT MAX(x) FROM t",
		"SELECT COUNT(*) FROM",
		"SELECT COUNT(*) FROM t WHERE",
		"SELECT COUNT(*) FROM t WHERE a ~ 5",
		"SELECT COUNT(*) FROM t WHERE a = 'unterminated",
		"SELECT COUNT(*) FROM t trailing garbage (",
		"SELECT AVG() FROM t",
	}
	for _, sql := range bad {
		if _, err := Parse(sql, nil); err == nil {
			t.Errorf("Parse(%q) should fail", sql)
		}
	}
	// String literal without resolver must fail.
	if _, err := Parse("SELECT COUNT(*) FROM t WHERE a = 'x'", nil); err == nil {
		t.Error("expected error for string literal without resolver")
	}
}

// TestParsePlaceholders: ? comparison values become ordinal-numbered
// parameters that Bind substitutes positionally.
func TestParsePlaceholders(t *testing.T) {
	q, err := Parse("SELECT COUNT(*) FROM t WHERE a >= ? AND b = 3 AND (c < ? OR d > ?)", nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := q.NumParams(); n != 3 {
		t.Fatalf("NumParams = %d, want 3", n)
	}
	if q.Filters[0].Param != 1 || q.Filters[1].Param != 0 || q.Disjunction[0].Param != 2 || q.Disjunction[1].Param != 3 {
		t.Fatalf("ordinals wrong: %+v / %+v", q.Filters, q.Disjunction)
	}
	if s := q.String(); !contains(s, "a >= ?") {
		t.Fatalf("String() should render placeholders: %s", s)
	}
	bound, err := q.Bind(10, 20, 30)
	if err != nil {
		t.Fatal(err)
	}
	if bound.Filters[0].Value != 10 || bound.Disjunction[0].Value != 20 || bound.Disjunction[1].Value != 30 {
		t.Fatalf("bound values wrong: %+v / %+v", bound.Filters, bound.Disjunction)
	}
	if bound.NumParams() != 0 {
		t.Fatal("bound query still has parameters")
	}
	// Binding must not mutate the template.
	if q.Filters[0].Param != 1 || q.Filters[0].Value != 0 {
		t.Fatalf("template mutated by Bind: %+v", q.Filters[0])
	}
	if _, err := q.Bind(1, 2); err == nil {
		t.Fatal("arity mismatch must fail")
	}
	if _, err := Parse("SELECT COUNT(*) FROM t WHERE a IN (1, ?)", nil); err == nil {
		t.Fatal("placeholder inside IN must fail")
	}
}

// TestValidateParamOrdinals: hand-built queries with gapped or repeated
// ordinals are rejected.
func TestValidateParamOrdinals(t *testing.T) {
	q := Query{Tables: []string{"t"}, Filters: []Predicate{
		{Column: "a", Op: Lt, Param: 2},
	}}
	if err := q.Validate(); err == nil {
		t.Fatal("gapped ordinals must fail validation")
	}
	q.Filters = []Predicate{{Column: "a", Op: Lt, Param: 1}, {Column: "b", Op: Gt, Param: 1}}
	if err := q.Validate(); err == nil {
		t.Fatal("repeated ordinals must fail validation")
	}
}

// TestShapeKey: the key ignores values and parameter markers but keeps
// everything that picks a plan.
func TestShapeKey(t *testing.T) {
	base := Query{Aggregate: Count, Tables: []string{"a", "b"},
		Filters: []Predicate{{Column: "x", Op: Lt, Value: 1}}}
	same := base
	same.Filters = []Predicate{{Column: "x", Op: Lt, Param: 1}}
	if base.ShapeKey() != same.ShapeKey() {
		t.Fatalf("value vs placeholder changed the shape:\n%s\n%s", base.ShapeKey(), same.ShapeKey())
	}
	if !SameShape(base, same) {
		t.Fatal("SameShape disagrees with ShapeKey")
	}
	for _, diff := range []Query{
		{Aggregate: Sum, AggColumn: "x", Tables: []string{"a", "b"}, Filters: base.Filters},
		{Aggregate: Count, Tables: []string{"a"}, Filters: base.Filters},
		{Aggregate: Count, Tables: []string{"a", "b"}, Filters: []Predicate{{Column: "x", Op: Le, Value: 1}}},
		{Aggregate: Count, Tables: []string{"a", "b"}, Filters: []Predicate{{Column: "y", Op: Lt, Value: 1}}},
		{Aggregate: Count, Tables: []string{"a", "b"}, Filters: base.Filters, GroupBy: []string{"g"}},
		{Aggregate: Count, Tables: []string{"a", "b"}, OuterTables: []string{"b"}, Filters: base.Filters},
		{Aggregate: Count, Tables: []string{"a", "b"}, Filters: base.Filters,
			Disjunction: []Predicate{{Column: "z", Op: Eq, Value: 0}}},
	} {
		if base.ShapeKey() == diff.ShapeKey() {
			t.Fatalf("distinct query shares shape key: %v", diff)
		}
		if SameShape(base, diff) {
			t.Fatalf("SameShape true for distinct query: %v", diff)
		}
	}
}

// Sorted returns the groups ordered by key for deterministic comparison.
func (r Result) Sorted() []Group {
	out := append([]Group(nil), r.Groups...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Key, out[j].Key
		for k := 0; k < len(a) && k < len(b); k++ {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return len(a) < len(b)
	})
	return out
}
