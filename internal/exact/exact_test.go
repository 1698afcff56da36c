package exact

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/query"
	"repro/internal/schema"
	"repro/internal/table"
)

// figure5 builds the paper's running example: 3 customers, 4 orders.
func figure5(t *testing.T) (*schema.Schema, map[string]*table.Table) {
	t.Helper()
	s := &schema.Schema{Tables: []*schema.Table{
		{
			Name: "customer",
			Columns: []schema.Column{
				{Name: "c_id", Kind: schema.IntKind},
				{Name: "c_age", Kind: schema.IntKind},
				{Name: "c_region", Kind: schema.CategoricalKind},
			},
			PrimaryKey: "c_id",
		},
		{
			Name: "orders",
			Columns: []schema.Column{
				{Name: "o_id", Kind: schema.IntKind},
				{Name: "o_c_id", Kind: schema.IntKind},
				{Name: "o_channel", Kind: schema.CategoricalKind},
			},
			PrimaryKey: "o_id",
			ForeignKeys: []schema.ForeignKey{
				{Column: "o_c_id", RefTable: "customer", RefColumn: "c_id"},
			},
		},
	}}
	cust := table.New(s.Table("customer"))
	reg := cust.Column("c_region")
	eu := float64(reg.Encode("EUROPE"))
	asia := float64(reg.Encode("ASIA"))
	cust.AppendRow(table.Int(1), table.Int(20), table.Float(eu))
	cust.AppendRow(table.Int(2), table.Int(50), table.Float(eu))
	cust.AppendRow(table.Int(3), table.Int(80), table.Float(asia))
	ord := table.New(s.Table("orders"))
	ch := ord.Column("o_channel")
	online := float64(ch.Encode("ONLINE"))
	store := float64(ch.Encode("STORE"))
	ord.AppendRow(table.Int(1), table.Int(1), table.Float(online))
	ord.AppendRow(table.Int(2), table.Int(1), table.Float(store))
	ord.AppendRow(table.Int(3), table.Int(3), table.Float(online))
	ord.AppendRow(table.Int(4), table.Int(3), table.Float(store))
	return s, map[string]*table.Table{"customer": cust, "orders": ord}
}

func regionCode(tabs map[string]*table.Table, name string) float64 {
	return float64(tabs["customer"].Column("c_region").Lookup(name))
}

func channelCode(tabs map[string]*table.Table, name string) float64 {
	return float64(tabs["orders"].Column("o_channel").Lookup(name))
}

func TestQ1CountEuropeanCustomers(t *testing.T) {
	s, tabs := figure5(t)
	e := New(s, tabs)
	// Paper Q1: COUNT(*) FROM customer WHERE c_region='EUROPE' = 2.
	res, err := e.Execute(query.Query{
		Aggregate: query.Count,
		Tables:    []string{"customer"},
		Filters:   []query.Predicate{{Column: "c_region", Op: query.Eq, Value: regionCode(tabs, "EUROPE")}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Scalar() != 2 {
		t.Fatalf("Q1 = %v, want 2", res.Scalar())
	}
}

func TestQ2JoinCount(t *testing.T) {
	s, tabs := figure5(t)
	e := New(s, tabs)
	// Paper Q2: COUNT(*) FROM customer JOIN orders WHERE region=EU AND
	// channel=ONLINE = 1.
	res, err := e.Execute(query.Query{
		Aggregate: query.Count,
		Tables:    []string{"customer", "orders"},
		Filters: []query.Predicate{
			{Column: "c_region", Op: query.Eq, Value: regionCode(tabs, "EUROPE")},
			{Column: "o_channel", Op: query.Eq, Value: channelCode(tabs, "ONLINE")},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Scalar() != 1 {
		t.Fatalf("Q2 = %v, want 1", res.Scalar())
	}
}

func TestQ3AvgAge(t *testing.T) {
	s, tabs := figure5(t)
	e := New(s, tabs)
	// Paper Q3: AVG(c_age) WHERE c_region='EUROPE' = 35.
	res, err := e.Execute(query.Query{
		Aggregate: query.Avg, AggColumn: "c_age",
		Tables:  []string{"customer"},
		Filters: []query.Predicate{{Column: "c_region", Op: query.Eq, Value: regionCode(tabs, "EUROPE")}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Scalar() != 35 {
		t.Fatalf("Q3 = %v, want 35", res.Scalar())
	}
}

func TestSumEqualsCountTimesAvg(t *testing.T) {
	s, tabs := figure5(t)
	e := New(s, tabs)
	base := query.Query{Tables: []string{"customer"}}
	sumQ := base
	sumQ.Aggregate = query.Sum
	sumQ.AggColumn = "c_age"
	sum, err := e.Execute(sumQ)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Scalar() != 150 {
		t.Fatalf("SUM = %v, want 150", sum.Scalar())
	}
}

func TestGroupBy(t *testing.T) {
	s, tabs := figure5(t)
	e := New(s, tabs)
	res, err := e.Execute(query.Query{
		Aggregate: query.Count,
		Tables:    []string{"customer"},
		GroupBy:   []string{"c_region"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 2 {
		t.Fatalf("groups = %d, want 2", len(res.Groups))
	}
	total := 0.0
	for _, g := range res.Groups {
		total += g.Value
	}
	if total != 3 {
		t.Fatalf("group counts sum to %v, want 3", total)
	}
}

func TestGroupByJoinAvg(t *testing.T) {
	s, tabs := figure5(t)
	e := New(s, tabs)
	res, err := e.Execute(query.Query{
		Aggregate: query.Avg, AggColumn: "c_age",
		Tables:  []string{"customer", "orders"},
		GroupBy: []string{"o_channel"},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Join has customers 1 (age 20) and 3 (age 80), each with one ONLINE and
	// one STORE order: both groups average 50.
	if len(res.Groups) != 2 {
		t.Fatalf("groups = %d, want 2", len(res.Groups))
	}
	for _, g := range res.Groups {
		if g.Value != 50 {
			t.Fatalf("group %v avg = %v, want 50", g.Key, g.Value)
		}
	}
}

func TestNullHandling(t *testing.T) {
	meta := &schema.Table{Name: "t", Columns: []schema.Column{
		{Name: "x", Kind: schema.FloatKind, Nullable: true},
		{Name: "y", Kind: schema.FloatKind, Nullable: true},
	}}
	tb := table.New(meta)
	tb.AppendRow(table.Float(1), table.Float(10))
	tb.AppendRow(table.Null(), table.Float(20))
	tb.AppendRow(table.Float(3), table.Null())
	s := &schema.Schema{Tables: []*schema.Table{meta}}
	e := New(s, map[string]*table.Table{"t": tb})

	// Predicate on x: NULL row must not match x > 0.
	res, err := e.Execute(query.Query{Aggregate: query.Count, Tables: []string{"t"},
		Filters: []query.Predicate{{Column: "x", Op: query.Gt, Value: 0}}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Scalar() != 2 {
		t.Fatalf("COUNT with x>0 = %v, want 2 (NULL excluded)", res.Scalar())
	}
	// AVG(y) ignores the NULL y.
	res, err = e.Execute(query.Query{Aggregate: query.Avg, AggColumn: "y", Tables: []string{"t"}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Scalar() != 15 {
		t.Fatalf("AVG(y) = %v, want 15", res.Scalar())
	}
}

func TestCardinalityHelper(t *testing.T) {
	s, tabs := figure5(t)
	e := New(s, tabs)
	card, err := e.Cardinality(query.Query{
		Aggregate: query.Avg, AggColumn: "c_age", // aggregate should be ignored
		Tables:  []string{"customer", "orders"},
		GroupBy: []string{"o_channel"}, // group-by ignored too
	})
	if err != nil {
		t.Fatal(err)
	}
	if card != 4 {
		t.Fatalf("Cardinality = %v, want 4", card)
	}
}

func TestDistinctValuesAndJoinSize(t *testing.T) {
	s, tabs := figure5(t)
	e := New(s, tabs)
	vals, err := e.DistinctValues([]string{"customer"}, "c_region")
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 2 {
		t.Fatalf("distinct regions = %d, want 2", len(vals))
	}
	js, err := e.JoinSize([]string{"customer", "orders"})
	if err != nil {
		t.Fatal(err)
	}
	if js != 4 {
		t.Fatalf("join size = %v, want 4", js)
	}
}

func TestJoinCacheReuse(t *testing.T) {
	s, tabs := figure5(t)
	e := New(s, tabs)
	if _, err := e.JoinSize([]string{"customer", "orders"}); err != nil {
		t.Fatal(err)
	}
	// Same set in different order must hit the cache (one entry).
	if _, err := e.JoinSize([]string{"orders", "customer"}); err != nil {
		t.Fatal(err)
	}
	if len(e.joinCache) != 1 {
		t.Fatalf("join cache entries = %d, want 1", len(e.joinCache))
	}
}

func TestExecuteErrors(t *testing.T) {
	s, tabs := figure5(t)
	e := New(s, tabs)
	if _, err := e.Execute(query.Query{Aggregate: query.Count, Tables: []string{"nope"}}); err == nil {
		t.Fatal("expected error for unknown table")
	}
	if _, err := e.Execute(query.Query{Aggregate: query.Count, Tables: []string{"customer"},
		Filters: []query.Predicate{{Column: "nope", Op: query.Eq}}}); err == nil {
		t.Fatal("expected error for unknown filter column")
	}
	if _, err := e.Execute(query.Query{Aggregate: query.Avg, AggColumn: "nope",
		Tables: []string{"customer"}}); err == nil {
		t.Fatal("expected error for unknown aggregate column")
	}
	if _, err := e.Execute(query.Query{Aggregate: query.Count, Tables: []string{"customer"},
		GroupBy: []string{"nope"}}); err == nil {
		t.Fatal("expected error for unknown group-by column")
	}
}

func TestAvgEmptySelection(t *testing.T) {
	s, tabs := figure5(t)
	e := New(s, tabs)
	res, err := e.Execute(query.Query{Aggregate: query.Avg, AggColumn: "c_age",
		Tables:  []string{"customer"},
		Filters: []query.Predicate{{Column: "c_age", Op: query.Gt, Value: 1000}}})
	if err != nil {
		t.Fatal(err)
	}
	if !(res.Scalar() == 0 || math.IsNaN(res.Scalar())) {
		t.Fatalf("AVG over empty selection = %v, want 0", res.Scalar())
	}
}

// DistinctValues returns the sorted distinct non-NULL values of a column in
// the inner join of the given tables.
func (e *Engine) DistinctValues(tables []string, column string) ([]float64, error) {
	j, err := e.materialize(tables, nil)
	if err != nil {
		return nil, err
	}
	c := j.Column(column)
	if c == nil {
		return nil, fmt.Errorf("exact: unknown column %s", column)
	}
	seen := make(map[float64]bool)
	for i := 0; i < j.NumRows(); i++ {
		if !c.Nul[i] {
			seen[c.Data[i]] = true
		}
	}
	out := make([]float64, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Float64s(out)
	return out, nil
}
