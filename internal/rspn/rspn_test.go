package rspn

import (
	"context"
	"math"
	"testing"

	"repro/internal/query"
	"repro/internal/schema"
	"repro/internal/spn"
	"repro/internal/table"
)

// paperData builds the Figure 5 schema and tables with tuple factors.
func paperData(t *testing.T) (*schema.Schema, map[string]*table.Table, schema.Relationship) {
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
	tabs := map[string]*table.Table{"customer": cust, "orders": ord}
	rel := s.Relationships()[0]
	if err := table.AddTupleFactor(tabs["customer"], tabs["orders"], rel); err != nil {
		t.Fatal(err)
	}
	return s, tabs, rel
}

// exactOpts uses the memorizing learner so the model represents the 3-5 row
// paper tables exactly, as the worked examples in Figures 3-5 assume.
func exactOpts() LearnOptions {
	o := DefaultLearnOptions()
	o.Exact = true
	return o
}

// learnJoint learns the Figure 5b joint RSPN over the full outer join.
func learnJoint(t *testing.T, s *schema.Schema, tabs map[string]*table.Table, rel schema.Relationship) *RSPN {
	t.Helper()
	spec := table.JoinSpec{Tables: []string{"customer", "orders"}, Edges: []schema.Relationship{rel}}
	j, err := table.FullOuterJoin(tabs, spec)
	if err != nil {
		t.Fatal(err)
	}
	cols := LearnColumns(s, j, spec.Tables, nil)
	r, err := Learn(context.Background(), j, spec.Tables, spec.Edges, cols, nil, exactOpts())
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestLearnColumnsExcludesKeys(t *testing.T) {
	s, tabs, _ := paperData(t)
	cols := LearnColumns(s, tabs["customer"], []string{"customer"}, nil)
	for _, c := range cols {
		if c == "c_id" {
			t.Fatal("primary key should be excluded from learning")
		}
	}
	found := map[string]bool{}
	for _, c := range cols {
		found[c] = true
	}
	if !found["c_age"] || !found["c_region"] || !found["__fk_customer<-orders"] {
		t.Fatalf("learn columns = %v", cols)
	}
}

func TestCase1SingleTableCount(t *testing.T) {
	s, tabs, _ := paperData(t)
	cols := LearnColumns(s, tabs["customer"], []string{"customer"}, nil)
	r, err := Learn(context.Background(), tabs["customer"], []string{"customer"}, nil, cols, nil, exactOpts())
	if err != nil {
		t.Fatal(err)
	}
	// Q1: COUNT customers WHERE region=EUROPE -> 2.
	eu := float64(tabs["customer"].Column("c_region").Lookup("EUROPE"))
	e, err := r.Expectation(Term{
		Filters:     []query.Predicate{{Column: "c_region", Op: query.Eq, Value: eu}},
		InnerTables: []string{"customer"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.FullSize * e; math.Abs(got-2) > 1e-9 {
		t.Fatalf("Q1 estimate = %v, want 2", got)
	}
}

func TestCase1JoinCount(t *testing.T) {
	s, tabs, rel := paperData(t)
	r := learnJoint(t, s, tabs, rel)
	if r.FullSize != 5 {
		t.Fatalf("full outer join size = %v, want 5", r.FullSize)
	}
	eu := float64(tabs["customer"].Column("c_region").Lookup("EUROPE"))
	online := float64(tabs["orders"].Column("o_channel").Lookup("ONLINE"))
	// Q2 via the joint RSPN: |J| * P(EU, ONLINE, N_C=1, N_O=1) = 5 * 1/5 = 1.
	e, err := r.Expectation(Term{
		Filters: []query.Predicate{
			{Column: "c_region", Op: query.Eq, Value: eu},
			{Column: "o_channel", Op: query.Eq, Value: online},
		},
		InnerTables: []string{"customer", "orders"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.FullSize * e; math.Abs(got-1) > 1e-9 {
		t.Fatalf("Q2 estimate = %v, want 1", got)
	}
}

func TestCase2LargerRSPNWithTupleFactorNormalization(t *testing.T) {
	s, tabs, rel := paperData(t)
	r := learnJoint(t, s, tabs, rel)
	eu := float64(tabs["customer"].Column("c_region").Lookup("EUROPE"))
	// Count of European customers from the join RSPN (paper Section 4.1
	// Case 2): |J| * E(1/F' * 1_EU * N_C) = 5 * (1/2 + 1/2 + 1)/5 = 2.
	invCols := r.InverseFactorColumns([]string{"customer"})
	if len(invCols) != 1 || invCols[0] != table.TupleFactorColumn(rel) {
		t.Fatalf("inverse factor columns = %v", invCols)
	}
	fns := map[string]spn.Fn{invCols[0]: spn.FnInv}
	e, err := r.Expectation(Term{
		Fns:         fns,
		Filters:     []query.Predicate{{Column: "c_region", Op: query.Eq, Value: eu}},
		InnerTables: []string{"customer"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.FullSize * e; math.Abs(got-2) > 1e-9 {
		t.Fatalf("Case 2 estimate = %v, want 2 (paper)", got)
	}
}

func TestCase2AvgWithNormalization(t *testing.T) {
	s, tabs, rel := paperData(t)
	r := learnJoint(t, s, tabs, rel)
	eu := float64(tabs["customer"].Column("c_region").Lookup("EUROPE"))
	fcol := table.TupleFactorColumn(rel)
	// Paper Section 4.2: AVG(c_age | EU) on the join RSPN is
	// E(age/F' | EU) / E(1/F' | EU) = (20/2+20/2+50) / (1/2+1/2+1) = 35.
	num, err := r.Expectation(Term{
		Fns:         map[string]spn.Fn{fcol: spn.FnInv, "c_age": spn.FnIdent},
		Filters:     []query.Predicate{{Column: "c_region", Op: query.Eq, Value: eu}},
		InnerTables: []string{"customer"},
	})
	if err != nil {
		t.Fatal(err)
	}
	den, err := r.Expectation(Term{
		Fns:         map[string]spn.Fn{fcol: spn.FnInv},
		Filters:     []query.Predicate{{Column: "c_region", Op: query.Eq, Value: eu}},
		InnerTables: []string{"customer"},
		NotNull:     []string{"c_age"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := num / den; math.Abs(got-35) > 1e-9 {
		t.Fatalf("AVG estimate = %v, want 35 (paper)", got)
	}
}

func TestCase3SingleTableFactors(t *testing.T) {
	s, tabs, rel := paperData(t)
	// Single-table customer RSPN keeps raw factors including 0.
	cols := LearnColumns(s, tabs["customer"], []string{"customer"}, nil)
	rc, err := Learn(context.Background(), tabs["customer"], []string{"customer"}, nil, cols, nil, exactOpts())
	if err != nil {
		t.Fatal(err)
	}
	eu := float64(tabs["customer"].Column("c_region").Lookup("EUROPE"))
	// Paper Case 3, QL part: |C| * E(1_EU * F_C<-O) = 3 * (2+0)/3 = 2.
	ql, err := rc.Expectation(Term{
		Fns:     map[string]spn.Fn{table.TupleFactorColumn(rel): spn.FnIdent},
		Filters: []query.Predicate{{Column: "c_region", Op: query.Eq, Value: eu}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := rc.FullSize * ql; math.Abs(got-2) > 1e-9 {
		t.Fatalf("QL estimate = %v, want 2 (paper)", got)
	}
	// QR part on the orders RSPN: E(1_ONLINE) = 1/2.
	ocols := LearnColumns(s, tabs["orders"], []string{"orders"}, nil)
	ro, err := Learn(context.Background(), tabs["orders"], []string{"orders"}, nil, ocols, nil, exactOpts())
	if err != nil {
		t.Fatal(err)
	}
	online := float64(tabs["orders"].Column("o_channel").Lookup("ONLINE"))
	qr, err := ro.Expectation(Term{
		Filters: []query.Predicate{{Column: "o_channel", Op: query.Eq, Value: online}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(qr-0.5) > 1e-9 {
		t.Fatalf("QR selectivity = %v, want 0.5", qr)
	}
	// Combined Theorem 2 estimate: 2 * 0.5 / 1 = 1 = true Q2 result.
	if got := rc.FullSize * ql * qr; math.Abs(got-1) > 1e-9 {
		t.Fatalf("Case 3 estimate = %v, want 1", got)
	}
}

func TestFunctionalDependencyTranslation(t *testing.T) {
	// Table with FD: zip -> city.
	meta := &schema.Table{Name: "addr", Columns: []schema.Column{
		{Name: "zip", Kind: schema.IntKind},
		{Name: "city", Kind: schema.CategoricalKind},
	}, FDs: []schema.FunctionalDependency{{Determinant: "zip", Dependent: "city"}}}
	tb := table.New(meta)
	city := tb.Column("city")
	a := float64(city.Encode("A"))
	b := float64(city.Encode("B"))
	tb.AppendRow(table.Int(10), table.Float(a))
	tb.AppendRow(table.Int(10), table.Float(a))
	tb.AppendRow(table.Int(20), table.Float(a))
	tb.AppendRow(table.Int(30), table.Float(b))
	fd, err := BuildFD(tb, meta.FDs[0])
	if err != nil {
		t.Fatal(err)
	}
	s := &schema.Schema{Tables: []*schema.Table{meta}}
	cols := LearnColumns(s, tb, []string{"addr"}, []FD{fd})
	for _, c := range cols {
		if c == "city" {
			t.Fatal("FD-dependent column must be excluded from learning")
		}
	}
	r, err := Learn(context.Background(), tb, []string{"addr"}, nil, cols, []FD{fd}, exactOpts())
	if err != nil {
		t.Fatal(err)
	}
	// Query on the dependent column: city = 'A' -> zip IN (10, 20) -> 3 rows.
	e, err := r.Expectation(Term{
		Filters: []query.Predicate{{Column: "city", Op: query.Eq, Value: a}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.FullSize * e; math.Abs(got-3) > 1e-9 {
		t.Fatalf("FD-translated count = %v, want 3", got)
	}
	if !r.ResolvesColumn("city") || r.HasColumn("city") {
		t.Fatal("city should resolve via FD but not be a model column")
	}
}

func TestBuildFDViolation(t *testing.T) {
	meta := &schema.Table{Name: "t", Columns: []schema.Column{
		{Name: "a", Kind: schema.IntKind},
		{Name: "b", Kind: schema.IntKind},
	}}
	tb := table.New(meta)
	tb.AppendRow(table.Int(1), table.Int(10))
	tb.AppendRow(table.Int(1), table.Int(20)) // violates a -> b
	if _, err := BuildFD(tb, schema.FunctionalDependency{Determinant: "a", Dependent: "b"}); err == nil {
		t.Fatal("expected FD violation error")
	}
}

func TestIntersectRanges(t *testing.T) {
	inf := math.Inf(1)
	a := []spn.Range{{Lo: -inf, Hi: 50, LoIncl: true, HiIncl: false}} // x < 50
	b := []spn.Range{{Lo: 30, Hi: inf, LoIncl: true, HiIncl: true}}   // x >= 30
	got := IntersectRanges(a, b)
	if len(got) != 1 || got[0].Lo != 30 || got[0].Hi != 50 || !got[0].LoIncl || got[0].HiIncl {
		t.Fatalf("intersection = %+v", got)
	}
	// Disjoint: empty.
	c := []spn.Range{spn.PointRange(100)}
	if out := IntersectRanges(a, c); len(out) != 0 {
		t.Fatalf("disjoint intersection = %+v", out)
	}
	// Point boundary: x <= 50 intersect x >= 50 = {50}.
	d := []spn.Range{{Lo: -inf, Hi: 50, LoIncl: true, HiIncl: true}}
	e := []spn.Range{{Lo: 50, Hi: inf, LoIncl: true, HiIncl: true}}
	out := IntersectRanges(d, e)
	if len(out) != 1 || out[0].Lo != 50 || out[0].Hi != 50 {
		t.Fatalf("point intersection = %+v", out)
	}
}

func TestConflictingPredicatesGiveZero(t *testing.T) {
	s, tabs, _ := paperData(t)
	cols := LearnColumns(s, tabs["customer"], []string{"customer"}, nil)
	r, err := Learn(context.Background(), tabs["customer"], []string{"customer"}, nil, cols, nil, exactOpts())
	if err != nil {
		t.Fatal(err)
	}
	e, err := r.Expectation(Term{Filters: []query.Predicate{
		{Column: "c_age", Op: query.Lt, Value: 30},
		{Column: "c_age", Op: query.Gt, Value: 60},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if e != 0 {
		t.Fatalf("contradictory predicates: expectation = %v, want 0", e)
	}
}

func TestPredicateRanges(t *testing.T) {
	rs := PredicateRanges(query.Predicate{Column: "x", Op: query.Ne, Value: 5})
	if len(rs) != 2 {
		t.Fatalf("Ne ranges = %+v", rs)
	}
	if rs[0].HiIncl || rs[1].LoIncl {
		t.Fatal("Ne ranges must exclude the boundary value")
	}
	in := PredicateRanges(query.Predicate{Column: "x", Op: query.In, Values: []float64{1, 2}})
	if len(in) != 2 {
		t.Fatalf("In ranges = %+v", in)
	}
}

func TestExpectationUnknownColumn(t *testing.T) {
	s, tabs, _ := paperData(t)
	cols := LearnColumns(s, tabs["customer"], []string{"customer"}, nil)
	r, err := Learn(context.Background(), tabs["customer"], []string{"customer"}, nil, cols, nil, exactOpts())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Expectation(Term{Filters: []query.Predicate{{Column: "nope", Op: query.Eq}}}); err == nil {
		t.Fatal("expected error for unknown column")
	}
	if _, err := r.Expectation(Term{Fns: map[string]spn.Fn{"nope": spn.FnIdent}}); err == nil {
		t.Fatal("expected error for unknown moment column")
	}
}

func TestRSPNUpdateTracksSize(t *testing.T) {
	s, tabs, rel := paperData(t)
	r := learnJoint(t, s, tabs, rel)
	before := r.FullSize
	row := make([]float64, len(r.Model.Columns))
	for i, c := range r.Model.Columns {
		switch c {
		case "c_age":
			row[i] = 25
		case "c_region":
			row[i] = float64(tabs["customer"].Column("c_region").Lookup("EUROPE"))
		case "o_channel":
			row[i] = float64(tabs["orders"].Column("o_channel").Lookup("ONLINE"))
		default:
			row[i] = 1
		}
	}
	if err := r.Update(row, 1, true); err != nil {
		t.Fatal(err)
	}
	if r.FullSize != before+1 {
		t.Fatalf("FullSize = %v, want %v", r.FullSize, before+1)
	}
	// Sampled-out insert: size grows, model untouched.
	n := r.Model.RowCount
	if err := r.Update(row, 1, false); err != nil {
		t.Fatal(err)
	}
	if r.Model.RowCount != n || r.FullSize != before+2 {
		t.Fatal("sampled-out insert should only grow FullSize")
	}
	if err := r.Update(row, -1, true); err != nil {
		t.Fatal(err)
	}
	if r.FullSize != before+1 {
		t.Fatalf("FullSize after delete = %v", r.FullSize)
	}
}

func TestCoversAndResolve(t *testing.T) {
	s, tabs, rel := paperData(t)
	r := learnJoint(t, s, tabs, rel)
	if !r.CoversTables([]string{"customer"}) || !r.CoversTables([]string{"customer", "orders"}) {
		t.Fatal("join RSPN should cover both tables")
	}
	if r.CoversTables([]string{"customer", "lineitem"}) {
		t.Fatal("should not cover unknown table")
	}
	if !r.HasColumn("c_age") || r.HasColumn("c_id") {
		t.Fatal("column visibility wrong")
	}
}

// Expectation evaluates the term against the model. Filters on FD-dependent
// columns are translated through the dictionary; filters on unknown columns
// produce an error so the caller can pick a different RSPN or drop them
// explicitly.
func (r *RSPN) Expectation(term Term) (float64, error) {
	req, err := r.BuildRequest(term)
	if err != nil {
		return 0, err
	}
	return r.Model.Evaluate(req)
}
