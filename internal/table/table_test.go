package table

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/schema"
)

// paperSchema builds the Customer/Order schema from Figure 5 of the paper.
func paperSchema() *schema.Schema {
	return &schema.Schema{Tables: []*schema.Table{
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
}

// paperTables builds the exact data of Figure 5a.
func paperTables(t *testing.T, s *schema.Schema) map[string]*Table {
	t.Helper()
	cust := New(s.Table("customer"))
	cRegion := cust.Column("c_region")
	cust.AppendRow(Int(1), Int(20), Value{F: float64(cRegion.Encode("EUROPE"))})
	cust.AppendRow(Int(2), Int(50), Value{F: float64(cRegion.Encode("EUROPE"))})
	cust.AppendRow(Int(3), Int(80), Value{F: float64(cRegion.Encode("ASIA"))})

	ord := New(s.Table("orders"))
	oChan := ord.Column("o_channel")
	ord.AppendRow(Int(1), Int(1), Value{F: float64(oChan.Encode("ONLINE"))})
	ord.AppendRow(Int(2), Int(1), Value{F: float64(oChan.Encode("STORE"))})
	ord.AppendRow(Int(3), Int(3), Value{F: float64(oChan.Encode("ONLINE"))})
	ord.AppendRow(Int(4), Int(3), Value{F: float64(oChan.Encode("STORE"))})
	return map[string]*Table{"customer": cust, "orders": ord}
}

func TestSchemaValidate(t *testing.T) {
	s := paperSchema()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := paperSchema()
	bad.Tables[1].ForeignKeys[0].RefTable = "nope"
	if err := bad.Validate(); err == nil {
		t.Fatal("expected validation error for dangling FK")
	}
}

func TestTupleFactorsMatchPaper(t *testing.T) {
	s := paperSchema()
	tabs := paperTables(t, s)
	rel := s.Relationships()[0]
	if rel.ID() != "customer<-orders" {
		t.Fatalf("relationship ID = %s", rel.ID())
	}
	if err := AddTupleFactor(tabs["customer"], tabs["orders"], rel); err != nil {
		t.Fatal(err)
	}
	fc := tabs["customer"].Column(TupleFactorColumn(rel))
	// Figure 5a: customer 1 has 2 orders, customer 2 has 0, customer 3 has 2.
	want := []float64{2, 0, 2}
	for i, w := range want {
		if fc.Data[i] != w {
			t.Fatalf("tuple factor[%d] = %v, want %v", i, fc.Data[i], w)
		}
	}
}

func TestFullOuterJoinMatchesFigure5b(t *testing.T) {
	s := paperSchema()
	tabs := paperTables(t, s)
	rel := s.Relationships()[0]
	if err := AddTupleFactor(tabs["customer"], tabs["orders"], rel); err != nil {
		t.Fatal(err)
	}
	spec := JoinSpec{Tables: []string{"customer", "orders"}, Edges: []schema.Relationship{rel}}
	ji, err := Join(tabs, spec, false)
	if err != nil {
		t.Fatal(err)
	}
	j := ji.Decode(nil).Table()
	// Figure 5b has 5 rows: 2 orders for customer 1, the orphan customer 2,
	// 2 orders for customer 3.
	if j.NumRows() != 5 {
		t.Fatalf("full outer join rows = %d, want 5", j.NumRows())
	}
	nc := j.Column(IndicatorColumn("customer"))
	no := j.Column(IndicatorColumn("orders"))
	if nc == nil || no == nil {
		t.Fatal("missing indicator columns")
	}
	sumNC, sumNO := 0.0, 0.0
	for i := 0; i < 5; i++ {
		sumNC += nc.Data[i]
		sumNO += no.Data[i]
	}
	if sumNC != 5 { // every row has a customer
		t.Fatalf("sum N_customer = %v, want 5", sumNC)
	}
	if sumNO != 4 { // one row (customer 2) has no order
		t.Fatalf("sum N_orders = %v, want 4", sumNO)
	}
	// The orphan row must have NULL order columns.
	oChan := j.Column("o_channel")
	orphan := -1
	for i := 0; i < 5; i++ {
		if no.Data[i] == 0 {
			orphan = i
		}
	}
	if orphan < 0 || !oChan.Nul[orphan] {
		t.Fatal("orphan customer row should have NULL o_channel")
	}
	// Tuple factor column must be present in the join and be 0 only for the
	// orphan.
	fc := j.Column(TupleFactorColumn(rel))
	for i := 0; i < 5; i++ {
		want := 2.0
		if i == orphan {
			want = 0
		}
		if fc.Data[i] != want {
			t.Fatalf("F'[%d] = %v, want %v", i, fc.Data[i], want)
		}
	}
}

// TestFullOuterJoinOfEmptyRoot: when the fold's first table is empty,
// every tuple of the full outer join is an orphan of a later step, padded
// on the root, decoded in order and out of it.
func TestFullOuterJoinOfEmptyRoot(t *testing.T) {
	s := paperSchema()
	tabs := paperTables(t, s)
	tabs["customer"] = New(s.Table("customer"))
	spec := JoinSpec{Tables: []string{"customer", "orders"}, Edges: s.Relationships()}
	want, err := fullOuterJoinRef(tabs, spec, false)
	if err != nil {
		t.Fatal(err)
	}
	j, err := Join(tabs, spec, false)
	if err != nil {
		t.Fatal(err)
	}
	if j.NumRows() != 4 || want.NumRows() != 4 {
		t.Fatalf("%d tuples, the reference %d; want 4", j.NumRows(), want.NumRows())
	}
	for _, ranks := range [][]int{nil, {3, 0, 2}} {
		got, err := j.Matrix(want.ColumnNames(), ranks)
		if err != nil {
			t.Fatal(err)
		}
		wantM, err := want.Matrix(want.ColumnNames(), ranks)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got) != fmt.Sprint(wantM) {
			t.Fatalf("ranks %v: %v, want %v", ranks, got, wantM)
		}
	}
}

func TestInnerJoinCount(t *testing.T) {
	s := paperSchema()
	tabs := paperTables(t, s)
	rel := s.Relationships()[0]
	spec := JoinSpec{Tables: []string{"customer", "orders"}, Edges: []schema.Relationship{rel}}
	j, err := InnerJoin(tabs, spec)
	if err != nil {
		t.Fatal(err)
	}
	if j.NumRows() != 4 {
		t.Fatalf("inner join rows = %d, want 4 (paper: |C join O| = 4)", j.NumRows())
	}
}

func TestJoinTree(t *testing.T) {
	s := paperSchema()
	edges, err := s.JoinTree([]string{"customer", "orders"})
	if err != nil {
		t.Fatal(err)
	}
	if len(edges) != 1 {
		t.Fatalf("join tree edges = %d, want 1", len(edges))
	}
	if _, err := s.JoinTree([]string{"customer", "unknown"}); err == nil {
		t.Fatal("expected error for unknown table")
	}
}

func TestThreeWayFullOuterJoin(t *testing.T) {
	// customer <- orders <- orderline chain.
	s := &schema.Schema{Tables: []*schema.Table{
		{Name: "c", Columns: []schema.Column{{Name: "c_id", Kind: schema.IntKind}}, PrimaryKey: "c_id"},
		{Name: "o", Columns: []schema.Column{
			{Name: "o_id", Kind: schema.IntKind}, {Name: "o_cid", Kind: schema.IntKind}},
			PrimaryKey:  "o_id",
			ForeignKeys: []schema.ForeignKey{{Column: "o_cid", RefTable: "c", RefColumn: "c_id"}}},
		{Name: "l", Columns: []schema.Column{
			{Name: "l_id", Kind: schema.IntKind}, {Name: "l_oid", Kind: schema.IntKind}},
			PrimaryKey:  "l_id",
			ForeignKeys: []schema.ForeignKey{{Column: "l_oid", RefTable: "o", RefColumn: "o_id"}}},
	}}
	c := New(s.Table("c"))
	c.AppendRow(Int(1))
	c.AppendRow(Int(2))
	o := New(s.Table("o"))
	o.AppendRow(Int(10), Int(1))
	o.AppendRow(Int(11), Int(1))
	l := New(s.Table("l"))
	l.AppendRow(Int(100), Int(10))
	l.AppendRow(Int(101), Int(10))
	l.AppendRow(Int(102), Int(11))
	tabs := map[string]*Table{"c": c, "o": o, "l": l}
	edges, err := s.JoinTree([]string{"c", "o", "l"})
	if err != nil {
		t.Fatal(err)
	}
	ji, err := Join(tabs, JoinSpec{Tables: []string{"c", "o", "l"}, Edges: edges}, false)
	if err != nil {
		t.Fatal(err)
	}
	j := ji.Decode(nil).Table()
	// customer 1: order 10 x 2 lines + order 11 x 1 line = 3 rows;
	// customer 2: 1 padded row. Total 4.
	if j.NumRows() != 4 {
		t.Fatalf("3-way join rows = %d, want 4", j.NumRows())
	}
	inner, err := InnerJoin(tabs, JoinSpec{Tables: []string{"c", "o", "l"}, Edges: edges})
	if err != nil {
		t.Fatal(err)
	}
	if inner.NumRows() != 3 {
		t.Fatalf("3-way inner join rows = %d, want 3", inner.NumRows())
	}
}

func TestSelectAndMatrix(t *testing.T) {
	s := paperSchema()
	tabs := paperTables(t, s)
	cust := tabs["customer"]
	sub := cust.Select([]int{0, 2})
	if sub.NumRows() != 2 {
		t.Fatalf("select rows = %d, want 2", sub.NumRows())
	}
	if got := sub.Column("c_age").Data[1]; got != 80 {
		t.Fatalf("selected row 1 c_age = %v, want 80", got)
	}
	// Dictionary must be shared: decoding still works.
	r := sub.Column("c_region")
	if r.Decode(int(r.Data[0])) != "EUROPE" {
		t.Fatal("dictionary not shared after Select")
	}
	m, err := cust.Matrix([]string{"c_age", "c_region"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 3 || len(m[0]) != 2 {
		t.Fatalf("matrix shape = %dx%d", len(m), len(m[0]))
	}
}

func TestMatrixNullIsNaN(t *testing.T) {
	meta := &schema.Table{Name: "t", Columns: []schema.Column{{Name: "x", Kind: schema.FloatKind, Nullable: true}}}
	tb := New(meta)
	tb.AppendRow(Float(1))
	tb.AppendRow(Null())
	m, err := tb.Matrix([]string{"x"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(m[1][0]) {
		t.Fatalf("NULL should materialize as NaN, got %v", m[1][0])
	}
}

// TestMatrixRowsShareOneArray: Matrix makes three allocations whatever
// the row count, and each row is a capacity-capped window of the shared
// array, so appending to one row never writes into the next.
func TestMatrixRowsShareOneArray(t *testing.T) {
	meta := &schema.Table{Name: "t", Columns: []schema.Column{{Name: "x", Kind: schema.FloatKind}, {Name: "y", Kind: schema.FloatKind}}}
	tb := New(meta)
	for i := 0; i < 100; i++ {
		tb.AppendRow(Int(i), Int(-i))
	}
	m, err := tb.Matrix([]string{"y", "x"}, []int{7, 3, 50})
	if err != nil {
		t.Fatal(err)
	}
	if want := [][]float64{{-7, 7}, {-3, 3}, {-50, 50}}; !reflect.DeepEqual(m, want) {
		t.Fatalf("Matrix = %v, want %v", m, want)
	}
	_ = append(m[0], 99)
	if m[1][0] != -3 {
		t.Fatalf("appending to row 0 overwrote row 1: %v", m[1])
	}
	if a := testing.AllocsPerRun(10, func() { _, _ = tb.Matrix([]string{"x", "y"}, nil) }); a > 3 {
		t.Fatalf("Matrix over 100 rows made %v allocations, want 3", a)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	s := paperSchema()
	tabs := paperTables(t, s)
	var buf bytes.Buffer
	if err := tabs["customer"].WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	meta := paperSchema().Table("customer")
	back, err := LoadCSV(meta, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumRows() != 3 {
		t.Fatalf("round trip rows = %d, want 3", back.NumRows())
	}
	r := back.Column("c_region")
	if r.Decode(int(r.Data[2])) != "ASIA" {
		t.Fatal("round trip lost categorical value")
	}
}

func TestCSVNull(t *testing.T) {
	meta := &schema.Table{Name: "t", Columns: []schema.Column{
		{Name: "a", Kind: schema.IntKind, Nullable: true},
		{Name: "b", Kind: schema.CategoricalKind, Nullable: true},
	}}
	in := "a,b\n1,x\n,\n3,NULL\n"
	tb, err := LoadCSV(meta, strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if !tb.Cols[0].Nul[1] || !tb.Cols[1].Nul[1] {
		t.Fatal("empty fields should be NULL")
	}
	if !tb.Cols[1].Nul[2] {
		t.Fatal("literal NULL should be NULL")
	}
}

func TestCSVBadHeader(t *testing.T) {
	meta := &schema.Table{Name: "t", Columns: []schema.Column{{Name: "a", Kind: schema.IntKind}}}
	if _, err := LoadCSV(meta, strings.NewReader("zzz\n1\n")); err == nil {
		t.Fatal("expected error for unknown header column")
	}
}

func TestSampleRows(t *testing.T) {
	meta := &schema.Table{Name: "t", Columns: []schema.Column{{Name: "a", Kind: schema.IntKind}}}
	tb := New(meta)
	for i := 0; i < 100; i++ {
		tb.AppendRow(Int(i))
	}
	rng := rand.New(rand.NewSource(1))
	rows := tb.SampleRows(10, rng)
	if len(rows) != 10 {
		t.Fatalf("sample size = %d, want 10", len(rows))
	}
	seen := map[int]bool{}
	for _, r := range rows {
		if seen[r] {
			t.Fatal("sample contains duplicates")
		}
		seen[r] = true
	}
	all := tb.SampleRows(1000, rng)
	if len(all) != 100 {
		t.Fatalf("oversized sample should return all rows, got %d", len(all))
	}
}

func TestAddColumnErrors(t *testing.T) {
	meta := &schema.Table{Name: "t", Columns: []schema.Column{{Name: "a", Kind: schema.IntKind}}}
	tb := New(meta)
	tb.AppendRow(Int(1))
	short := NewColumn(schema.Column{Name: "b", Kind: schema.IntKind})
	if err := tb.AddColumn(short); err == nil {
		t.Fatal("expected length mismatch error")
	}
	dup := NewColumn(schema.Column{Name: "a", Kind: schema.IntKind})
	dup.Append(Int(2))
	if err := tb.AddColumn(dup); err == nil {
		t.Fatal("expected duplicate column error")
	}
}
