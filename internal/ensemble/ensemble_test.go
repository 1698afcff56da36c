package ensemble

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/exact"
	"repro/internal/query"
	"repro/internal/rspn"
	"repro/internal/schema"
	"repro/internal/spn"
	"repro/internal/table"
)

// Delete removes a base-table row (located by primary key) from the
// ensemble — see deleteRow.
func (e *Ensemble) Delete(tableName string, pk float64) error {
	_, err := e.Apply([]Mutation{{Op: OpDelete, Table: tableName, PK: pk}})
	return err
}

// testSchema builds a 3-table chain: customer <- orders <- orderline.
func testSchema() *schema.Schema {
	return &schema.Schema{Tables: []*schema.Table{
		{
			Name: "customer",
			Columns: []schema.Column{
				{Name: "c_id", Kind: schema.IntKind},
				{Name: "c_age", Kind: schema.IntKind},
				{Name: "c_region", Kind: schema.IntKind},
			},
			PrimaryKey: "c_id",
		},
		{
			Name: "orders",
			Columns: []schema.Column{
				{Name: "o_id", Kind: schema.IntKind},
				{Name: "o_c_id", Kind: schema.IntKind},
				{Name: "o_channel", Kind: schema.IntKind},
			},
			PrimaryKey: "o_id",
			ForeignKeys: []schema.ForeignKey{
				{Column: "o_c_id", RefTable: "customer", RefColumn: "c_id"},
			},
		},
		{
			Name: "orderline",
			Columns: []schema.Column{
				{Name: "l_id", Kind: schema.IntKind},
				{Name: "l_o_id", Kind: schema.IntKind},
				{Name: "l_qty", Kind: schema.IntKind},
			},
			PrimaryKey: "l_id",
			ForeignKeys: []schema.ForeignKey{
				{Column: "l_o_id", RefTable: "orders", RefColumn: "o_id"},
			},
		},
	}}
}

// genData generates correlated data: channel depends strongly on region,
// qty depends on channel. correlated=false breaks the dependencies.
func genData(s *schema.Schema, nCust int, correlated bool, seed int64) map[string]*table.Table {
	rng := rand.New(rand.NewSource(seed))
	cust := table.New(s.Table("customer"))
	ord := table.New(s.Table("orders"))
	line := table.New(s.Table("orderline"))
	oid := 0
	lid := 0
	for c := 0; c < nCust; c++ {
		region := float64(rng.Intn(3))
		age := float64(20 + rng.Intn(60))
		cust.AppendRow(table.Int(c), table.Float(age), table.Float(region))
		nOrders := rng.Intn(4) // 0..3 orders
		for o := 0; o < nOrders; o++ {
			var channel float64
			if correlated {
				// Channel tracks region with 90% probability.
				channel = region
				if rng.Float64() < 0.1 {
					channel = float64(rng.Intn(3))
				}
			} else {
				channel = float64(rng.Intn(3))
			}
			ord.AppendRow(table.Int(oid), table.Int(c), table.Float(channel))
			nLines := 1 + rng.Intn(3)
			for l := 0; l < nLines; l++ {
				var qty float64
				if correlated {
					qty = channel*10 + float64(rng.Intn(3))
				} else {
					qty = float64(rng.Intn(30))
				}
				line.AppendRow(table.Int(lid), table.Int(oid), table.Float(qty))
				lid++
			}
			oid++
		}
	}
	return map[string]*table.Table{"customer": cust, "orders": ord, "orderline": line}
}

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.MaxSamples = 20000
	cfg.SPN.RDCSample = 500
	return cfg
}

func TestBuildBaseEnsembleDetectsCorrelation(t *testing.T) {
	s := testSchema()
	tabs := genData(s, 800, true, 1)
	cfg := testConfig()
	cfg.BudgetFactor = 0 // base only
	e, err := Build(context.Background(), s, tabs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Correlated data: both FK pairs should become join RSPNs.
	var joins, singles int
	for _, r := range e.RSPNs {
		if len(r.Tables) == 2 {
			joins++
		} else if len(r.Tables) == 1 {
			singles++
		}
	}
	if joins < 1 {
		t.Fatalf("expected at least one join RSPN for correlated data, got %d (deps: %v)", joins, e.PairDep)
	}
	// Every table covered.
	for _, meta := range s.Tables {
		if e.RSPNFor(meta.Name) == nil {
			t.Fatalf("table %s not covered", meta.Name)
		}
	}
}

func TestBuildIndependentDataYieldsSingles(t *testing.T) {
	s := testSchema()
	tabs := genData(s, 800, false, 2)
	cfg := testConfig()
	cfg.BudgetFactor = 0
	e, err := Build(context.Background(), s, tabs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range e.RSPNs {
		if len(r.Tables) != 1 {
			t.Fatalf("independent data should produce single-table RSPNs, got %v (deps %v)", r.Tables, e.PairDep)
		}
	}
	if len(e.RSPNs) != 3 {
		t.Fatalf("expected 3 single-table RSPNs, got %d", len(e.RSPNs))
	}
}

func TestBudgetFactorAddsLargerRSPN(t *testing.T) {
	s := testSchema()
	tabs := genData(s, 600, true, 3)
	cfg := testConfig()
	cfg.BudgetFactor = 3
	e, err := Build(context.Background(), s, tabs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range e.RSPNs {
		if len(r.Tables) >= 3 {
			found = true
		}
	}
	if !found {
		t.Fatalf("budget factor 3 should add a 3-table RSPN; got %s", e.Describe())
	}
}

func TestSingleTableOnlyMode(t *testing.T) {
	s := testSchema()
	tabs := genData(s, 300, true, 4)
	cfg := testConfig()
	cfg.SingleTableOnly = true
	e, err := Build(context.Background(), s, tabs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(e.RSPNs) != 3 {
		t.Fatalf("single-table mode: got %d RSPNs, want 3", len(e.RSPNs))
	}
	for _, r := range e.RSPNs {
		if len(r.Tables) != 1 {
			t.Fatalf("unexpected join RSPN %v", r.Tables)
		}
	}
}

func TestCoveringAndRSPNFor(t *testing.T) {
	s := testSchema()
	tabs := genData(s, 400, true, 5)
	cfg := testConfig()
	e, err := Build(context.Background(), s, tabs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Covering([]string{"nonexistent"}); len(got) != 0 {
		t.Fatal("covering unknown table should be empty")
	}
	r := e.RSPNFor("customer")
	if r == nil || !r.HasTable("customer") {
		t.Fatal("RSPNFor(customer) wrong")
	}
}

// estimateCount runs the Theorem-1 count template against one RSPN.
func estimateCount(t *testing.T, r *rspn.RSPN, tables []string, filters []query.Predicate) float64 {
	t.Helper()
	fns := map[string]spn.Fn{}
	for _, c := range r.InverseFactorColumns(tables) {
		fns[c] = spn.FnInv
	}
	req, err := r.BuildRequest(rspn.Term{Fns: fns, Filters: filters, InnerTables: tables})
	if err != nil {
		t.Fatal(err)
	}
	e, err := r.Model.Evaluate(req)
	if err != nil {
		t.Fatal(err)
	}
	return r.FullSize * e
}

func TestEnsembleCountAccuracy(t *testing.T) {
	s := testSchema()
	tabs := genData(s, 1000, true, 6)
	oracle := exact.New(s, tabs)
	cfg := testConfig()
	cfg.BudgetFactor = 0
	e, err := Build(context.Background(), s, tabs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// COUNT orders WHERE channel = 1, via whichever RSPN covers orders.
	q := query.Query{Aggregate: query.Count, Tables: []string{"orders"},
		Filters: []query.Predicate{{Column: "o_channel", Op: query.Eq, Value: 1}}}
	truth, err := oracle.Cardinality(q)
	if err != nil {
		t.Fatal(err)
	}
	r := e.RSPNFor("orders")
	est := estimateCount(t, r, q.Tables, q.Filters)
	if qe := query.QError(est, truth); qe > 2 {
		t.Fatalf("q-error %v too high (est %v, true %v)", qe, est, truth)
	}
}

func TestInsertUpdatesBaseAndModel(t *testing.T) {
	s := testSchema()
	tabs := genData(s, 500, true, 7)
	cfg := testConfig()
	cfg.BudgetFactor = 0
	e, err := Build(context.Background(), s, tabs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	custRows := tabs["customer"].NumRows()
	// Insert a new customer.
	if err := e.Insert("customer", map[string]table.Value{
		"c_id": table.Int(100000), "c_age": table.Int(30), "c_region": table.Int(1),
	}); err != nil {
		t.Fatal(err)
	}
	if tabs["customer"].NumRows() != custRows+1 {
		t.Fatal("base table did not grow")
	}
	// Insert an order referencing the new customer (previously 0 orders:
	// triggers padded-row replacement in a join RSPN covering both).
	if err := e.Insert("orders", map[string]table.Value{
		"o_id": table.Int(200000), "o_c_id": table.Int(100000), "o_channel": table.Int(1),
	}); err != nil {
		t.Fatal(err)
	}
	// The customer's tuple factor must now be 1.
	rel := s.NeighborEdges("customer")[0] // customer <- orders
	idx, ok := e.lookupPK("customer", 100000)
	if !ok {
		t.Fatal("pk index lost the new customer")
	}
	f := tabs["customer"].Column(table.TupleFactorColumn(rel)).Data[idx]
	if f != 1 {
		t.Fatalf("tuple factor after insert = %v, want 1", f)
	}
}

func TestInsertShiftsEstimates(t *testing.T) {
	s := testSchema()
	tabs := genData(s, 500, true, 8)
	cfg := testConfig()
	cfg.BudgetFactor = 0
	e, err := Build(context.Background(), s, tabs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := e.RSPNFor("customer")
	filt := []query.Predicate{{Column: "c_age", Op: query.Ge, Value: 95}}
	before := estimateCount(t, r, []string{"customer"}, filt)
	// Insert 200 customers aged 99.
	for i := 0; i < 200; i++ {
		if err := e.Insert("customer", map[string]table.Value{
			"c_id": table.Int(500000 + i), "c_age": table.Int(99), "c_region": table.Int(0),
		}); err != nil {
			t.Fatal(err)
		}
	}
	after := estimateCount(t, r, []string{"customer"}, filt)
	if after < before+100 {
		t.Fatalf("estimate should grow by ~200: before %v after %v", before, after)
	}
}

// memberState is every member's probes, the customer COUNT of customers
// aged 90 or more, and, per model column, the mass at or above 1 and the
// FnInv moment: what an insert followed by the delete of the same row
// must restore bit for bit.
func memberState(t *testing.T, e *Ensemble) []float64 {
	t.Helper()
	out := append(probes(t, e), estimateCount(t, e.RSPNFor("customer"), []string{"customer"},
		[]query.Predicate{{Column: "c_age", Op: query.Ge, Value: 90}}))
	for _, r := range e.RSPNs {
		for c := range r.Model.Columns {
			for _, q := range []spn.ColQuery{
				{Col: c, Ranges: []spn.Range{{Lo: 1, Hi: math.Inf(1), LoIncl: true}}},
				{Col: c, Fn: spn.FnInv},
			} {
				v, err := r.Model.Evaluate(spn.Request{Cols: []spn.ColQuery{q}})
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, v)
			}
		}
	}
	return out
}

// paddedRows counts the join rows of r in which tbl is absent. Each row
// reaches exactly one leaf per column, so the leaves over tbl's indicator
// hold the count at value 0.
func paddedRows(r *rspn.RSPN, tbl string) float64 {
	col := r.Model.ColumnIndex(table.IndicatorColumn(tbl))
	n := 0.0
	var walk func(nd *spn.Node)
	walk = func(nd *spn.Node) {
		if nd.Leaf != nil && nd.Leaf.Col == col {
			for i, v := range nd.Leaf.Vals {
				if v == 0 {
					n += nd.Leaf.Freq[i]
				}
			}
		}
		for _, c := range nd.Children {
			walk(c)
		}
	}
	walk(r.Model.Root)
	return n
}

// TestDeleteReversesInsert: deleting a row right after inserting it
// restores every member bit for bit, on each side of each join. The rows:
// a customer (a new padded customer tuple); an order of a customer
// without orders (its padded tuple leaves, then returns); an order of a
// customer with several; an order with a NULL customer; an orderline
// (its order's tuple factor moves, and the deleted join row must carry
// the factor the inserted one did).
func TestDeleteReversesInsert(t *testing.T) {
	s := testSchema()
	tabs := genData(s, 300, true, 9)
	cfg := testConfig()
	cfg.BudgetFactor = 0
	e, err := Build(context.Background(), s, tabs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	custOrders := s.NeighborEdges("customer")[0]
	factor := tabs["customer"].Column(table.TupleFactorColumn(custOrders))
	customerWith := func(pred func(f float64) bool) int {
		for i, f := range factor.Data {
			if pred(f) {
				return int(tabs["customer"].Column("c_id").Data[i])
			}
		}
		t.Fatal("no customer matches")
		return 0
	}
	lonely := customerWith(func(f float64) bool { return f == 0 })
	busy := customerWith(func(f float64) bool { return f >= 2 })
	var members []*rspn.RSPN
	for _, r := range e.RSPNs {
		if r.HasTable("customer") && r.HasTable("orders") {
			members = append(members, r)
		}
	}
	if len(members) == 0 {
		t.Fatal("no member covers customer and orders")
	}
	for _, in := range []struct {
		name, table string
		pk          float64
		values      map[string]table.Value
		padDelta    float64 // padded customer tuples the insert adds
	}{
		{"customer", "customer", 900000, map[string]table.Value{
			"c_id": table.Int(900000), "c_age": table.Int(95), "c_region": table.Int(2)}, 1},
		{"order of a customer without orders", "orders", 900001, map[string]table.Value{
			"o_id": table.Int(900001), "o_c_id": table.Int(lonely), "o_channel": table.Int(1)}, -1},
		{"order of a customer with several", "orders", 900002, map[string]table.Value{
			"o_id": table.Int(900002), "o_c_id": table.Int(busy), "o_channel": table.Int(2)}, 0},
		{"order with a NULL customer", "orders", 900003, map[string]table.Value{
			"o_id": table.Int(900003), "o_channel": table.Int(0)}, 0},
		{"orderline", "orderline", 900004, map[string]table.Value{
			"l_id": table.Int(900004), "l_o_id": table.Int(3), "l_qty": table.Int(12)}, 0},
	} {
		before := memberState(t, e)
		pads := make([]float64, len(members))
		for i, r := range members {
			pads[i] = paddedRows(r, "orders")
		}
		if err := e.Insert(in.table, in.values); err != nil {
			t.Fatal(err)
		}
		for i, r := range members {
			if got := paddedRows(r, "orders"); got != pads[i]+in.padDelta {
				t.Errorf("%s: member %v has %v padded customers after the insert, want %v", in.name, r.Tables, got, pads[i]+in.padDelta)
			}
		}
		if err := e.Delete(in.table, in.pk); err != nil {
			t.Fatal(err)
		}
		for i, r := range members {
			if got := paddedRows(r, "orders"); got != pads[i] {
				t.Errorf("%s: member %v has %v padded customers after the delete, want %v", in.name, r.Tables, got, pads[i])
			}
		}
		after := memberState(t, e)
		for i := range before {
			if math.Float64bits(after[i]) != math.Float64bits(before[i]) {
				t.Errorf("%s: state value %d is %v after insert and delete, %v before", in.name, i, after[i], before[i])
				break
			}
		}
		// Deleting again must fail (row gone from the index).
		if err := e.Delete(in.table, in.pk); err == nil {
			t.Errorf("%s: deleting a removed pk succeeded", in.name)
		}
	}
}

func TestInsertUnknownTable(t *testing.T) {
	s := testSchema()
	tabs := genData(s, 100, true, 10)
	e, err := Build(context.Background(), s, tabs, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Insert("nope", nil); err == nil {
		t.Fatal("expected error for unknown table")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	s := testSchema()
	tabs := genData(s, 400, true, 11)
	cfg := testConfig()
	cfg.BudgetFactor = 0
	e, err := Build(context.Background(), s, tabs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.Save(&buf); err != nil {
		t.Fatal(err)
	}
	e2, err := Load(&buf, tabs)
	if err != nil {
		t.Fatal(err)
	}
	if len(e2.RSPNs) != len(e.RSPNs) {
		t.Fatalf("round trip RSPN count %d != %d", len(e2.RSPNs), len(e.RSPNs))
	}
	// Estimates identical after round trip.
	filt := []query.Predicate{{Column: "c_age", Op: query.Lt, Value: 40}}
	a := estimateCount(t, e.RSPNFor("customer"), []string{"customer"}, filt)
	b := estimateCount(t, e2.RSPNFor("customer"), []string{"customer"}, filt)
	if a != b {
		t.Fatalf("round trip changed estimate: %v vs %v", a, b)
	}
	// Updates still work on the loaded ensemble.
	if err := e2.Insert("customer", map[string]table.Value{
		"c_id": table.Int(777777), "c_age": table.Int(25), "c_region": table.Int(0),
	}); err != nil {
		t.Fatal(err)
	}
}

func TestDescribe(t *testing.T) {
	s := testSchema()
	tabs := genData(s, 200, true, 13)
	e, err := Build(context.Background(), s, tabs, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if d := e.Describe(); len(d) == 0 {
		t.Fatal("empty description")
	}
}
