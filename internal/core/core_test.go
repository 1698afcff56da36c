package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/ensemble"
	"repro/internal/exact"
	"repro/internal/query"
	"repro/internal/rspn"
	"repro/internal/schema"
	"repro/internal/table"
)

// figure5 builds the paper's Customer/Order example data.
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

// exactEnsemble builds an exact (memorizing) ensemble; joint controls
// whether the customer-orders pair is learned jointly or as single tables.
func exactEnsemble(t *testing.T, joint bool) (*Engine, *schema.Schema, map[string]*table.Table) {
	t.Helper()
	s, tabs := figure5(t)
	rel := s.Relationships()[0]
	if err := table.AddTupleFactor(tabs["customer"], tabs["orders"], rel); err != nil {
		t.Fatal(err)
	}
	opts := rspn.DefaultLearnOptions()
	opts.Exact = true
	var members []*rspn.RSPN
	if joint {
		spec := table.JoinSpec{Tables: []string{"customer", "orders"}, Edges: []schema.Relationship{rel}}
		j, err := table.Join(tabs, spec, false)
		if err != nil {
			t.Fatal(err)
		}
		cols := rspn.LearnColumns(s, j, spec.Tables, nil)
		r, err := rspn.Learn(context.Background(), j, spec.Tables, spec.Edges, cols, nil, opts)
		if err != nil {
			t.Fatal(err)
		}
		members = append(members, r)
	} else {
		for _, tn := range []string{"customer", "orders"} {
			cols := rspn.LearnColumns(s, tabs[tn], []string{tn}, nil)
			r, err := rspn.Learn(context.Background(), tabs[tn], []string{tn}, nil, cols, nil, opts)
			if err != nil {
				t.Fatal(err)
			}
			members = append(members, r)
		}
	}
	ens := ensemble.NewManual(s, tabs, members, ensemble.DefaultConfig())
	return New(ens), s, tabs
}

func euCode(tabs map[string]*table.Table) float64 {
	return float64(tabs["customer"].Column("c_region").Lookup("EUROPE"))
}

func onlineCode(tabs map[string]*table.Table) float64 {
	return float64(tabs["orders"].Column("o_channel").Lookup("ONLINE"))
}

func TestQ1ExactMatch(t *testing.T) {
	e, _, tabs := exactEnsemble(t, false)
	est, err := e.EstimateCardinality(query.Query{
		Aggregate: query.Count, Tables: []string{"customer"},
		Filters: []query.Predicate{{Column: "c_region", Op: query.Eq, Value: euCode(tabs)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.Value-2) > 1e-9 {
		t.Fatalf("Q1 = %v, want 2", est.Value)
	}
}

func TestQ2Case1JointRSPN(t *testing.T) {
	e, _, tabs := exactEnsemble(t, true)
	est, err := e.EstimateCardinality(query.Query{
		Aggregate: query.Count, Tables: []string{"customer", "orders"},
		Filters: []query.Predicate{
			{Column: "c_region", Op: query.Eq, Value: euCode(tabs)},
			{Column: "o_channel", Op: query.Eq, Value: onlineCode(tabs)},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.Value-1) > 1e-9 {
		t.Fatalf("Q2 (Case 1) = %v, want 1", est.Value)
	}
}

func TestQ1Case2LargerRSPN(t *testing.T) {
	// Only the joint RSPN exists; the single-table query must normalize by
	// tuple factors (Case 2).
	e, _, tabs := exactEnsemble(t, true)
	est, err := e.EstimateCardinality(query.Query{
		Aggregate: query.Count, Tables: []string{"customer"},
		Filters: []query.Predicate{{Column: "c_region", Op: query.Eq, Value: euCode(tabs)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.Value-2) > 1e-9 {
		t.Fatalf("Q1 (Case 2) = %v, want 2 (paper)", est.Value)
	}
}

func TestQ2Case3CombineRSPNs(t *testing.T) {
	// Only single-table RSPNs exist; the join query requires Theorem 2.
	e, _, tabs := exactEnsemble(t, false)
	est, err := e.EstimateCardinality(query.Query{
		Aggregate: query.Count, Tables: []string{"customer", "orders"},
		Filters: []query.Predicate{
			{Column: "c_region", Op: query.Eq, Value: euCode(tabs)},
			{Column: "o_channel", Op: query.Eq, Value: onlineCode(tabs)},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.Value-1) > 1e-9 {
		t.Fatalf("Q2 (Case 3) = %v, want 1 (paper)", est.Value)
	}
}

func TestUnfilteredJoinSize(t *testing.T) {
	for _, joint := range []bool{true, false} {
		e, _, _ := exactEnsemble(t, joint)
		est, err := e.EstimateCardinality(query.Query{
			Aggregate: query.Count, Tables: []string{"customer", "orders"}})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(est.Value-4) > 1e-9 {
			t.Fatalf("joint=%v: |C join O| = %v, want 4", joint, est.Value)
		}
	}
}

func TestQ3AvgCase1(t *testing.T) {
	e, _, tabs := exactEnsemble(t, false)
	res, err := e.Execute(query.Query{
		Aggregate: query.Avg, AggColumn: "c_age", Tables: []string{"customer"},
		Filters: []query.Predicate{{Column: "c_region", Op: query.Eq, Value: euCode(tabs)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Groups[0].Estimate.Value; math.Abs(got-35) > 1e-9 {
		t.Fatalf("Q3 AVG = %v, want 35", got)
	}
}

func TestQ3AvgCase2Normalized(t *testing.T) {
	// Joint RSPN only: the AVG must normalize by tuple factors, otherwise
	// customers with two orders count double (paper gets 35, naive 43.3).
	e, _, tabs := exactEnsemble(t, true)
	res, err := e.Execute(query.Query{
		Aggregate: query.Avg, AggColumn: "c_age", Tables: []string{"customer"},
		Filters: []query.Predicate{{Column: "c_region", Op: query.Eq, Value: euCode(tabs)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Groups[0].Estimate.Value; math.Abs(got-35) > 1e-9 {
		t.Fatalf("Q3 AVG (Case 2) = %v, want 35 (paper)", got)
	}
}

func TestSumEqualsCountTimesAvg(t *testing.T) {
	e, _, tabs := exactEnsemble(t, false)
	res, err := e.Execute(query.Query{
		Aggregate: query.Sum, AggColumn: "c_age", Tables: []string{"customer"},
		Filters: []query.Predicate{{Column: "c_region", Op: query.Eq, Value: euCode(tabs)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Groups[0].Estimate.Value; math.Abs(got-70) > 1e-9 {
		t.Fatalf("SUM = %v, want 70", got)
	}
}

func TestGroupByFromModel(t *testing.T) {
	e, _, _ := exactEnsemble(t, false)
	res, err := e.Execute(query.Query{
		Aggregate: query.Count, Tables: []string{"customer"}, GroupBy: []string{"c_region"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 2 {
		t.Fatalf("groups = %d, want 2", len(res.Groups))
	}
	total := 0.0
	for _, g := range res.Groups {
		total += g.Estimate.Value
	}
	if math.Abs(total-3) > 1e-9 {
		t.Fatalf("group total = %v, want 3", total)
	}
}

func TestGroupByJoinAvg(t *testing.T) {
	e, _, _ := exactEnsemble(t, true)
	res, err := e.Execute(query.Query{
		Aggregate: query.Avg, AggColumn: "c_age",
		Tables: []string{"customer", "orders"}, GroupBy: []string{"o_channel"},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Exact executor gives 50 for both channels (customers 1 and 3).
	if len(res.Groups) != 2 {
		t.Fatalf("groups = %d, want 2", len(res.Groups))
	}
	for _, g := range res.Groups {
		if math.Abs(g.Estimate.Value-50) > 1e-9 {
			t.Fatalf("group %v AVG = %v, want 50", g.Key, g.Estimate.Value)
		}
	}
}

func TestConfidenceIntervalContainsEstimate(t *testing.T) {
	e, _, tabs := exactEnsemble(t, true)
	res, err := e.Execute(query.Query{
		Aggregate: query.Count, Tables: []string{"customer"},
		Filters: []query.Predicate{{Column: "c_region", Op: query.Eq, Value: euCode(tabs)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	g := res.Groups[0]
	if g.CILow > g.Estimate.Value || g.CIHigh < g.Estimate.Value {
		t.Fatalf("CI [%v, %v] must contain estimate %v", g.CILow, g.CIHigh, g.Estimate.Value)
	}
	if g.CIHigh <= g.CILow {
		t.Fatal("CI must have positive width for a sampled model")
	}
}

func TestEstimateErrors(t *testing.T) {
	e, s, tabs := exactEnsemble(t, false)
	if _, err := e.EstimateCardinality(query.Query{Aggregate: query.Count, Tables: []string{"nope"}}); err == nil {
		t.Fatal("expected unknown-table error")
	}
	if _, err := e.Execute(query.Query{Aggregate: query.Avg, AggColumn: "zzz", Tables: []string{"customer"}}); err == nil {
		t.Fatal("expected unknown aggregate column error")
	}
	// A self-join is rejected by the estimator and by the exact executor,
	// not answered as the deduplicated query; with distinct tables both
	// answer.
	oracle := exact.New(s, tabs)
	self := query.Query{Aggregate: query.Count, Tables: []string{"customer", "customer"}}
	if _, err := e.EstimateCardinality(self); err == nil {
		t.Fatal("estimator answered a self-join")
	}
	if _, err := oracle.Cardinality(self); err == nil {
		t.Fatal("exact executor answered a self-join")
	}
	self.Tables[1] = "orders"
	if _, err := e.EstimateCardinality(self); err != nil {
		t.Fatalf("estimator, distinct tables: %v", err)
	}
	if _, err := oracle.Cardinality(self); err != nil {
		t.Fatalf("exact executor, distinct tables: %v", err)
	}
}

// ---- Statistical accuracy on generated data ----

// chainSchema and chainData mirror the ensemble tests' 3-table generator.
func chainSchema() *schema.Schema {
	return &schema.Schema{Tables: []*schema.Table{
		{Name: "customer", Columns: []schema.Column{
			{Name: "c_id", Kind: schema.IntKind},
			{Name: "c_age", Kind: schema.IntKind},
			{Name: "c_region", Kind: schema.IntKind}},
			PrimaryKey: "c_id"},
		{Name: "orders", Columns: []schema.Column{
			{Name: "o_id", Kind: schema.IntKind},
			{Name: "o_c_id", Kind: schema.IntKind},
			{Name: "o_channel", Kind: schema.IntKind}},
			PrimaryKey:  "o_id",
			ForeignKeys: []schema.ForeignKey{{Column: "o_c_id", RefTable: "customer", RefColumn: "c_id"}}},
		{Name: "orderline", Columns: []schema.Column{
			{Name: "l_id", Kind: schema.IntKind},
			{Name: "l_o_id", Kind: schema.IntKind},
			{Name: "l_qty", Kind: schema.IntKind}},
			PrimaryKey:  "l_id",
			ForeignKeys: []schema.ForeignKey{{Column: "l_o_id", RefTable: "orders", RefColumn: "o_id"}}},
	}}
}

func chainData(s *schema.Schema, nCust int, seed int64) map[string]*table.Table {
	rng := rand.New(rand.NewSource(seed))
	cust := table.New(s.Table("customer"))
	ord := table.New(s.Table("orders"))
	line := table.New(s.Table("orderline"))
	oid, lid := 0, 0
	for c := 0; c < nCust; c++ {
		region := float64(rng.Intn(3))
		age := float64(20 + rng.Intn(60))
		cust.AppendRow(table.Int(c), table.Float(age), table.Float(region))
		for o := 0; o < rng.Intn(4); o++ {
			channel := region
			if rng.Float64() < 0.1 {
				channel = float64(rng.Intn(3))
			}
			ord.AppendRow(table.Int(oid), table.Int(c), table.Float(channel))
			for l := 0; l < 1+rng.Intn(3); l++ {
				qty := channel*10 + float64(rng.Intn(3))
				line.AppendRow(table.Int(lid), table.Int(oid), table.Float(qty))
				lid++
			}
			oid++
		}
	}
	return map[string]*table.Table{"customer": cust, "orders": ord, "orderline": line}
}

func buildChainEngine(t *testing.T, budget float64) (*Engine, *exact.Engine) {
	t.Helper()
	s := chainSchema()
	tabs := chainData(s, 1500, 42)
	oracle := exact.New(s, tabs)
	cfg := ensemble.DefaultConfig()
	cfg.BudgetFactor = budget
	cfg.MaxSamples = 30000
	ens, err := ensemble.Build(context.Background(), s, tabs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return New(ens), oracle
}

func TestCardinalityAccuracyOnChain(t *testing.T) {
	eng, oracle := buildChainEngine(t, 0)
	queries := []query.Query{
		{Aggregate: query.Count, Tables: []string{"customer"},
			Filters: []query.Predicate{{Column: "c_age", Op: query.Lt, Value: 40}}},
		{Aggregate: query.Count, Tables: []string{"customer", "orders"},
			Filters: []query.Predicate{{Column: "c_region", Op: query.Eq, Value: 1}}},
		{Aggregate: query.Count, Tables: []string{"customer", "orders"},
			Filters: []query.Predicate{
				{Column: "c_region", Op: query.Eq, Value: 0},
				{Column: "o_channel", Op: query.Eq, Value: 0}}},
		{Aggregate: query.Count, Tables: []string{"customer", "orders", "orderline"},
			Filters: []query.Predicate{
				{Column: "o_channel", Op: query.Eq, Value: 2},
				{Column: "l_qty", Op: query.Ge, Value: 20}}},
		{Aggregate: query.Count, Tables: []string{"orders", "orderline"},
			Filters: []query.Predicate{{Column: "l_qty", Op: query.Le, Value: 10}}},
	}
	for i, q := range queries {
		truth, err := oracle.Cardinality(q)
		if err != nil {
			t.Fatal(err)
		}
		est, err := eng.EstimateCardinality(q)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if qe := query.QError(est.Value, truth); qe > 3 {
			t.Errorf("query %d (%v): q-error %.2f (est %.1f true %.1f)", i, q, qe, est.Value, truth)
		}
	}
}

func TestAQPAccuracyOnChain(t *testing.T) {
	eng, oracle := buildChainEngine(t, 0)
	q := query.Query{Aggregate: query.Avg, AggColumn: "l_qty",
		Tables:  []string{"orders", "orderline"},
		Filters: []query.Predicate{{Column: "o_channel", Op: query.Eq, Value: 1}}}
	truth, err := oracle.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if rel := query.RelativeError(res.Groups[0].Estimate.Value, truth.Scalar()); rel > 0.15 {
		t.Fatalf("AVG relative error %.3f too high (est %.2f true %.2f)",
			rel, res.Groups[0].Estimate.Value, truth.Scalar())
	}
}

func TestGroupByAQPAccuracy(t *testing.T) {
	eng, oracle := buildChainEngine(t, 0)
	q := query.Query{Aggregate: query.Count, Tables: []string{"customer"},
		GroupBy: []string{"c_region"}}
	truth, err := oracle.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if rel := query.AvgRelativeError(res.ToResult(), truth); rel > 0.1 {
		t.Fatalf("group-by avg relative error %.3f too high", rel)
	}
}

func TestConfidenceIntervalCoverage(t *testing.T) {
	eng, oracle := buildChainEngine(t, 0)
	// Across a set of count queries, the 95% CI should usually contain the
	// truth. With a handful of queries we only require a majority, since
	// SPN structure error (not sampling error) can dominate.
	queries := []query.Query{
		{Aggregate: query.Count, Tables: []string{"customer"},
			Filters: []query.Predicate{{Column: "c_age", Op: query.Lt, Value: 50}}},
		{Aggregate: query.Count, Tables: []string{"customer"},
			Filters: []query.Predicate{{Column: "c_region", Op: query.Eq, Value: 2}}},
		{Aggregate: query.Count, Tables: []string{"orders"},
			Filters: []query.Predicate{{Column: "o_channel", Op: query.Eq, Value: 0}}},
		{Aggregate: query.Count, Tables: []string{"orderline"},
			Filters: []query.Predicate{{Column: "l_qty", Op: query.Ge, Value: 15}}},
	}
	hits := 0
	for _, q := range queries {
		truth, err := oracle.Cardinality(q)
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Execute(q)
		if err != nil {
			t.Fatal(err)
		}
		g := res.Groups[0]
		if g.CILow <= truth && truth <= g.CIHigh {
			hits++
		}
	}
	if hits < len(queries)/2 {
		t.Fatalf("CI coverage %d/%d too low", hits, len(queries))
	}
}

func TestMedianStrategy(t *testing.T) {
	eng, oracle := buildChainEngine(t, 2) // budget ensures overlapping RSPNs
	eng.Strategy = StrategyMedian
	q := query.Query{Aggregate: query.Count, Tables: []string{"customer", "orders"},
		Filters: []query.Predicate{{Column: "c_region", Op: query.Eq, Value: 1}}}
	truth, err := oracle.Cardinality(q)
	if err != nil {
		t.Fatal(err)
	}
	est, err := eng.EstimateCardinality(q)
	if err != nil {
		t.Fatal(err)
	}
	if qe := query.QError(est.Value, truth); qe > 3 {
		t.Fatalf("median strategy q-error %.2f (est %.1f true %.1f)", qe, est.Value, truth)
	}
}

func TestEstimateArithmetic(t *testing.T) {
	a := Estimate{Value: 10, Variance: 4}
	b := Estimate{Value: 5, Variance: 1}
	p := mulEstimate(a, b)
	if p.Value != 50 {
		t.Fatalf("mul value = %v", p.Value)
	}
	wantVar := 4*1 + 4*25 + 1*100
	if math.Abs(p.Variance-float64(wantVar)) > 1e-9 {
		t.Fatalf("mul variance = %v, want %v", p.Variance, wantVar)
	}
	d := divEstimate(a, b)
	if d.Value != 2 {
		t.Fatalf("div value = %v", d.Value)
	}
	if divEstimate(a, Estimate{}).Value != 0 {
		t.Fatal("div by zero estimate should be 0")
	}
	sc := scaleEstimate(a, 3)
	if sc.Value != 30 || sc.Variance != 36 {
		t.Fatalf("scale = %+v", sc)
	}
	lo, hi := a.ConfidenceInterval(0.95)
	if lo >= 10 || hi <= 10 || math.Abs((hi-lo)-2*1.96*2) > 0.01 {
		t.Fatalf("CI = [%v, %v]", lo, hi)
	}
}
