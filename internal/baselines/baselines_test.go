package baselines

import (
	"testing"

	"repro/internal/datagen"
	"repro/internal/exact"
	"repro/internal/query"
	"repro/internal/schema"
	"repro/internal/table"
	"repro/internal/workload"
)

// fixture builds a small IMDb-style data set shared by the baseline tests.
type fixture struct {
	schema *schema.Schema
	tables map[string]*table.Table
	oracle *exact.Engine
}

var shared *fixture

func getFixture(t *testing.T) *fixture {
	t.Helper()
	if shared == nil {
		s, tabs := datagen.IMDb(datagen.IMDbConfig{Titles: 2000, Seed: 1})
		shared = &fixture{schema: s, tables: tabs, oracle: exact.New(s, tabs)}
	}
	return shared
}

func TestPostgresSingleTable(t *testing.T) {
	f := getFixture(t)
	pg, err := NewPostgres(f.schema, f.tables)
	if err != nil {
		t.Fatal(err)
	}
	q := query.Query{Aggregate: query.Count, Tables: []string{"title"},
		Filters: []query.Predicate{{Column: "t_production_year", Op: query.Ge, Value: 2000}}}
	truth, err := f.oracle.Cardinality(q)
	if err != nil {
		t.Fatal(err)
	}
	est, err := pg.EstimateCardinality(q)
	if err != nil {
		t.Fatal(err)
	}
	if qe := query.QError(est, truth); qe > 2 {
		t.Fatalf("Postgres single-table q-error %.2f (est %.0f true %.0f)", qe, est, truth)
	}
}

func TestPostgresUnfilteredJoin(t *testing.T) {
	f := getFixture(t)
	pg, err := NewPostgres(f.schema, f.tables)
	if err != nil {
		t.Fatal(err)
	}
	q := query.Query{Aggregate: query.Count, Tables: []string{"title", "movie_companies"}}
	truth, _ := f.oracle.Cardinality(q)
	est, err := pg.EstimateCardinality(q)
	if err != nil {
		t.Fatal(err)
	}
	// FK join size estimation should be within a small factor.
	if qe := query.QError(est, truth); qe > 3 {
		t.Fatalf("Postgres join q-error %.2f (est %.0f true %.0f)", qe, est, truth)
	}
}

func TestPostgresErrorGrowsWithJoins(t *testing.T) {
	f := getFixture(t)
	pg, err := NewPostgres(f.schema, f.tables)
	if err != nil {
		t.Fatal(err)
	}
	// Correlated filters across 4 tables: independence should misestimate
	// more than a single-table filter does. We only require the estimator
	// not to crash and to return a positive value here; the error shape is
	// exercised in the Table 1 bench.
	q := query.Query{Aggregate: query.Count,
		Tables: []string{"title", "movie_companies", "cast_info", "movie_keyword"},
		Filters: []query.Predicate{
			{Column: "t_production_year", Op: query.Ge, Value: 2010},
			{Column: "mc_company_type_id", Op: query.Eq, Value: 2},
			{Column: "ci_role_id", Op: query.Eq, Value: 1}}}
	est, err := pg.EstimateCardinality(q)
	if err != nil {
		t.Fatal(err)
	}
	if est < 1 {
		t.Fatalf("estimate %v < 1", est)
	}
}

func TestIBJSUnfilteredJoin(t *testing.T) {
	f := getFixture(t)
	ib := NewIBJS(f.schema, f.tables, 2000, 7)
	q := query.Query{Aggregate: query.Count, Tables: []string{"title", "cast_info"}}
	truth, _ := f.oracle.Cardinality(q)
	est, err := ib.EstimateCardinality(q)
	if err != nil {
		t.Fatal(err)
	}
	if qe := query.QError(est, truth); qe > 1.5 {
		t.Fatalf("IBJS q-error %.2f (est %.0f true %.0f)", qe, est, truth)
	}
}

func TestIBJSFiltered(t *testing.T) {
	f := getFixture(t)
	ib := NewIBJS(f.schema, f.tables, 2000, 7)
	q := query.Query{Aggregate: query.Count, Tables: []string{"title", "movie_info"},
		Filters: []query.Predicate{
			{Column: "t_production_year", Op: query.Ge, Value: 1990},
			{Column: "mi_info_type_id", Op: query.Le, Value: 10}}}
	truth, _ := f.oracle.Cardinality(q)
	est, err := ib.EstimateCardinality(q)
	if err != nil {
		t.Fatal(err)
	}
	if qe := query.QError(est, truth); qe > 2.5 {
		t.Fatalf("IBJS filtered q-error %.2f (est %.0f true %.0f)", qe, est, truth)
	}
}

func TestRandomSamplingSingleTable(t *testing.T) {
	f := getFixture(t)
	rs, err := NewRandomSampling(f.schema, f.tables, 0.1, 3)
	if err != nil {
		t.Fatal(err)
	}
	q := query.Query{Aggregate: query.Count, Tables: []string{"cast_info"},
		Filters: []query.Predicate{{Column: "ci_role_id", Op: query.Le, Value: 3}}}
	truth, _ := f.oracle.Cardinality(q)
	est, err := rs.EstimateCardinality(q)
	if err != nil {
		t.Fatal(err)
	}
	if qe := query.QError(est, truth); qe > 2 {
		t.Fatalf("RandomSampling q-error %.2f (est %.0f true %.0f)", qe, est, truth)
	}
}

func TestMCSNInDistribution(t *testing.T) {
	f := getFixture(t)
	train := workload.SyntheticIMDb(f.tables, 400, 2, 3, 11)
	var qs []query.Query
	for _, n := range train {
		qs = append(qs, n.Query)
	}
	m, err := NewMCSN(f.schema, f.tables, qs, f.oracle.Cardinality, DefaultMCSNConfig())
	if err != nil {
		t.Fatal(err)
	}
	if m.TrainingDataTime <= 0 {
		t.Fatal("training data time not measured")
	}
	// Median in-distribution q-error should be sane (not orders of
	// magnitude off).
	test := workload.SyntheticIMDb(f.tables, 40, 2, 3, 12)
	var qes []float64
	for _, n := range test {
		truth, err := f.oracle.Cardinality(n.Query)
		if err != nil {
			t.Fatal(err)
		}
		est, err := m.EstimateCardinality(n.Query)
		if err != nil {
			t.Fatal(err)
		}
		qes = append(qes, query.QError(est, truth))
	}
	med := median(qes)
	if med > 12 {
		t.Fatalf("MCSN in-distribution median q-error %.2f too high", med)
	}
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	cp := append([]float64(nil), xs...)
	for i := range cp {
		for j := i + 1; j < len(cp); j++ {
			if cp[j] < cp[i] {
				cp[i], cp[j] = cp[j], cp[i]
			}
		}
	}
	return cp[len(cp)/2]
}

func TestTableSampleAQP(t *testing.T) {
	f := getFixture(t)
	ts := NewTableSample(f.schema, f.tables, 0.1, 5)
	q := query.Query{Aggregate: query.Count, Tables: []string{"cast_info"},
		Filters: []query.Predicate{{Column: "ci_role_id", Op: query.Le, Value: 5}}}
	truth, _ := f.oracle.Execute(q)
	res, err := ts.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if rel := query.RelativeError(res.Scalar(), truth.Scalar()); rel > 0.2 {
		t.Fatalf("TableSample relative error %.3f (est %.0f true %.0f)",
			rel, res.Scalar(), truth.Scalar())
	}
}

func TestTableSampleNoResultOnHyperSelective(t *testing.T) {
	f := getFixture(t)
	ts := NewTableSample(f.schema, f.tables, 0.01, 5)
	// An empty-result query: impossible keyword id.
	q := query.Query{Aggregate: query.Count, Tables: []string{"movie_keyword"},
		Filters: []query.Predicate{{Column: "mk_keyword_id", Op: query.Eq, Value: -12345}}}
	res, err := ts.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 0 {
		t.Fatalf("expected no result, got %v", res.Groups)
	}
}

func TestVerdictDB(t *testing.T) {
	f := getFixture(t)
	v := NewVerdictDB(f.schema, f.tables, 0.1, 3000, 6)
	if v.PrepTime <= 0 {
		t.Fatal("scramble prep time not measured")
	}
	q := query.Query{Aggregate: query.Avg, AggColumn: "t_production_year",
		Tables:  []string{"title", "movie_companies"},
		Filters: []query.Predicate{{Column: "mc_company_type_id", Op: query.Eq, Value: 1}}}
	truth, _ := f.oracle.Execute(q)
	res, err := v.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if rel := query.RelativeError(res.Scalar(), truth.Scalar()); rel > 0.1 {
		t.Fatalf("VerdictDB AVG relative error %.3f", rel)
	}
}

func TestWanderJoinCount(t *testing.T) {
	f := getFixture(t)
	w := NewWanderJoin(f.schema, f.tables, 20000, 8)
	q := query.Query{Aggregate: query.Count, Tables: []string{"title", "movie_info"},
		Filters: []query.Predicate{{Column: "mi_info_type_id", Op: query.Le, Value: 5}}}
	truth, _ := f.oracle.Cardinality(q)
	res, err := w.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	est := res.Scalar()
	if qe := query.QError(est, truth); qe > 1.5 {
		t.Fatalf("WanderJoin q-error %.2f (est %.0f true %.0f)", qe, est, truth)
	}
}

func TestWanderJoinAvg(t *testing.T) {
	f := getFixture(t)
	w := NewWanderJoin(f.schema, f.tables, 20000, 9)
	q := query.Query{Aggregate: query.Avg, AggColumn: "t_production_year",
		Tables: []string{"title", "cast_info"}}
	truth, _ := f.oracle.Execute(q)
	res, err := w.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if rel := query.RelativeError(res.Scalar(), truth.Scalar()); rel > 0.05 {
		t.Fatalf("WanderJoin AVG relative error %.3f", rel)
	}
}

func TestDBEstTemplateReuse(t *testing.T) {
	f := getFixture(t)
	d := NewDBEst(f.schema, f.tables, 5000)
	q1 := query.Query{Aggregate: query.Avg, AggColumn: "t_production_year",
		Tables: []string{"title"},
		Filters: []query.Predicate{{Column: "t_kind_id", Op: query.Eq, Value: 1},
			{Column: "t_production_year", Op: query.Ge, Value: 1990}}}
	c1, err := d.Prepare(q1)
	if err != nil {
		t.Fatal(err)
	}
	if c1 <= 0 {
		t.Fatal("first template should cost training time")
	}
	// Same template, different range constant: must be free.
	q2 := q1
	q2.Filters = []query.Predicate{{Column: "t_kind_id", Op: query.Eq, Value: 1},
		{Column: "t_production_year", Op: query.Ge, Value: 2005}}
	c2, err := d.Prepare(q2)
	if err != nil {
		t.Fatal(err)
	}
	if c2 != 0 {
		t.Fatalf("template reuse should be free, cost %v", c2)
	}
	// Different categorical value: new template.
	q3 := q1
	q3.Filters = []query.Predicate{{Column: "t_kind_id", Op: query.Eq, Value: 2}}
	c3, err := d.Prepare(q3)
	if err != nil {
		t.Fatal(err)
	}
	if c3 <= 0 {
		t.Fatal("new template should cost training time")
	}
	// And the estimate itself should be usable.
	truth, _ := f.oracle.Execute(q1)
	res, err := d.Execute(q1)
	if err != nil {
		t.Fatal(err)
	}
	if rel := query.RelativeError(res.Scalar(), truth.Scalar()); rel > 0.1 {
		t.Fatalf("DBEst AVG relative error %.3f", rel)
	}
}

func TestChooseRootPrefersOneSide(t *testing.T) {
	f := getFixture(t)
	root := chooseRoot(f.schema, []string{"movie_companies", "title", "cast_info"})
	if root != "title" {
		t.Fatalf("root = %s, want title", root)
	}
}

func TestOrientEdges(t *testing.T) {
	f := getFixture(t)
	steps, err := orientEdges(f.schema, []string{"title", "cast_info", "movie_info"}, "title")
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != 2 {
		t.Fatalf("steps = %d, want 2", len(steps))
	}
	for _, st := range steps {
		if st.fromTable != "title" {
			t.Fatalf("star walk should start each step at title, got %+v", st)
		}
	}
}
