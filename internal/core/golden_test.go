package core

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"testing"

	"repro/internal/datagen"
	"repro/internal/ensemble"
	"repro/internal/query"
	"repro/internal/rspn"
	"repro/internal/schema"
	"repro/internal/table"
)

// golden_test.go pins the bit patterns of a fixed query matrix against a
// committed file. Every other equivalence suite in this package compares
// one path of the current code with another path of the current code; this
// one compares the current code with the code that wrote the file, so a
// refactor of plan compilation or execution that changes any estimate — by
// one ulp — fails here. Regenerate deliberately with
//
//	go test ./internal/core -run TestPlanGolden -update
//
// and say in the commit why the estimates moved.

var updateGolden = flag.Bool("update", false, "rewrite testdata/plan_golden.json from the current code")

const goldenPath = "testdata/plan_golden.json"

// goldenRow is one result row: the group key and math.Float64bits of the
// estimate, its variance and both interval bounds, in hex.
type goldenRow struct {
	Key      []float64 `json:"key,omitempty"`
	Value    string    `json:"value"`
	Variance string    `json:"variance"`
	CILow    string    `json:"ci_low"`
	CIHigh   string    `json:"ci_high"`
}

type goldenEntry struct {
	Name string      `json:"name"`
	Rows []goldenRow `json:"rows"`
}

// goldenCase is one cell of the matrix. swap names two literals (ordinals
// into Filters ++ Disjunction) on different columns whose exchange must
// change the answer — the must-fail twin; {0, 0} means the case has no
// such pair.
type goldenCase struct {
	name    string
	fixture string // imdb | imdb1 (single-table members only) | ssb | diamond (cyclic FK graph)
	sql     string
	outer   []string
	median  bool // StrategyMedian
	noData  bool // model-only: base tables detached
	card    bool // EstimateCardinalityQuery instead of ExecuteQuery
	swap    [2]int
}

var goldenMatrix = []goldenCase{
	{name: "case1-exact", fixture: "imdb", swap: [2]int{0, 1},
		sql: "SELECT COUNT(*) FROM title JOIN movie_info WHERE t_kind_id = 2 AND mi_info_type_id = 3"},
	{name: "case2-superset-single-table", fixture: "imdb", swap: [2]int{0, 1},
		sql: "SELECT COUNT(*) FROM title WHERE t_production_year > 1990 AND t_kind_id <= 3"},
	{name: "case2-superset-join", fixture: "imdb", swap: [2]int{0, 1}, card: true,
		sql: "SELECT COUNT(*) FROM title JOIN cast_info WHERE t_kind_id = 1 AND ci_role_id = 2"},
	{name: "case3-filters-both-sides", fixture: "imdb", swap: [2]int{0, 2},
		sql: "SELECT COUNT(*) FROM title JOIN movie_keyword WHERE t_kind_id <= 2 AND t_production_year > 1980 AND mk_keyword_id < 40"},
	{name: "case3-two-branches", fixture: "imdb", swap: [2]int{1, 2}, card: true,
		sql: "SELECT COUNT(*) FROM title JOIN movie_keyword JOIN movie_info_idx WHERE t_kind_id = 1 AND mk_keyword_id < 30 AND mix_info_type_id <= 101"},
	{name: "case3-nested", fixture: "imdb1", swap: [2]int{0, 3},
		sql: "SELECT COUNT(*) FROM cast_info JOIN title JOIN movie_info WHERE ci_role_id >= 2 AND ci_role_id <= 4 AND t_kind_id <= 3 AND mi_info_type_id = 1"},
	{name: "case3-nested-model-only", fixture: "imdb1", noData: true, swap: [2]int{0, 3},
		sql: "SELECT COUNT(*) FROM cast_info JOIN title JOIN movie_info WHERE ci_role_id >= 2 AND ci_role_id <= 4 AND t_kind_id <= 3 AND mi_info_type_id = 1"},
	{name: "outer-unfiltered-case3", fixture: "imdb", outer: []string{"movie_keyword"},
		sql: "SELECT COUNT(*) FROM title JOIN movie_keyword WHERE t_kind_id = 1"},
	{name: "outer-filtered-reverts-to-inner", fixture: "imdb", outer: []string{"movie_keyword"}, swap: [2]int{0, 1},
		sql: "SELECT COUNT(*) FROM title JOIN movie_keyword WHERE t_kind_id = 1 AND mk_keyword_id < 50"},
	{name: "outer-unfiltered-case1", fixture: "imdb", outer: []string{"movie_info"},
		sql: "SELECT COUNT(*) FROM title JOIN movie_info WHERE t_production_year >= 2000"},
	{name: "or-2", fixture: "imdb", swap: [2]int{0, 2},
		sql: "SELECT COUNT(*) FROM title JOIN movie_keyword WHERE t_production_year > 1970 AND (t_kind_id = 1 OR mk_keyword_id < 20)"},
	{name: "or-3", fixture: "imdb", swap: [2]int{1, 2}, card: true,
		sql: "SELECT COUNT(*) FROM title JOIN movie_info WHERE (t_kind_id = 4 OR mi_info_type_id = 2 OR t_production_year < 1960)"},
	{name: "median", fixture: "imdb", median: true, swap: [2]int{0, 1},
		sql: "SELECT COUNT(*) FROM title WHERE t_kind_id = 2 AND t_production_year > 1985"},
	{name: "sum-direct", fixture: "imdb", swap: [2]int{0, 1},
		sql: "SELECT SUM(t_production_year) FROM title JOIN movie_info WHERE t_kind_id <= 2 AND mi_info_type_id = 1"},
	{name: "avg-drops-unresolvable-filter", fixture: "imdb", swap: [2]int{0, 1},
		sql: "SELECT AVG(t_production_year) FROM title JOIN movie_keyword WHERE mk_keyword_id < 60 AND t_kind_id = 1"},
	{name: "group-sum-direct-case2", fixture: "imdb", swap: [2]int{0, 1},
		sql: "SELECT SUM(t_production_year) FROM title WHERE t_production_year > 1950 AND t_kind_id <= 5 GROUP BY t_kind_id"},
	{name: "group-count", fixture: "ssb", swap: [2]int{0, 1},
		sql: "SELECT COUNT(*) FROM lineorder JOIN dates WHERE lo_discount <= 3 AND lo_quantity < 25 GROUP BY d_year"},
	{name: "group-sum-count-times-avg", fixture: "ssb", swap: [2]int{0, 1},
		sql: "SELECT SUM(lo_revenue) FROM lineorder JOIN dates WHERE lo_discount >= 1 AND lo_quantity < 30 GROUP BY d_year"},
	{name: "group-avg-two-columns", fixture: "ssb", swap: [2]int{0, 1},
		sql: "SELECT AVG(lo_revenue) FROM lineorder JOIN part WHERE lo_quantity < 40 AND lo_discount > 2 GROUP BY p_mfgr, lo_discount"},
	{name: "group-avg-disjunctive", fixture: "ssb", swap: [2]int{0, 1},
		sql: "SELECT AVG(lo_extendedprice) FROM lineorder JOIN dates WHERE (lo_discount < 2 OR lo_quantity > 45) GROUP BY d_year"},
	{name: "in-list", fixture: "ssb", swap: [2]int{1, 2},
		sql: "SELECT COUNT(*) FROM lineorder JOIN dates WHERE d_year IN (1993, 1995) AND lo_discount < 5 AND lo_quantity > 10"},
	{name: "fd-translated-filter", fixture: "ssb", swap: [2]int{0, 1},
		sql: "SELECT COUNT(*) FROM lineorder JOIN customer WHERE c_region = 2 AND lo_discount = 4"},
	{name: "fd-translated-group-key", fixture: "ssb", swap: [2]int{0, 1},
		sql: "SELECT SUM(lo_quantity) FROM lineorder JOIN supplier WHERE lo_discount < 6 AND s_nation < 12 GROUP BY s_region"},
	// Three members cover {title, movie_info} with equal scores (the first
	// in ensemble order wins); movie_keyword and movie_info_idx are two
	// uncovered branches.
	{name: "case3-4table-partial-tie-two-branches", fixture: "imdb", swap: [2]int{0, 2},
		sql: "SELECT COUNT(*) FROM title JOIN movie_info JOIN movie_keyword JOIN movie_info_idx WHERE t_kind_id <= 3 AND mi_info_type_id = 2 AND mk_keyword_id < 50 AND mix_info_type_id <= 100"},
	{name: "case3-5table-two-branches", fixture: "imdb", swap: [2]int{1, 3}, card: true,
		sql: "SELECT COUNT(*) FROM title JOIN cast_info JOIN movie_info JOIN movie_keyword JOIN movie_info_idx WHERE t_production_year > 1975 AND ci_role_id = 2 AND mi_info_type_id <= 3 AND mk_keyword_id < 70 AND mix_info_type_id <= 101"},
	// movie_keyword answers the left side; the rest nests one level down,
	// where title wins a score tie and leaves two branches.
	{name: "case3-4table-nested", fixture: "imdb1", swap: [2]int{2, 4},
		sql: "SELECT COUNT(*) FROM movie_keyword JOIN title JOIN movie_info_idx JOIN cast_info WHERE mk_keyword_id >= 5 AND mk_keyword_id < 60 AND t_production_year > 1990 AND mix_info_type_id <= 101 AND ci_role_id = 2"},
	{name: "case3-5table-nested", fixture: "imdb1", swap: [2]int{0, 2},
		sql: compile5Table},
	// The dept-assign-proj member covers {dept, proj} of the query as two
	// components of one table each: the first seeded in query order is the
	// left side.
	{name: "case3-component-tie", fixture: "diamond", swap: [2]int{0, 1},
		sql: "SELECT COUNT(*) FROM dept JOIN review JOIN proj WHERE dp_size < 6 AND pj_budget > 2 AND rv_score >= 3"},
	{name: "case3-component-tie-reversed", fixture: "diamond", swap: [2]int{0, 1},
		sql: "SELECT COUNT(*) FROM proj JOIN review JOIN dept WHERE dp_size < 6 AND pj_budget > 2 AND rv_score >= 3"},
}

// compile5Table is a five-table Case-3 query over single-table members:
// cast_info answers the left side and the other four nest below it.
const compile5Table = "SELECT COUNT(*) FROM cast_info JOIN title JOIN movie_info JOIN movie_keyword JOIN movie_companies WHERE ci_role_id >= 2 AND ci_role_id <= 4 AND t_kind_id <= 3 AND mi_info_type_id = 1 AND mk_keyword_id < 80 AND mc_company_type_id = 1"

// diamondFixture is a schema whose FK graph has a cycle — dept and proj
// are each referenced by assign and by review — with a hand-picked
// ensemble: one member over dept ⋈ assign ⋈ proj and one over review. A
// query joining dept, review and proj then finds dept and proj covered by
// one member yet not adjacent through it. Under Theorem 2's independence
// assumption both left sides give the same product, so the two table
// orders differ only in the last bits of the variance; the golden file
// pins which side each order picks.
func diamondFixture(t *testing.T) *ensemble.Ensemble {
	t.Helper()
	id := func(name string) schema.Column { return schema.Column{Name: name, Kind: schema.IntKind} }
	fks := func(prefix string) []schema.ForeignKey {
		return []schema.ForeignKey{
			{Column: prefix + "_dp_id", RefTable: "dept", RefColumn: "dp_id"},
			{Column: prefix + "_pj_id", RefTable: "proj", RefColumn: "pj_id"},
		}
	}
	s := &schema.Schema{Tables: []*schema.Table{
		{Name: "dept", PrimaryKey: "dp_id", Columns: []schema.Column{id("dp_id"), id("dp_size")}},
		{Name: "proj", PrimaryKey: "pj_id", Columns: []schema.Column{id("pj_id"), id("pj_budget")}},
		{Name: "assign", PrimaryKey: "as_id", ForeignKeys: fks("as"),
			Columns: []schema.Column{id("as_id"), id("as_dp_id"), id("as_pj_id"), id("as_hours")}},
		{Name: "review", PrimaryKey: "rv_id", ForeignKeys: fks("rv"),
			Columns: []schema.Column{id("rv_id"), id("rv_dp_id"), id("rv_pj_id"), id("rv_score")}},
	}}
	rng := rand.New(rand.NewSource(1))
	tabs := map[string]*table.Table{}
	for _, meta := range s.Tables {
		tabs[meta.Name] = table.New(meta)
	}
	const depts, projs = 12, 10
	for i := 0; i < depts; i++ {
		tabs["dept"].AppendRow(table.Int(i), table.Int(rng.Intn(10)))
	}
	for i := 0; i < projs; i++ {
		tabs["proj"].AppendRow(table.Int(i), table.Int(rng.Intn(8)))
	}
	for i := 0; i < 400; i++ {
		dp := rng.Intn(depts)
		tabs["assign"].AppendRow(table.Int(i), table.Int(dp), table.Int((dp+rng.Intn(3))%projs), table.Int(rng.Intn(40)))
	}
	for i := 0; i < 250; i++ {
		dp := rng.Intn(depts)
		tabs["review"].AppendRow(table.Int(i), table.Int(dp), table.Int(rng.Intn(projs)), table.Int(dp%5+rng.Intn(3)))
	}
	for _, rel := range s.Relationships() {
		if err := table.AddTupleFactor(tabs[rel.One], tabs[rel.Many], rel); err != nil {
			t.Fatal(err)
		}
	}
	opts := rspn.DefaultLearnOptions()
	learn := func(tables ...string) *rspn.RSPN {
		edges, err := s.JoinTree(tables)
		if err != nil {
			t.Fatal(err)
		}
		data := tabs[tables[0]]
		if len(tables) > 1 {
			j, err := table.IndexJoin(tabs, table.JoinSpec{Tables: tables, Edges: edges}, false)
			if err != nil {
				t.Fatal(err)
			}
			data = j.Table()
		}
		r, err := rspn.Learn(context.Background(), data, tables, edges, rspn.LearnColumns(s, data, tables, nil), nil, opts)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	members := []*rspn.RSPN{learn("dept", "assign", "proj"), learn("review")}
	return ensemble.NewManual(s, tabs, members, ensemble.DefaultConfig())
}

// goldenEngines learns every fixture.
func goldenEngines(t *testing.T) map[string]*Engine {
	t.Helper()
	out := map[string]*Engine{}
	for _, name := range []string{"imdb", "imdb1", "ssb", "diamond"} {
		out[name] = goldenEngine(t, name)
	}
	return out
}

// goldenEngine learns one fixture.
func goldenEngine(t *testing.T, fixture string) *Engine {
	t.Helper()
	if fixture == "diamond" {
		return New(diamondFixture(t))
	}
	cfg := ensemble.DefaultConfig()
	cfg.MaxSamples = 5000
	cfg.SingleTableOnly = fixture == "imdb1"
	var s *schema.Schema
	var tabs map[string]*table.Table
	if fixture == "ssb" {
		s, tabs = datagen.SSB(datagen.SSBConfig{ScaleFactor: 0.001, Seed: 1})
	} else {
		s, tabs = datagen.IMDb(datagen.IMDbConfig{Titles: 400, Seed: 1})
	}
	ens, err := ensemble.Build(context.Background(), s, tabs, cfg)
	if err != nil {
		t.Fatalf("%s: %v", fixture, err)
	}
	return New(ens)
}

func bitsHex(v float64) string { return fmt.Sprintf("%016x", math.Float64bits(v)) }

// runGolden answers one matrix cell. swapped exchanges the case's two
// named literals first.
func runGolden(t *testing.T, engines map[string]*Engine, c goldenCase, swapped bool) []goldenRow {
	t.Helper()
	q, err := query.Parse(c.sql, nil)
	if err != nil {
		t.Fatalf("%s: parse: %v", c.name, err)
	}
	q.OuterTables = c.outer
	if swapped {
		lit := func(i int) *float64 {
			if i < len(q.Filters) {
				return &q.Filters[i].Value
			}
			return &q.Disjunction[i-len(q.Filters)].Value
		}
		a, b := lit(c.swap[0]), lit(c.swap[1])
		*a, *b = *b, *a
	}
	e := *engines[c.fixture]
	if c.median {
		e.Strategy = StrategyMedian
	}
	if c.noData {
		ens := *e.Ens
		ens.Tables = nil
		e.Ens = &ens
	}
	p, err := e.Compile(q)
	if err != nil {
		t.Fatalf("%s: compile: %v", c.name, err)
	}
	var groups []AQPGroup
	if c.card {
		est, err := p.EstimateCardinalityQuery(context.Background(), q)
		if err != nil {
			t.Fatalf("%s: estimate: %v", c.name, err)
		}
		groups = []AQPGroup{finish(nil, est, 0.95)}
	} else {
		res, err := p.ExecuteQuery(context.Background(), ExecOpts{}, q)
		if err != nil {
			t.Fatalf("%s: execute: %v", c.name, err)
		}
		groups = res.Groups
	}
	rows := make([]goldenRow, len(groups))
	for i, g := range groups {
		rows[i] = goldenRow{Key: g.Key, Value: bitsHex(g.Estimate.Value), Variance: bitsHex(g.Estimate.Variance),
			CILow: bitsHex(g.CILow), CIHigh: bitsHex(g.CIHigh)}
	}
	return rows
}

// TestPlanGolden: every cell of the matrix answers with exactly the bits
// in the committed file, and — the must-fail twin — exchanging two
// literals on different columns answers with different bits, so a cell
// cannot pass by ignoring which literal belongs to which column.
func TestPlanGolden(t *testing.T) {
	engines := goldenEngines(t)
	got := make([]goldenEntry, len(goldenMatrix))
	for i, c := range goldenMatrix {
		got[i] = goldenEntry{Name: c.name, Rows: runGolden(t, engines, c, false)}
		if len(got[i].Rows) == 0 {
			t.Fatalf("%s: no rows — the cell pins nothing", c.name)
		}
	}
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want []goldenEntry
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden file has %d entries, the matrix %d", len(want), len(got))
	}
	for i, c := range goldenMatrix {
		if want[i].Name != c.name {
			t.Fatalf("entry %d is %q in the golden file, %q in the matrix", i, want[i].Name, c.name)
		}
		if !reflect.DeepEqual(got[i].Rows, want[i].Rows) {
			t.Errorf("%s: answer moved\n got  %+v\n want %+v", c.name, got[i].Rows, want[i].Rows)
		}
		if c.swap == [2]int{} {
			continue
		}
		if twin := runGolden(t, engines, c, true); reflect.DeepEqual(twin, want[i].Rows) {
			t.Errorf("%s: exchanging literals %d and %d left the answer unchanged", c.name, c.swap[0], c.swap[1])
		}
	}
}
