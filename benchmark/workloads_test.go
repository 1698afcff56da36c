package main

import (
	"reflect"
	"testing"

	"repro/internal/exact"
	"repro/internal/query"
)

// testSizes is a scale at which every generator runs in milliseconds.
var testSizes = sizes{
	titles: 500, ssbSF: 0.002, adhocQueries: 150, hotShapes: 4, hotBindings: 16,
	ssbVariants: 3, writeRate: 500, setupReps: 1, traceSample: 40, traceAQP: 13,
}

func TestStreamsAreDeterministicForASeed(t *testing.T) {
	hundred := make([]request, 100) // of one kind, as the IMDb workloads have
	draw := func(s stream) []int {
		out := make([]int, 500)
		for i := range out {
			out[i] = s.next()
		}
		return out
	}
	for _, sp := range []spec{{hot: true}, {hot: false}} {
		a, b := draw(newStream(sp, hundred, 7, 0)), draw(newStream(sp, hundred, 7, 0))
		if !reflect.DeepEqual(a, b) {
			t.Errorf("hot=%v: same seed, different draws", sp.hot)
		}
		if c := draw(newStream(sp, hundred, 8, 0)); reflect.DeepEqual(a, c) {
			t.Errorf("hot=%v: another seed, same draws", sp.hot)
		}
		if c := draw(newStream(sp, hundred, 7, 1)); reflect.DeepEqual(a, c) {
			t.Errorf("hot=%v: the two connections send the same sequence", sp.hot)
		}
	}
	// A permutation stream sends every request once per pass.
	seen := map[int]int{}
	for _, i := range draw(newPermStream(hundred, 3)) {
		seen[i]++
	}
	for i := 0; i < 100; i++ {
		if seen[i] != 5 {
			t.Fatalf("request %d sent %d times in 5 passes", i, seen[i])
		}
	}
	// A Zipf stream is skewed: the most popular request dominates.
	hits := map[int]int{}
	for _, i := range draw(newZipfStream(100, 3, 4)) {
		hits[i]++
	}
	top := 0
	for _, n := range hits {
		top = max(top, n)
	}
	if top < 50 {
		t.Errorf("most popular request drew %d of 500; Zipf(1.1) should concentrate far more", top)
	}
}

// Requests with a class are dealt one per class per round, so a window of
// any 13 consecutive SSB requests costs about the same.
func TestPermStreamDealsClassesInRounds(t *testing.T) {
	var reqs []request
	for c := 1; c <= 13; c++ {
		for v := 0; v < 4; v++ {
			reqs = append(reqs, request{class: c})
		}
	}
	p := newPermStream(reqs, 9)
	if len(p.perm) != len(reqs) {
		t.Fatalf("permutation of %d requests has %d entries", len(reqs), len(p.perm))
	}
	sent := map[int]bool{}
	for round := 0; round < 4; round++ {
		classes := map[int]bool{}
		for _, i := range p.perm[13*round : 13*(round+1)] {
			classes[reqs[i].class] = true
			sent[i] = true
		}
		if len(classes) != 13 {
			t.Errorf("round %d holds %d of 13 classes", round, len(classes))
		}
	}
	if len(sent) != len(reqs) {
		t.Errorf("a pass sends %d of %d distinct requests", len(sent), len(reqs))
	}
}

// allQueries generates every workload's requests at test scale.
func allQueries(t *testing.T, seed int64) map[string][]request {
	t.Helper()
	out := map[string][]request{}
	for _, sp := range specs {
		reqs, validated, err := buildRequests(sp, genDataset(sp.data, testSizes), testSizes, seed)
		if err != nil {
			t.Fatalf("%s: %v", sp.name, err)
		}
		if len(reqs) == 0 || len(validated) == 0 {
			t.Fatalf("%s: %d requests, %d validated", sp.name, len(reqs), len(validated))
		}
		out[sp.name] = append(reqs, validated...)
	}
	return out
}

// Parse(render(q)) must give back q's shape and literals for every query
// the benchmark generates — query.Query.String() does not (it prints IN
// lists as Go slices).
func TestRenderSQLRoundTrips(t *testing.T) {
	for name, reqs := range allQueries(t, 5) {
		for _, r := range reqs {
			got, err := query.Parse(r.sql, nil)
			if err != nil {
				t.Fatalf("%s: %q does not parse: %v", name, r.sql, err)
			}
			if got.ShapeKey() != r.q.ShapeKey() {
				t.Fatalf("%s: %q parsed to shape %s, want %s", name, r.sql, got.ShapeKey(), r.q.ShapeKey())
			}
			for i, p := range r.q.Filters {
				g := got.Filters[i]
				if g.Value != p.Value || !reflect.DeepEqual(g.Values, p.Values) {
					t.Fatalf("%s: %q predicate %d parsed to %+v, want %+v", name, r.sql, i, g, p)
				}
			}
		}
	}
	if _, err := query.Parse(query.Query{Tables: []string{"t"}, Filters: []query.Predicate{{Column: "c", Op: query.In, Values: []float64{2}}}}.String(), nil); err == nil {
		t.Error("query.Query.String() now parses; the benchmark-local renderer may no longer be needed")
	}
}

func TestRenderSQLRejectsWhatSQLCannotSay(t *testing.T) {
	base := query.Query{Aggregate: query.Count, Tables: []string{"title", "cast_info"}}
	bad := map[string]query.Query{
		"placeholder":    base.WithExtraFilter(query.Predicate{Column: "ci_role_id", Op: query.Eq, Param: 1}),
		"in placeholder": {Tables: base.Tables, Disjunction: []query.Predicate{{Column: "ci_role_id", Op: query.Gt, Param: 1}}},
		"empty IN":       base.WithExtraFilter(query.Predicate{Column: "ci_role_id", Op: query.In}),
		"outer join":     {Tables: base.Tables, OuterTables: []string{"cast_info"}},
	}
	for name, q := range bad {
		if sql, err := renderSQL(q); err == nil {
			t.Errorf("%s rendered as %q, want an error", name, sql)
		}
	}
	sql, err := renderSQL(query.Query{Aggregate: query.Sum, AggColumn: "x", Tables: []string{"a", "b"},
		Filters:     []query.Predicate{{Column: "c", Op: query.Le, Value: -1.5e-7}},
		Disjunction: []query.Predicate{{Column: "d", Op: query.Eq, Value: 1}, {Column: "e", Op: query.Ne, Value: 2}},
		GroupBy:     []string{"g", "h"}})
	if want := "SELECT SUM(x) FROM a JOIN b WHERE c <= -1.5e-07 AND (d = 1 OR e <> 2) GROUP BY g, h"; err != nil || sql != want {
		t.Errorf("rendered %q, %v; want %q", sql, err, want)
	}
}

func TestGeneratedRequestsAreDeterministicAndSized(t *testing.T) {
	a, b, c := allQueries(t, 5), allQueries(t, 5), allQueries(t, 6)
	for _, sp := range specs {
		sqls := func(rs []request) (out []string) {
			for _, r := range rs {
				out = append(out, r.sql)
			}
			return
		}
		if !reflect.DeepEqual(sqls(a[sp.name]), sqls(b[sp.name])) {
			t.Errorf("%s: same seed, different requests", sp.name)
		}
		if reflect.DeepEqual(sqls(a[sp.name]), sqls(c[sp.name])) {
			t.Errorf("%s: another seed, same requests", sp.name)
		}
	}
	hot, _, err := buildRequests(specs[1], genDataset("imdb", testSizes), testSizes, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(hot) != testSizes.hotShapes*testSizes.hotBindings {
		t.Fatalf("hot mix has %d requests, want %d", len(hot), testSizes.hotShapes*testSizes.hotBindings)
	}
	shapes, distinct := map[string]bool{}, map[string]bool{}
	for _, r := range hot {
		shapes[r.q.ShapeKey()] = true
		distinct[r.sql] = true
	}
	if len(shapes) != testSizes.hotShapes || len(distinct) != len(hot) {
		t.Errorf("hot mix: %d shapes, %d distinct of %d", len(shapes), len(distinct), len(hot))
	}
	// The hot shapes are part of the fixed system, not of the seed.
	other, _, err := buildRequests(specs[1], genDataset("imdb", testSizes), testSizes, 6)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range other {
		if !shapes[r.q.ShapeKey()] {
			t.Fatalf("seed 6 sends shape %s, which seed 5 does not", r.q.ShapeKey())
		}
	}
	aqp, paper, err := buildRequests(specs[2], genDataset("ssb", testSizes), testSizes, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(aqp) != 13*testSizes.ssbVariants || len(paper) != 13 {
		t.Errorf("aqp mix has %d requests and %d validated, want %d and 13", len(aqp), len(paper), 13*testSizes.ssbVariants)
	}
}

// The star oracle must agree with internal/exact, before and after the
// harness's mirror of a write stream is applied.
func TestStarOracleMatchesExact(t *testing.T) {
	ds := genDataset("imdb", testSizes)
	reqs, _, err := buildRequests(specs[0], ds, testSizes, 3)
	if err != nil {
		t.Fatal(err)
	}
	ops := genWrites(ds, 400, 3)
	acked := make([]bool, len(ops))
	inserts, deletes := 0, 0
	for i := range ops {
		acked[i] = i%7 != 0 // refused writes must not reach the mirror
		if acked[i] && ops[i].insert {
			inserts++
		} else if acked[i] {
			deletes++
		}
	}
	if deletes == 0 || inserts == 0 {
		t.Fatalf("write stream has %d inserts and %d deletes", inserts, deletes)
	}
	mutated := applyWrites(ds, ops, acked)
	rowsBefore := ds.tabs["cast_info"].NumRows() + ds.tabs["movie_keyword"].NumRows()
	rowsAfter := mutated.tabs["cast_info"].NumRows() + mutated.tabs["movie_keyword"].NumRows()
	if rowsAfter != rowsBefore+inserts-deletes {
		t.Fatalf("mirror has %d rows, want %d + %d - %d", rowsAfter, rowsBefore, inserts, deletes)
	}
	moved := 0
	for _, d := range []dataset{ds, mutated} {
		o, err := newStarOracle(d.schema, d.tabs, "title")
		if err != nil {
			t.Fatal(err)
		}
		ex := exact.New(d.schema, d.tabs)
		for _, r := range reqs[:60] {
			got, err := o.count(r.q)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ex.Execute(r.q)
			if err != nil {
				t.Fatal(err)
			}
			if got != want.Scalar() {
				t.Fatalf("%s: oracle %v, exact %v", r.sql, got, want.Scalar())
			}
			if d.tabs["cast_info"] != ds.tabs["cast_info"] {
				if before, _ := exact.New(ds.schema, ds.tabs).Execute(r.q); before.Scalar() != got {
					moved++
				}
			}
		}
	}
	if moved == 0 {
		t.Error("no validated count moved under 340 writes; the mirror is not being applied")
	}
	if _, err := newStarOracle(ds.schema, ds.tabs, "nope"); err == nil {
		t.Error("an oracle over a missing hub was accepted")
	}
	o, _ := newStarOracle(ds.schema, ds.tabs, "title")
	if _, err := o.count(query.Query{Aggregate: query.Count, Tables: []string{"title"}, GroupBy: []string{"t_kind_id"}}); err == nil {
		t.Error("the oracle accepted a grouped query")
	}
}

func TestQErrorsCountMissingAndExtraGroups(t *testing.T) {
	validated := []request{
		{truth: []query.Group{{Key: []float64{1}, Value: 100}, {Key: []float64{2}, Value: 40}}},
		{truth: []query.Group{{Value: 10}}},
	}
	served := []answer{
		{groups: map[string]groupRow{
			keyString([]float64{1}): {Value: 50}, // off by 2x
			keyString([]float64{3}): {Value: 8},  // extra: costs max(8, 1)
		}}, // group 2 is missing: costs max(40, 1)
		{est: estimate{Value: 0.2}}, // clamped to one tuple
	}
	if got, want := qerrors(validated, served), []float64{2, 40, 8, 10}; !reflect.DeepEqual(got, want) {
		t.Errorf("q-errors = %v, want %v", got, want)
	}
}
