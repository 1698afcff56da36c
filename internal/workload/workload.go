// Package workload defines the query sets of the paper's evaluation: a
// JOB-light-style benchmark over the IMDb schema, the synthetic
// larger-join query generator behind Figures 1, 7 and 8, the Flights AQP
// queries F1.1-F5.2, and the Star Schema Benchmark queries S1.1-S4.3.
package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/query"
	"repro/internal/table"
)

// Named pairs a query with its benchmark label (e.g. "S1.1").
type Named struct {
	Label string
	Query query.Query
}

// imdbStarTables are the JOB-light fact-table neighbors of title.
var imdbStarTables = []string{
	"movie_companies", "cast_info", "movie_info", "movie_info_idx", "movie_keyword",
}

// imdbPredCols maps each IMDb table to its filterable columns and whether
// the domain is categorical-small (equality/IN) or numeric (ranges).
type predCol struct {
	col     string
	numeric bool
}

var imdbPreds = map[string][]predCol{
	"title":           {{"t_kind_id", false}, {"t_production_year", true}},
	"movie_companies": {{"mc_company_type_id", false}, {"mc_company_id", true}},
	"cast_info":       {{"ci_role_id", false}},
	"movie_info":      {{"mi_info_type_id", false}},
	"movie_info_idx":  {{"mix_info_type_id", false}},
	"movie_keyword":   {{"mk_keyword_id", true}},
}

// JOBLight generates the 70-query JOB-light-style benchmark: star joins of
// title with 1-4 referencing tables (2-5 tables total) and 1-4 predicates,
// with constants drawn from the live data so queries are rarely empty.
func JOBLight(tables map[string]*table.Table, seed int64) []Named {
	rng := rand.New(rand.NewSource(seed))
	var out []Named
	for i := 0; i < 70; i++ {
		nJoin := 1 + rng.Intn(4) // referencing tables joined to title
		qt := []string{"title"}
		for _, t := range pick(rng, imdbStarTables, nJoin) {
			qt = append(qt, t)
		}
		nPred := 1 + rng.Intn(4)
		q := query.Query{Aggregate: query.Count, Tables: qt,
			Filters: imdbFilters(rng, tables, qt, nPred)}
		out = append(out, Named{Label: fmt.Sprintf("JOB-light-%02d", i+1), Query: q})
	}
	return out
}

// SyntheticIMDb generates n queries with joins of the given table counts
// (e.g. 4..6) and 1..5 predicates, the workload of Figures 1, 7 and 8.
func SyntheticIMDb(tables map[string]*table.Table, n int, minTables, maxTables int, seed int64) []Named {
	rng := rand.New(rand.NewSource(seed))
	var out []Named
	for i := 0; i < n; i++ {
		total := minTables + rng.Intn(maxTables-minTables+1)
		nPred := 1 + rng.Intn(5)
		out = append(out, Named{
			Label: fmt.Sprintf("synth-%d-%d", total, nPred),
			Query: synthQuery(rng, tables, total, nPred),
		})
	}
	return out
}

// SyntheticIMDbGrid generates per-(tables, predicates) query sets for the
// Figure 7 grid: join sizes 4-6 x predicate counts 1-5, n queries per cell.
func SyntheticIMDbGrid(tables map[string]*table.Table, nPerCell int, seed int64) map[string][]Named {
	rng := rand.New(rand.NewSource(seed))
	out := make(map[string][]Named)
	for nt := 4; nt <= 6; nt++ {
		for np := 1; np <= 5; np++ {
			key := fmt.Sprintf("%d-%d", nt, np)
			var qs []Named
			for i := 0; i < nPerCell; i++ {
				qs = append(qs, Named{
					Label: fmt.Sprintf("grid-%s-%d", key, i),
					Query: synthQuery(rng, tables, nt, np),
				})
			}
			out[key] = qs
		}
	}
	return out
}

// synthQuery builds one star-join query with `total` tables and nPred
// predicates.
func synthQuery(rng *rand.Rand, tables map[string]*table.Table, total, nPred int) query.Query {
	if total < 2 {
		total = 2
	}
	if total > 6 {
		total = 6
	}
	qt := []string{"title"}
	for _, t := range pick(rng, imdbStarTables, total-1) {
		qt = append(qt, t)
	}
	return query.Query{Aggregate: query.Count, Tables: qt,
		Filters: imdbFilters(rng, tables, qt, nPred)}
}

// imdbFilters draws nPred predicates over the query's tables, anchoring
// constants at values of randomly chosen rows.
func imdbFilters(rng *rand.Rand, tables map[string]*table.Table, queryTables []string, nPred int) []query.Predicate {
	// Collect the candidate columns of the participating tables.
	var cands []predCol
	var owners []string
	for _, tn := range queryTables {
		for _, pc := range imdbPreds[tn] {
			cands = append(cands, pc)
			owners = append(owners, tn)
		}
	}
	var out []query.Predicate
	used := map[string]bool{}
	for len(out) < nPred && len(used) < len(cands) {
		i := rng.Intn(len(cands))
		pc := cands[i]
		if used[pc.col] {
			continue
		}
		used[pc.col] = true
		t := tables[owners[i]]
		col := t.Column(pc.col)
		// Anchor at a random non-NULL row value.
		var v float64
		found := false
		for try := 0; try < 20; try++ {
			r := rng.Intn(t.NumRows())
			if !col.IsNull(r) {
				v = col.Data[r]
				found = true
				break
			}
		}
		if !found {
			continue
		}
		if pc.numeric {
			switch rng.Intn(3) {
			case 0:
				out = append(out, query.Predicate{Column: pc.col, Op: query.Le, Value: v})
			case 1:
				out = append(out, query.Predicate{Column: pc.col, Op: query.Ge, Value: v})
			default:
				out = append(out, query.Predicate{Column: pc.col, Op: query.Gt, Value: v - 1})
			}
		} else {
			if rng.Float64() < 0.25 {
				// IN with 2-3 values.
				vals := []float64{v}
				for len(vals) < 2+rng.Intn(2) {
					r := rng.Intn(t.NumRows())
					if !col.IsNull(r) {
						vals = append(vals, col.Data[r])
					}
				}
				out = append(out, query.Predicate{Column: pc.col, Op: query.In, Values: dedup(vals)})
			} else {
				out = append(out, query.Predicate{Column: pc.col, Op: query.Eq, Value: v})
			}
		}
	}
	return out
}

func dedup(vs []float64) []float64 {
	seen := map[float64]bool{}
	var out []float64
	for _, v := range vs {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// pick draws k distinct elements from xs.
func pick(rng *rand.Rand, xs []string, k int) []string {
	if k > len(xs) {
		k = len(xs)
	}
	perm := rng.Perm(len(xs))
	out := make([]string, k)
	for i := 0; i < k; i++ {
		out[i] = xs[perm[i]]
	}
	return out
}

// FlightsQueries returns the F1.1-F5.2 query set: COUNT/AVG/SUM with
// selectivities from ~5% down to ~0.01% and a variety of group-bys,
// mirroring the structure described in Section 6.2.
func FlightsQueries() []Named {
	f := "flights"
	return []Named{
		{"F1.1", query.Query{Aggregate: query.Count, Tables: []string{f},
			Filters: []query.Predicate{{Column: "f_carrier", Op: query.Eq, Value: 1}}}},
		{"F1.2", query.Query{Aggregate: query.Count, Tables: []string{f},
			Filters: []query.Predicate{
				{Column: "f_carrier", Op: query.Eq, Value: 2},
				{Column: "f_dep_delay", Op: query.Gt, Value: 30}}}},
		{"F2.1", query.Query{Aggregate: query.Avg, AggColumn: "f_arr_delay", Tables: []string{f},
			Filters: []query.Predicate{{Column: "f_month", Op: query.Eq, Value: 12}}}},
		{"F2.2", query.Query{Aggregate: query.Avg, AggColumn: "f_arr_delay", Tables: []string{f},
			Filters: []query.Predicate{
				{Column: "f_origin", Op: query.Eq, Value: 1},
				{Column: "f_dep_delay", Op: query.Gt, Value: 15}}}},
		{"F2.3", query.Query{Aggregate: query.Avg, AggColumn: "f_dep_delay", Tables: []string{f},
			Filters: []query.Predicate{
				{Column: "f_carrier", Op: query.Eq, Value: 3},
				{Column: "f_month", Op: query.In, Values: []float64{6, 7}}}}},
		{"F3.1", query.Query{Aggregate: query.Count, Tables: []string{f},
			GroupBy: []string{"f_day_of_week"},
			Filters: []query.Predicate{{Column: "f_dep_delay", Op: query.Gt, Value: 60}}}},
		{"F3.2", query.Query{Aggregate: query.Avg, AggColumn: "f_taxi_out", Tables: []string{f},
			GroupBy: []string{"f_month"},
			Filters: []query.Predicate{{Column: "f_origin", Op: query.Le, Value: 3}}}},
		{"F3.3", query.Query{Aggregate: query.Sum, AggColumn: "f_distance", Tables: []string{f},
			GroupBy: []string{"f_carrier"},
			Filters: []query.Predicate{{Column: "f_dep_delay", Op: query.Gt, Value: 45}}}},
		{"F4.1", query.Query{Aggregate: query.Avg, AggColumn: "f_arr_delay", Tables: []string{f},
			Filters: []query.Predicate{
				{Column: "f_carrier", Op: query.Eq, Value: 7},
				{Column: "f_month", Op: query.Eq, Value: 1},
				{Column: "f_dep_delay", Op: query.Gt, Value: 20}}}},
		{"F4.2", query.Query{Aggregate: query.Count, Tables: []string{f},
			Filters: []query.Predicate{
				{Column: "f_origin", Op: query.Eq, Value: 2},
				{Column: "f_dest", Op: query.Eq, Value: 1},
				{Column: "f_dep_delay", Op: query.Gt, Value: 10}}}},
		{"F5.1", query.Query{Aggregate: query.Sum, AggColumn: "f_air_time", Tables: []string{f},
			Filters: []query.Predicate{
				{Column: "f_carrier", Op: query.Eq, Value: 9},
				{Column: "f_distance", Op: query.Gt, Value: 2000}}}},
		{"F5.2", query.Query{Aggregate: query.Sum, AggColumn: "f_arr_delay", Tables: []string{f},
			Filters: []query.Predicate{
				{Column: "f_carrier", Op: query.Eq, Value: 11},
				{Column: "f_dep_delay", Op: query.Gt, Value: 30}}}},
	}
}

// SSBQueries returns the S1.1-S4.3 query set. Derived-measure aggregates of
// the official benchmark (extendedprice*discount, revenue-supplycost) map
// to the lo_revenue / lo_profit columns datagen.SSB materializes per row,
// because a query here aggregates one column and has no arithmetic
// expressions.
func SSBQueries() []Named {
	lo := "lineorder"
	return []Named{
		{"S1.1", query.Query{Aggregate: query.Sum, AggColumn: "lo_revenue",
			Tables: []string{lo, "dates"},
			Filters: []query.Predicate{
				{Column: "d_year", Op: query.Eq, Value: 1993},
				{Column: "lo_discount", Op: query.Ge, Value: 1},
				{Column: "lo_discount", Op: query.Le, Value: 3},
				{Column: "lo_quantity", Op: query.Lt, Value: 25}}}},
		{"S1.2", query.Query{Aggregate: query.Sum, AggColumn: "lo_revenue",
			Tables: []string{lo, "dates"},
			Filters: []query.Predicate{
				{Column: "d_yearmonthnum", Op: query.Eq, Value: 199401},
				{Column: "lo_discount", Op: query.Ge, Value: 4},
				{Column: "lo_discount", Op: query.Le, Value: 6},
				{Column: "lo_quantity", Op: query.Ge, Value: 26},
				{Column: "lo_quantity", Op: query.Le, Value: 35}}}},
		{"S1.3", query.Query{Aggregate: query.Sum, AggColumn: "lo_revenue",
			Tables: []string{lo, "dates"},
			Filters: []query.Predicate{
				{Column: "d_weeknuminyear", Op: query.Eq, Value: 6},
				{Column: "d_year", Op: query.Eq, Value: 1994},
				{Column: "lo_discount", Op: query.Ge, Value: 5},
				{Column: "lo_discount", Op: query.Le, Value: 7},
				{Column: "lo_quantity", Op: query.Ge, Value: 26},
				{Column: "lo_quantity", Op: query.Le, Value: 35}}}},
		{"S2.1", query.Query{Aggregate: query.Sum, AggColumn: "lo_revenue",
			Tables:  []string{lo, "dates", "part", "supplier"},
			GroupBy: []string{"d_year"},
			Filters: []query.Predicate{
				{Column: "p_category", Op: query.Eq, Value: 12},
				{Column: "s_region", Op: query.Eq, Value: 1}}}},
		{"S2.2", query.Query{Aggregate: query.Sum, AggColumn: "lo_revenue",
			Tables:  []string{lo, "dates", "part", "supplier"},
			GroupBy: []string{"d_year"},
			Filters: []query.Predicate{
				{Column: "p_brand1", Op: query.Ge, Value: 2221},
				{Column: "p_brand1", Op: query.Le, Value: 2228},
				{Column: "s_region", Op: query.Eq, Value: 2}}}},
		{"S2.3", query.Query{Aggregate: query.Sum, AggColumn: "lo_revenue",
			Tables:  []string{lo, "dates", "part", "supplier"},
			GroupBy: []string{"d_year"},
			Filters: []query.Predicate{
				{Column: "p_brand1", Op: query.Eq, Value: 2239},
				{Column: "s_region", Op: query.Eq, Value: 3}}}},
		{"S3.1", query.Query{Aggregate: query.Sum, AggColumn: "lo_revenue",
			Tables:  []string{lo, "dates", "customer", "supplier"},
			GroupBy: []string{"d_year"},
			Filters: []query.Predicate{
				{Column: "c_region", Op: query.Eq, Value: 2},
				{Column: "s_region", Op: query.Eq, Value: 2},
				{Column: "d_year", Op: query.Ge, Value: 1992},
				{Column: "d_year", Op: query.Le, Value: 1997}}}},
		{"S3.2", query.Query{Aggregate: query.Sum, AggColumn: "lo_revenue",
			Tables:  []string{lo, "dates", "customer", "supplier"},
			GroupBy: []string{"d_year"},
			Filters: []query.Predicate{
				{Column: "c_nation", Op: query.Eq, Value: 12},
				{Column: "s_nation", Op: query.Eq, Value: 12},
				{Column: "d_year", Op: query.Ge, Value: 1992},
				{Column: "d_year", Op: query.Le, Value: 1997}}}},
		{"S3.3", query.Query{Aggregate: query.Sum, AggColumn: "lo_revenue",
			Tables:  []string{lo, "dates", "customer", "supplier"},
			GroupBy: []string{"d_year"},
			Filters: []query.Predicate{
				{Column: "c_city", Op: query.In, Values: []float64{121, 125}},
				{Column: "s_city", Op: query.In, Values: []float64{121, 125}},
				{Column: "d_year", Op: query.Ge, Value: 1992},
				{Column: "d_year", Op: query.Le, Value: 1997}}}},
		{"S3.4", query.Query{Aggregate: query.Sum, AggColumn: "lo_revenue",
			Tables:  []string{lo, "dates", "customer", "supplier"},
			GroupBy: []string{"d_year"},
			Filters: []query.Predicate{
				{Column: "c_city", Op: query.In, Values: []float64{121, 125}},
				{Column: "s_city", Op: query.In, Values: []float64{121, 125}},
				{Column: "d_yearmonthnum", Op: query.Eq, Value: 199712}}}},
		{"S4.1", query.Query{Aggregate: query.Sum, AggColumn: "lo_profit",
			Tables:  []string{lo, "dates", "customer", "supplier", "part"},
			GroupBy: []string{"d_year"},
			Filters: []query.Predicate{
				{Column: "c_region", Op: query.Eq, Value: 1},
				{Column: "s_region", Op: query.Eq, Value: 1},
				{Column: "p_mfgr", Op: query.In, Values: []float64{1, 2}}}}},
		{"S4.2", query.Query{Aggregate: query.Sum, AggColumn: "lo_profit",
			Tables:  []string{lo, "dates", "customer", "supplier", "part"},
			GroupBy: []string{"d_year", "p_category"},
			Filters: []query.Predicate{
				{Column: "c_region", Op: query.Eq, Value: 1},
				{Column: "s_region", Op: query.Eq, Value: 1},
				{Column: "d_year", Op: query.In, Values: []float64{1997, 1998}},
				{Column: "p_mfgr", Op: query.In, Values: []float64{1, 2}}}}},
		{"S4.3", query.Query{Aggregate: query.Sum, AggColumn: "lo_profit",
			Tables:  []string{lo, "dates", "supplier", "part"},
			GroupBy: []string{"d_year", "p_brand1"},
			Filters: []query.Predicate{
				{Column: "s_nation", Op: query.Eq, Value: 7},
				{Column: "d_year", Op: query.In, Values: []float64{1997, 1998}},
				{Column: "p_category", Op: query.Eq, Value: 14}}}},
	}
}
