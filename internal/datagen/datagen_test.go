package datagen

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/exact"
	"repro/internal/query"
	"repro/internal/schema"
	"repro/internal/stats"
	"repro/internal/table"
)

func TestIMDbShape(t *testing.T) {
	s, tabs := IMDb(IMDbConfig{Titles: 1000, Seed: 1})
	if err := Validate(s, tabs); err != nil {
		t.Fatal(err)
	}
	if got := tabs["title"].NumRows(); got != 1000 {
		t.Fatalf("titles = %d, want 1000", got)
	}
	// Referencing tables must be non-trivially populated.
	for _, name := range []string{"movie_companies", "cast_info", "movie_info", "movie_keyword"} {
		if tabs[name].NumRows() < 500 {
			t.Fatalf("%s has only %d rows", name, tabs[name].NumRows())
		}
	}
	// FK integrity: every referencing row joins a real title.
	oracle := exact.New(s, tabs)
	ci := float64(tabs["cast_info"].NumRows())
	joined, err := oracle.JoinSize([]string{"title", "cast_info"})
	if err != nil {
		t.Fatal(err)
	}
	if joined != ci {
		t.Fatalf("join size %v != cast_info rows %v (dangling FKs?)", joined, ci)
	}
}

func TestIMDbDeterministic(t *testing.T) {
	_, a := IMDb(IMDbConfig{Titles: 200, Seed: 5})
	_, b := IMDb(IMDbConfig{Titles: 200, Seed: 5})
	if a["cast_info"].NumRows() != b["cast_info"].NumRows() {
		t.Fatal("same seed must reproduce the same data")
	}
	va := a["title"].Column("t_kind_id").Data
	vb := b["title"].Column("t_kind_id").Data
	for i := range va {
		if va[i] != vb[i] {
			t.Fatal("same seed must reproduce identical values")
		}
	}
}

func TestIMDbPlantedCorrelations(t *testing.T) {
	_, tabs := IMDb(IMDbConfig{Titles: 4000, Seed: 2})
	title := tabs["title"]
	years := title.Column("t_production_year")
	kinds := title.Column("t_kind_id")
	var ys, ks []float64
	for i := 0; i < title.NumRows(); i++ {
		if years.IsNull(i) {
			continue
		}
		ys = append(ys, years.Data[i])
		ks = append(ks, kinds.Data[i])
	}
	cfg := stats.LearnRDCConfig(1)
	rdc := stats.RDCPair(stats.PrepareRDC(ys, stats.RoleX, cfg), stats.PrepareRDC(ks, stats.RoleY, cfg))
	if rdc < 0.15 {
		t.Fatalf("year-kind RDC %v: planted correlation missing", rdc)
	}
	// NULL years should be roughly 5%.
	nulls := 0
	for i := 0; i < title.NumRows(); i++ {
		if years.IsNull(i) {
			nulls++
		}
	}
	frac := float64(nulls) / float64(title.NumRows())
	if frac < 0.02 || frac > 0.1 {
		t.Fatalf("NULL year fraction %v, want ~0.05", frac)
	}
}

func TestIMDbFanoutGrowsWithYear(t *testing.T) {
	s, tabs := IMDb(IMDbConfig{Titles: 4000, Seed: 3})
	oracle := exact.New(s, tabs)
	old, err := oracle.Cardinality(query.Query{Aggregate: query.Count,
		Tables:  []string{"title", "cast_info"},
		Filters: []query.Predicate{{Column: "t_production_year", Op: query.Lt, Value: 1960}}})
	if err != nil {
		t.Fatal(err)
	}
	oldTitles, _ := oracle.Cardinality(query.Query{Aggregate: query.Count, Tables: []string{"title"},
		Filters: []query.Predicate{{Column: "t_production_year", Op: query.Lt, Value: 1960}}})
	recent, _ := oracle.Cardinality(query.Query{Aggregate: query.Count,
		Tables:  []string{"title", "cast_info"},
		Filters: []query.Predicate{{Column: "t_production_year", Op: query.Ge, Value: 2000}}})
	recentTitles, _ := oracle.Cardinality(query.Query{Aggregate: query.Count, Tables: []string{"title"},
		Filters: []query.Predicate{{Column: "t_production_year", Op: query.Ge, Value: 2000}}})
	if oldTitles == 0 || recentTitles == 0 {
		t.Skip("degenerate split")
	}
	if recent/recentTitles <= old/oldTitles {
		t.Fatalf("fanout should grow with year: old %.2f recent %.2f",
			old/oldTitles, recent/recentTitles)
	}
}

func TestFlightsShape(t *testing.T) {
	s, tabs := Flights(FlightsConfig{Rows: 5000, Seed: 1})
	if err := Validate(s, tabs); err != nil {
		t.Fatal(err)
	}
	f := tabs["flights"]
	if f.NumRows() != 5000 {
		t.Fatalf("rows = %d", f.NumRows())
	}
	// Planted physics: air time correlates with distance strongly; arrival
	// delay with departure delay.
	at := f.Column("f_air_time").Data
	di := f.Column("f_distance").Data
	if p := stats.Pearson(at, di); p < 0.9 {
		t.Fatalf("air_time-distance correlation %v, want > 0.9", p)
	}
	ad := f.Column("f_arr_delay").Data
	dd := f.Column("f_dep_delay").Data
	if p := stats.Pearson(ad, dd); p < 0.7 {
		t.Fatalf("arr-dep delay correlation %v, want > 0.7", p)
	}
}

func TestFlightsDelayTail(t *testing.T) {
	_, tabs := Flights(FlightsConfig{Rows: 20000, Seed: 4})
	dd := tabs["flights"].Column("f_dep_delay").Data
	mean := stats.Mean(dd)
	p99 := stats.Quantile(dd, 0.99)
	// Heavy tail: the 99th percentile should be far above the mean.
	if p99 < mean+40 {
		t.Fatalf("departure delay lacks a heavy tail: mean %.1f p99 %.1f", mean, p99)
	}
}

func TestSSBShape(t *testing.T) {
	s, tabs := SSB(SSBConfig{ScaleFactor: 0.002, Seed: 1})
	if err := Validate(s, tabs); err != nil {
		t.Fatal(err)
	}
	lo := tabs["lineorder"]
	if lo.NumRows() != 12000 {
		t.Fatalf("lineorders = %d, want 12000 (SF 0.002)", lo.NumRows())
	}
	// Dimension hierarchy: city encodes nation encodes region.
	cust := tabs["customer"]
	for i := 0; i < cust.NumRows(); i++ {
		region := cust.Column("c_region").Data[i]
		nation := cust.Column("c_nation").Data[i]
		city := cust.Column("c_city").Data[i]
		if math.Floor(nation/5) != region {
			t.Fatalf("nation %v not in region %v", nation, region)
		}
		if math.Floor(city/10) != nation {
			t.Fatalf("city %v not in nation %v", city, nation)
		}
	}
	// Revenue = extendedprice * (1 - discount/100) must hold per row.
	for i := 0; i < 100; i++ {
		ext := lo.Column("lo_extendedprice").Data[i]
		disc := lo.Column("lo_discount").Data[i]
		rev := lo.Column("lo_revenue").Data[i]
		want := ext * (1 - disc/100)
		if math.Abs(rev-want) > 1e-6 {
			t.Fatalf("row %d: revenue %v != %v", i, rev, want)
		}
		profit := lo.Column("lo_profit").Data[i]
		cost := lo.Column("lo_supplycost").Data[i]
		if math.Abs(profit-(rev-cost)) > 1e-6 {
			t.Fatalf("row %d: profit %v != revenue-cost %v", i, profit, rev-cost)
		}
	}
}

func TestSSBQuantityDiscountCorrelation(t *testing.T) {
	_, tabs := SSB(SSBConfig{ScaleFactor: 0.005, Seed: 2})
	lo := tabs["lineorder"]
	q := lo.Column("lo_quantity").Data
	d := lo.Column("lo_discount").Data
	if p := stats.Pearson(q, d); p > -0.05 {
		t.Fatalf("quantity-discount correlation %v, want negative", p)
	}
}

func TestValidateCatchesMissingTable(t *testing.T) {
	s, tabs := SSB(SSBConfig{ScaleFactor: 0.002, Seed: 3})
	delete(tabs, "part")
	if err := Validate(s, tabs); err == nil {
		t.Fatal("expected error for missing table")
	}
}

func TestZipfSkew(t *testing.T) {
	rng := newTestRand()
	counts := map[int]int{}
	n := 50000
	for i := 0; i < n; i++ {
		counts[zipfInt(rng, 100, 2.5)]++
	}
	// Value 1 must be far more frequent than value 50.
	if counts[1] < 5*counts[50] {
		t.Fatalf("zipf skew too weak: c1=%d c50=%d", counts[1], counts[50])
	}
	for v := range counts {
		if v < 1 || v > 100 {
			t.Fatalf("zipf value %d out of range", v)
		}
	}
}

func TestPoissonish(t *testing.T) {
	rng := newTestRand()
	total := 0
	n := 20000
	for i := 0; i < n; i++ {
		k := poissonish(rng, 3)
		if k < 0 {
			t.Fatal("negative count")
		}
		total += k
	}
	mean := float64(total) / float64(n)
	if math.Abs(mean-3) > 0.2 {
		t.Fatalf("poisson mean %v, want ~3", mean)
	}
	if poissonish(rng, 0) != 0 {
		t.Fatal("zero mean should give zero")
	}
}

func newTestRand() *rand.Rand { return rand.New(rand.NewSource(1)) }

// Validate asserts generated data matches its schema (all generators).
func Validate(s *schema.Schema, tables map[string]*table.Table) error {
	if err := s.Validate(); err != nil {
		return err
	}
	for _, meta := range s.Tables {
		t, ok := tables[meta.Name]
		if !ok {
			return fmt.Errorf("datagen: missing table %s", meta.Name)
		}
		if t.NumRows() == 0 {
			return fmt.Errorf("datagen: table %s is empty", meta.Name)
		}
	}
	return nil
}
