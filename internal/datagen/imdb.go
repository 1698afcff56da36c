// Package datagen generates the three data sets of the paper's evaluation
// as seeded synthetic equivalents: an IMDb-style movie schema with the
// JOB-light join structure, the Flights delay table, and the Star Schema
// Benchmark. Each generator plants the correlations and skew the original
// data is known for, so the estimation problems have the same character
// even though the tuples are synthetic. The substitution keeps every
// experiment seeded and offline: the original data sets do not ship with
// the repository.
package datagen

import (
	"math"
	"math/rand"

	"repro/internal/schema"
	"repro/internal/table"
)

// IMDbConfig scales the IMDb-style generator.
type IMDbConfig struct {
	// Titles is the number of movies; referencing tables grow with their
	// per-title fanouts (roughly 12x in total).
	Titles int
	Seed   int64
}

// DefaultIMDbConfig is laptop-scale but large enough for stable statistics.
func DefaultIMDbConfig() IMDbConfig { return IMDbConfig{Titles: 10000, Seed: 1} }

// IMDbSchema returns the JOB-light schema: title plus five referencing
// tables, each FK-joined to title (a star), matching the join structure the
// benchmark exercises.
func IMDbSchema() *schema.Schema {
	fk := func(col string) []schema.ForeignKey {
		return []schema.ForeignKey{{Column: col, RefTable: "title", RefColumn: "t_id"}}
	}
	return &schema.Schema{Tables: []*schema.Table{
		{Name: "title", PrimaryKey: "t_id", Columns: []schema.Column{
			{Name: "t_id", Kind: schema.IntKind},
			{Name: "t_kind_id", Kind: schema.IntKind},
			{Name: "t_production_year", Kind: schema.IntKind, Nullable: true},
		}},
		{Name: "movie_companies", PrimaryKey: "mc_id", ForeignKeys: fk("mc_t_id"), Columns: []schema.Column{
			{Name: "mc_id", Kind: schema.IntKind},
			{Name: "mc_t_id", Kind: schema.IntKind},
			{Name: "mc_company_type_id", Kind: schema.IntKind},
			{Name: "mc_company_id", Kind: schema.IntKind},
		}},
		{Name: "cast_info", PrimaryKey: "ci_id", ForeignKeys: fk("ci_t_id"), Columns: []schema.Column{
			{Name: "ci_id", Kind: schema.IntKind},
			{Name: "ci_t_id", Kind: schema.IntKind},
			{Name: "ci_role_id", Kind: schema.IntKind},
		}},
		{Name: "movie_info", PrimaryKey: "mi_id", ForeignKeys: fk("mi_t_id"), Columns: []schema.Column{
			{Name: "mi_id", Kind: schema.IntKind},
			{Name: "mi_t_id", Kind: schema.IntKind},
			{Name: "mi_info_type_id", Kind: schema.IntKind},
		}},
		{Name: "movie_info_idx", PrimaryKey: "mix_id", ForeignKeys: fk("mix_t_id"), Columns: []schema.Column{
			{Name: "mix_id", Kind: schema.IntKind},
			{Name: "mix_t_id", Kind: schema.IntKind},
			{Name: "mix_info_type_id", Kind: schema.IntKind},
		}},
		{Name: "movie_keyword", PrimaryKey: "mk_id", ForeignKeys: fk("mk_t_id"), Columns: []schema.Column{
			{Name: "mk_id", Kind: schema.IntKind},
			{Name: "mk_t_id", Kind: schema.IntKind},
			{Name: "mk_keyword_id", Kind: schema.IntKind},
		}},
	}}
}

// zipf draws a 1-based zipf-ish value over n items with the given skew.
func zipfInt(rng *rand.Rand, n int, skew float64) int {
	u := rng.Float64()
	v := math.Pow(u, skew) * float64(n)
	i := int(v)
	if i >= n {
		i = n - 1
	}
	return i + 1
}

// IMDb generates the data set. Planted structure:
//   - production year is skewed toward recent decades; ~5% NULL years
//     (matching IMDb's missing data).
//   - kind_id correlates with year (newer titles skew toward kinds 1-2).
//   - per-title fanouts grow with the production year (modern movies carry
//     more companies, cast and keywords), making join sizes correlated
//     with year filters — the effect that breaks independence assumptions.
//   - info_type/company_type/role distributions depend on kind_id.
func IMDb(cfg IMDbConfig) (*schema.Schema, map[string]*table.Table) {
	if cfg.Titles <= 0 {
		cfg = DefaultIMDbConfig()
	}
	s := IMDbSchema()
	rng := rand.New(rand.NewSource(cfg.Seed))
	title := table.New(s.Table("title"))
	mc := table.New(s.Table("movie_companies"))
	ci := table.New(s.Table("cast_info"))
	mi := table.New(s.Table("movie_info"))
	mix := table.New(s.Table("movie_info_idx"))
	mk := table.New(s.Table("movie_keyword"))
	mcID, ciID, miID, mixID, mkID := 0, 0, 0, 0, 0
	for t := 0; t < cfg.Titles; t++ {
		// Year 1930..2019 skewed to recent; 5% NULL.
		yearF := 1930 + math.Floor(90*math.Pow(rng.Float64(), 0.4))
		recent := (yearF - 1930) / 90
		var yearVal table.Value
		if rng.Float64() < 0.05 {
			yearVal = table.Null()
		} else {
			yearVal = table.Float(yearF)
		}
		// Kind 1..7: recent titles concentrate in kinds 1-2.
		var kind int
		if rng.Float64() < 0.3+0.5*recent {
			kind = 1 + rng.Intn(2)
		} else {
			kind = 3 + rng.Intn(5)
		}
		title.AppendRow(table.Int(t), table.Int(kind), yearVal)

		fanScale := 0.5 + 1.5*recent // newer titles have larger fanouts
		nMC := poissonish(rng, 1.2*fanScale)
		for k := 0; k < nMC; k++ {
			ctype := 1
			if rng.Float64() < 0.3+0.2*recent {
				ctype = 2
			}
			mc.AppendRow(table.Int(mcID), table.Int(t), table.Int(ctype),
				table.Int(zipfInt(rng, 5000, 2.5)))
			mcID++
		}
		nCI := poissonish(rng, 3*fanScale)
		for k := 0; k < nCI; k++ {
			role := zipfInt(rng, 11, 1.5)
			if kind <= 2 && rng.Float64() < 0.4 {
				role = 1 + rng.Intn(2) // features skew to actor roles
			}
			ci.AppendRow(table.Int(ciID), table.Int(t), table.Int(role))
			ciID++
		}
		nMI := poissonish(rng, 2.5*fanScale)
		for k := 0; k < nMI; k++ {
			it := zipfInt(rng, 110, 2)
			if kind <= 2 {
				it = zipfInt(rng, 20, 1.5) // common info types for features
			}
			mi.AppendRow(table.Int(miID), table.Int(t), table.Int(it))
			miID++
		}
		nMIX := poissonish(rng, 1.0*fanScale)
		for k := 0; k < nMIX; k++ {
			mix.AppendRow(table.Int(mixID), table.Int(t), table.Int(99+zipfInt(rng, 14, 1.2)))
			mixID++
		}
		nMK := poissonish(rng, 2.5*fanScale)
		for k := 0; k < nMK; k++ {
			mk.AppendRow(table.Int(mkID), table.Int(t), table.Int(zipfInt(rng, 10000, 3)))
			mkID++
		}
	}
	return s, map[string]*table.Table{
		"title": title, "movie_companies": mc, "cast_info": ci,
		"movie_info": mi, "movie_info_idx": mix, "movie_keyword": mk,
	}
}

// poissonish draws a small non-negative count with the given mean using
// Knuth's method (fine for means < 10).
func poissonish(rng *rand.Rand, mean float64) int {
	if mean <= 0 {
		return 0
	}
	l := math.Exp(-mean)
	k, p := 0, 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
		if k > 50 {
			return k
		}
	}
}
