package baselines

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/query"
	"repro/internal/schema"
	"repro/internal/table"
)

// Postgres is a textbook System-R-style estimator modeled on Postgres'
// statistics: per-column most-common-value lists plus equi-depth
// histograms, attribute-value independence between predicates, and the
// |R|*|S| / max(ndv) rule for FK joins. It reproduces the baseline's
// characteristic behaviour: decent single-table estimates, error that
// compounds exponentially with join count.
type Postgres struct {
	Schema *schema.Schema
	tables map[string]*table.Table
	stats  map[string]*columnStats // keyed by column name (globally unique)
}

type columnStats struct {
	nonNullFrac float64
	ndv         float64
	mcv         map[float64]float64 // value -> frequency fraction (top-k)
	mcvTotal    float64             // total fraction covered by the MCV list
	bounds      []float64           // equi-depth histogram bounds (101 edges)
}

// NewPostgres builds statistics for all tables (the ANALYZE step).
func NewPostgres(s *schema.Schema, tables map[string]*table.Table) (*Postgres, error) {
	p := &Postgres{Schema: s, tables: tables, stats: map[string]*columnStats{}}
	for _, meta := range s.Tables {
		t := tables[meta.Name]
		if t == nil {
			return nil, fmt.Errorf("baselines: missing table %s", meta.Name)
		}
		for _, c := range t.Cols {
			p.stats[c.Meta.Name] = analyzeColumn(c)
		}
	}
	return p, nil
}

func analyzeColumn(c *table.Column) *columnStats {
	n := c.Len()
	st := &columnStats{}
	if n == 0 {
		return st
	}
	counts := make(map[float64]int)
	var vals []float64
	for i := 0; i < n; i++ {
		if c.IsNull(i) {
			continue
		}
		counts[c.Data[i]]++
		vals = append(vals, c.Data[i])
	}
	st.nonNullFrac = float64(len(vals)) / float64(n)
	st.ndv = float64(len(counts))
	// Top-100 MCVs.
	type vc struct {
		v float64
		c int
	}
	var list []vc
	for v, cnt := range counts {
		list = append(list, vc{v, cnt})
	}
	sort.Slice(list, func(i, j int) bool { return list[i].c > list[j].c })
	st.mcv = map[float64]float64{}
	for i := 0; i < len(list) && i < 100; i++ {
		f := float64(list[i].c) / float64(n)
		st.mcv[list[i].v] = f
		st.mcvTotal += f
	}
	// Equi-depth histogram over all values.
	sort.Float64s(vals)
	const buckets = 100
	st.bounds = make([]float64, buckets+1)
	for b := 0; b <= buckets; b++ {
		pos := b * (len(vals) - 1) / buckets
		st.bounds[b] = vals[pos]
	}
	return st
}

// EstimateCardinality multiplies per-table selectivities into the FK-join
// size estimate.
func (p *Postgres) EstimateCardinality(q query.Query) (float64, error) {
	if err := q.Validate(); err != nil {
		return 0, err
	}
	card, err := p.joinSize(q.Tables)
	if err != nil {
		return 0, err
	}
	for _, pred := range q.Filters {
		sel, err := p.selectivity(pred)
		if err != nil {
			return 0, err
		}
		card *= sel
	}
	if card < 1 {
		card = 1
	}
	return card, nil
}

// joinSize applies |R join S| = |R|*|S| / max(ndv(R.fk), ndv(S.pk)) over
// the query's join tree.
func (p *Postgres) joinSize(tables []string) (float64, error) {
	if len(tables) == 1 {
		t, ok := p.tables[tables[0]]
		if !ok {
			return 0, fmt.Errorf("baselines: unknown table %s", tables[0])
		}
		return float64(t.NumRows()), nil
	}
	edges, err := p.Schema.JoinTree(tables)
	if err != nil {
		return 0, err
	}
	card := 1.0
	for _, tn := range tables {
		card *= float64(p.tables[tn].NumRows())
	}
	for _, e := range edges {
		fkStats := p.stats[e.ManyColumn]
		pkStats := p.stats[e.OneColumn]
		ndv := math.Max(fkStats.ndv, pkStats.ndv)
		if ndv < 1 {
			ndv = 1
		}
		card /= ndv
	}
	return card, nil
}

// selectivity estimates one predicate with MCVs + histogram.
func (p *Postgres) selectivity(pred query.Predicate) (float64, error) {
	st := p.lookup(pred.Column)
	if st == nil {
		return 0, fmt.Errorf("baselines: no statistics for column %s", pred.Column)
	}
	switch pred.Op {
	case query.Eq:
		return st.eqSelectivity(pred.Value), nil
	case query.Ne:
		return clamp01(st.nonNullFrac - st.eqSelectivity(pred.Value)), nil
	case query.In:
		s := 0.0
		for _, v := range pred.Values {
			s += st.eqSelectivity(v)
		}
		return clamp01(s), nil
	case query.Lt, query.Le:
		return clamp01(st.rangeFraction(math.Inf(-1), pred.Value)), nil
	case query.Gt, query.Ge:
		return clamp01(st.rangeFraction(pred.Value, math.Inf(1))), nil
	default:
		return 0.33, nil // Postgres-style default
	}
}

func (p *Postgres) lookup(col string) *columnStats {
	return p.stats[col]
}

func (st *columnStats) eqSelectivity(v float64) float64 {
	if f, ok := st.mcv[v]; ok {
		return f
	}
	// Uniform share of the non-MCV remainder.
	rest := st.nonNullFrac - st.mcvTotal
	nOther := st.ndv - float64(len(st.mcv))
	if rest <= 0 || nOther <= 0 {
		return 0.0005 // tiny default for unseen values
	}
	return rest / nOther
}

// rangeFraction estimates P(lo <= X <= hi) from the equi-depth histogram.
func (st *columnStats) rangeFraction(lo, hi float64) float64 {
	if len(st.bounds) < 2 {
		return 0.33 * st.nonNullFrac
	}
	buckets := len(st.bounds) - 1
	covered := 0.0
	for b := 0; b < buckets; b++ {
		bLo, bHi := st.bounds[b], st.bounds[b+1]
		oLo, oHi := math.Max(bLo, lo), math.Min(bHi, hi)
		if oHi < oLo {
			continue
		}
		if bHi == bLo {
			covered += 1
			continue
		}
		covered += (oHi - oLo) / (bHi - bLo)
	}
	return covered / float64(buckets) * st.nonNullFrac
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
