package baselines

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/exact"
	"repro/internal/query"
	"repro/internal/schema"
	"repro/internal/table"
)

// RandomSampling is the naive cardinality baseline: every table is
// Bernoulli-sampled at the same rate, the query runs exactly on the
// samples, and the count scales by rate^-k for a k-table join. Join results
// thin out quadratically (and worse) in the number of joins, giving the
// huge tail errors Table 1 reports for this baseline.
type RandomSampling struct {
	engine *exact.Engine
	rate   float64
}

// NewRandomSampling draws the per-table samples once (like maintaining a
// sample catalog).
func NewRandomSampling(s *schema.Schema, tables map[string]*table.Table, rate float64, seed int64) (*RandomSampling, error) {
	if rate <= 0 || rate > 1 {
		rate = 0.01
	}
	rng := rand.New(rand.NewSource(seed))
	sampled := make(map[string]*table.Table, len(tables))
	for name, t := range tables {
		var keep []int
		for i := 0; i < t.NumRows(); i++ {
			if rng.Float64() < rate {
				keep = append(keep, i)
			}
		}
		sampled[name] = t.Select(keep)
	}
	return &RandomSampling{engine: exact.New(s, sampled), rate: rate}, nil
}

// EstimateCardinality runs the query on the samples and scales up.
func (r *RandomSampling) EstimateCardinality(q query.Query) (float64, error) {
	card, err := r.engine.Cardinality(q)
	if err != nil {
		return 0, err
	}
	scale := 1.0
	for range q.Tables {
		scale /= r.rate
	}
	return card * scale, nil
}

// TableSample is the Postgres TABLESAMPLE AQP baseline: the fact table (the
// largest table of the query) is sampled at a fixed rate, dimension tables
// are used in full, and counts/sums scale by the inverse rate. Groups with
// no sampled rows produce no result — the failure mode Figure 10 shows.
type TableSample struct {
	schema *schema.Schema
	full   map[string]*table.Table
	rate   float64
	seed   int64
	// engines caches one exact engine per fact-table choice.
	engines map[string]*exact.Engine
}

// NewTableSample prepares the sampler.
func NewTableSample(s *schema.Schema, tables map[string]*table.Table, rate float64, seed int64) *TableSample {
	if rate <= 0 || rate > 1 {
		rate = 0.01
	}
	return &TableSample{schema: s, full: tables, rate: rate, seed: seed,
		engines: map[string]*exact.Engine{}}
}

// Name identifies the baseline.
func (ts *TableSample) Name() string { return "TableSample" }

// factTable picks the largest participating table to sample.
func (ts *TableSample) factTable(tables []string) string {
	best, bestRows := tables[0], -1
	for _, tn := range tables {
		if t := ts.full[tn]; t != nil && t.NumRows() > bestRows {
			best, bestRows = tn, t.NumRows()
		}
	}
	return best
}

func (ts *TableSample) engineFor(fact string) *exact.Engine {
	if e, ok := ts.engines[fact]; ok {
		return e
	}
	rng := rand.New(rand.NewSource(ts.seed))
	mixed := make(map[string]*table.Table, len(ts.full))
	for name, t := range ts.full {
		if name != fact {
			mixed[name] = t
			continue
		}
		var keep []int
		for i := 0; i < t.NumRows(); i++ {
			if rng.Float64() < ts.rate {
				keep = append(keep, i)
			}
		}
		mixed[name] = t.Select(keep)
	}
	e := exact.New(ts.schema, mixed)
	ts.engines[fact] = e
	return e
}

// Execute answers the aggregate query from the sample. COUNT and SUM scale
// by 1/rate; AVG is scale-free. Empty samples yield an empty result
// ("no result" in the figures).
func (ts *TableSample) Execute(q query.Query) (query.Result, error) {
	if err := q.Validate(); err != nil {
		return query.Result{}, err
	}
	fact := ts.factTable(q.Tables)
	res, err := ts.engineFor(fact).Execute(q)
	if err != nil {
		return query.Result{}, err
	}
	// Count qualifying sample rows to detect "no result".
	cnt, err := ts.engineFor(fact).Cardinality(q)
	if err != nil {
		return query.Result{}, err
	}
	if cnt == 0 {
		return query.Result{}, nil
	}
	if q.Aggregate == query.Count || q.Aggregate == query.Sum {
		for i := range res.Groups {
			res.Groups[i].Value /= ts.rate
		}
	}
	return res, nil
}

// SampleBasedCI computes ground-truth confidence intervals from an actual
// uniform sample, the comparison method of Figure 11: binomial for COUNT,
// CLT for AVG, and the product estimator for SUM.
type SampleBasedCI struct {
	engine *exact.Engine
	rate   float64
	n      int
}

// NewSampleBasedCI draws a uniform sample of every table at the rate that
// yields about targetRows from the largest table.
func NewSampleBasedCI(s *schema.Schema, tables map[string]*table.Table, targetRows int, seed int64) *SampleBasedCI {
	largest := 0
	for _, t := range tables {
		if t.NumRows() > largest {
			largest = t.NumRows()
		}
	}
	rate := 1.0
	if targetRows > 0 && largest > targetRows {
		rate = float64(targetRows) / float64(largest)
	}
	rng := rand.New(rand.NewSource(seed))
	sampled := make(map[string]*table.Table, len(tables))
	n := 0
	for name, t := range tables {
		var keep []int
		for i := 0; i < t.NumRows(); i++ {
			if rng.Float64() < rate {
				keep = append(keep, i)
			}
		}
		sampled[name] = t.Select(keep)
		if len(keep) > n {
			n = len(keep)
		}
	}
	return &SampleBasedCI{engine: exact.New(s, sampled), rate: rate, n: n}
}

// RelativeCILength returns (a_pred - a_lower)/a_pred at 95% confidence for
// the query's aggregate, and whether enough sample rows qualified (the
// figure excludes groups with fewer than 10 qualifying samples).
func (sb *SampleBasedCI) RelativeCILength(q query.Query) (float64, bool, error) {
	const z = 1.959963984540054
	cq := q
	cq.GroupBy = nil
	cnt, err := sb.engine.Cardinality(cq)
	if err != nil {
		return 0, false, err
	}
	if cnt < 10 {
		return 0, false, nil
	}
	switch q.Aggregate {
	case query.Count:
		// Binomial proportion over the sampled join.
		js, err := sb.engine.JoinSize(q.Tables)
		if err != nil {
			return 0, false, err
		}
		if js == 0 {
			return 0, false, nil
		}
		p := cnt / js
		sd := jsStd(p, js)
		return z * sd / p, true, nil
	case query.Avg:
		mean, sd, n, err := sb.meanStd(cq)
		if err != nil || n < 2 || mean == 0 {
			return 0, false, err
		}
		return z * sd / (mean * sqrtF(n)), true, nil
	case query.Sum:
		// Product of count and mean estimators.
		js, err := sb.engine.JoinSize(q.Tables)
		if err != nil || js == 0 {
			return 0, false, err
		}
		p := cnt / js
		mean, sd, n, err := sb.meanStd(cq)
		if err != nil || n < 2 {
			return 0, false, err
		}
		relP := jsStd(p, js) / p
		relM := sd / (mean * sqrtF(n))
		rel := z * sqrtF(relP*relP+relM*relM)
		if rel < 0 {
			rel = -rel
		}
		return rel, true, nil
	default:
		return 0, false, fmt.Errorf("baselines: unsupported aggregate %v", q.Aggregate)
	}
}

func (sb *SampleBasedCI) meanStd(q query.Query) (mean, sd, n float64, err error) {
	aq := q
	aq.Aggregate = query.Avg
	res, err := sb.engine.Execute(aq)
	if err != nil {
		return 0, 0, 0, err
	}
	mean = res.Scalar()
	cnt, err := sb.engine.Cardinality(q)
	if err != nil {
		return 0, 0, 0, err
	}
	n = cnt
	sd, err = sb.scanStd(q)
	return mean, sd, n, err
}

// scanStd computes the sample standard deviation of the aggregate column
// over the qualifying sampled rows with a direct Welford scan.
func (sb *SampleBasedCI) scanStd(q query.Query) (float64, error) {
	j, rows, err := sb.qualifyingRows(q)
	if err != nil {
		return 0, err
	}
	col := j.Column(q.AggColumn)
	if col == nil {
		return 0, fmt.Errorf("baselines: no column %s", q.AggColumn)
	}
	var n int
	var mean, m2 float64
	for _, r := range rows {
		if col.IsNull(r) {
			continue
		}
		n++
		d := col.Data[r] - mean
		mean += d / float64(n)
		m2 += d * (col.Data[r] - mean)
	}
	if n < 2 {
		return 0, nil
	}
	return sqrtF(m2 / float64(n-1)), nil
}

func (sb *SampleBasedCI) qualifyingRows(q query.Query) (*table.Table, []int, error) {
	j, err := sb.engine.Materialize(q.Tables)
	if err != nil {
		return nil, nil, err
	}
	rows, err := exact.FilterRows(j, q.Filters)
	if err != nil {
		return nil, nil, err
	}
	return j, rows, nil
}

func jsStd(p, n float64) float64 {
	v := p * (1 - p) / n
	if v < 0 {
		v = 0
	}
	return sqrtF(v)
}

func sqrtF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Sqrt(x)
}
