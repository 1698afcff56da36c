// Package repro's root bench suite: one testing.B benchmark per table and
// figure of the paper (regenerating the exhibit via internal/bench), plus
// micro-benchmarks for the latencies and throughputs the paper quotes in
// prose (µs-ms cardinality estimates, 55k updates/s) and ablation benches
// for three design choices: the RDC column-split threshold, the minimum
// instance slice and the RSPN selection strategy.
//
// Run with: go test -bench=. -benchmem
package repro

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/ensemble"
	"repro/internal/query"
	"repro/internal/spn"
	"repro/internal/table"
	"repro/internal/workload"
)

var (
	suiteOnce sync.Once
	suite     *bench.Suite
)

func sharedSuite() *bench.Suite {
	suiteOnce.Do(func() { suite = bench.NewSuite(bench.SmallScale()) })
	return suite
}

// runReport standardizes exhibit-regenerating benchmarks: the report is
// produced once per iteration and its first metric is reported.
func runReport(b *testing.B, run func() (*bench.Report, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		rep, err := run()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for k, v := range rep.Metrics {
				b.ReportMetric(v, k)
				break
			}
		}
	}
}

func BenchmarkFigure1(b *testing.B)  { runReport(b, sharedSuite().RunFigure1) }
func BenchmarkTable1(b *testing.B)   { runReport(b, sharedSuite().RunTable1) }
func BenchmarkFigure7(b *testing.B)  { runReport(b, sharedSuite().RunFigure7) }
func BenchmarkTable2(b *testing.B)   { runReport(b, sharedSuite().RunTable2) }
func BenchmarkFigure8(b *testing.B)  { runReport(b, sharedSuite().RunFigure8) }
func BenchmarkFigure9(b *testing.B)  { runReport(b, sharedSuite().RunFigure9) }
func BenchmarkFigure10(b *testing.B) { runReport(b, sharedSuite().RunFigure10) }
func BenchmarkFigure11(b *testing.B) { runReport(b, sharedSuite().RunFigure11) }
func BenchmarkFigure12(b *testing.B) { runReport(b, sharedSuite().RunFigure12) }
func BenchmarkFigure13(b *testing.B) { runReport(b, sharedSuite().RunFigure13) }
func BenchmarkTrainingTime(b *testing.B) {
	runReport(b, sharedSuite().RunTrainingTime)
}

// ---- micro-benchmarks ----

var (
	microOnce   sync.Once
	microEng    *core.Engine
	microEns    *ensemble.Ensemble
	microTables map[string]*table.Table
	microQs     []workload.Named
)

func microFixture(b *testing.B) (*core.Engine, *ensemble.Ensemble, map[string]*table.Table, []workload.Named) {
	b.Helper()
	microOnce.Do(func() {
		s, tabs := datagen.IMDb(datagen.IMDbConfig{Titles: 3000, Seed: 9})
		cfg := ensemble.DefaultConfig()
		cfg.MaxSamples = 20000
		ens, err := ensemble.Build(context.Background(), s, tabs, cfg)
		if err != nil {
			panic(err)
		}
		microEns = ens
		microEng = core.New(ens)
		microTables = tabs
		microQs = workload.JOBLight(tabs, 13)
	})
	return microEng, microEns, microTables, microQs
}

// BenchmarkCardinalityLatency measures one cardinality estimate — the
// paper quotes µs-to-ms latencies (Section 6.1).
func BenchmarkCardinalityLatency(b *testing.B) {
	eng, _, _, qs := microFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.EstimateCardinality(qs[i%len(qs)].Query); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAQPGroupByLatency measures a grouped AVG — the paper quotes
// <=31ms on Flights and <=293ms on SSB (Section 6.2).
func BenchmarkAQPGroupByLatency(b *testing.B) {
	eng, _, _, _ := microFixture(b)
	q := query.Query{Aggregate: query.Avg, AggColumn: "t_production_year",
		Tables: []string{"title", "cast_info"}, GroupBy: []string{"ci_role_id"}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Execute(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUpdateThroughput measures ensemble inserts per second — the
// paper reports 55k updates/s at a 1% model sample rate (Section 6.1).
func BenchmarkUpdateThroughput(b *testing.B) {
	_, ens, _, _ := microFixture(b)
	rng := rand.New(rand.NewSource(99))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := ens.Insert("cast_info", map[string]table.Value{
			"ci_id":      table.Int(10000000 + i),
			"ci_t_id":    table.Int(rng.Intn(3000)),
			"ci_role_id": table.Int(1 + rng.Intn(11)),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSPNInference measures one raw SPN probability evaluation.
func BenchmarkSPNInference(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	data := make([][]float64, 20000)
	for i := range data {
		x := rng.NormFloat64() * 10
		data[i] = []float64{x, x*2 + rng.NormFloat64(), float64(rng.Intn(5))}
	}
	model, err := spn.Learn(data, []string{"a", "b", "c"}, spn.DefaultLearnConfig())
	if err != nil {
		b.Fatal(err)
	}
	req := spn.Request{Cols: []spn.ColQuery{
		{Col: 0, Ranges: []spn.Range{{Lo: -5, Hi: 5, LoIncl: true, HiIncl: true}}},
		{Col: 2, Ranges: []spn.Range{spn.PointRange(3)}},
	}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := model.Evaluate(req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEnsembleLearning measures offline ensemble construction.
func BenchmarkEnsembleLearning(b *testing.B) {
	s, tabs := datagen.IMDb(datagen.IMDbConfig{Titles: 1500, Seed: 17})
	cfg := ensemble.DefaultConfig()
	cfg.MaxSamples = 10000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ensemble.Build(context.Background(), s, tabs, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- ablations: split threshold, instance slice, selection strategy ----

// BenchmarkAblationRDCThreshold sweeps the column-split threshold: lower
// thresholds produce deeper models (slower, usually more accurate).
func BenchmarkAblationRDCThreshold(b *testing.B) {
	s, tabs := datagen.IMDb(datagen.IMDbConfig{Titles: 1500, Seed: 19})
	for _, thr := range []float64{0.1, 0.3, 0.6} {
		b.Run(fmt.Sprintf("thr=%.1f", thr), func(b *testing.B) {
			cfg := ensemble.DefaultConfig()
			cfg.MaxSamples = 10000
			cfg.SPN.RDCThreshold = thr
			for i := 0; i < b.N; i++ {
				ens, err := ensemble.Build(context.Background(), s, tabs, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					nodes := 0
					for _, r := range ens.RSPNs {
						nodes += r.Model.Root.NumNodes()
					}
					b.ReportMetric(float64(nodes), "model_nodes")
				}
			}
		})
	}
}

// BenchmarkAblationMinSlice sweeps the minimum instance slice (row-cluster
// granularity).
func BenchmarkAblationMinSlice(b *testing.B) {
	s, tabs := datagen.IMDb(datagen.IMDbConfig{Titles: 1500, Seed: 23})
	for _, frac := range []float64{0.005, 0.01, 0.05} {
		b.Run(fmt.Sprintf("slice=%.3f", frac), func(b *testing.B) {
			cfg := ensemble.DefaultConfig()
			cfg.MaxSamples = 10000
			cfg.SPN.MinInstanceFrac = frac
			for i := 0; i < b.N; i++ {
				if _, err := ensemble.Build(context.Background(), s, tabs, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationStrategy compares the paper's RDC-greedy RSPN selection
// with the rejected median-of-candidates strategy.
func BenchmarkAblationStrategy(b *testing.B) {
	eng, _, _, qs := microFixture(b)
	for _, strat := range []struct {
		name string
		s    core.Strategy
	}{{"greedy", core.StrategyRDCGreedy}, {"median", core.StrategyMedian}} {
		b.Run(strat.name, func(b *testing.B) {
			engCopy := *eng
			engCopy.Strategy = strat.s
			for i := 0; i < b.N; i++ {
				if _, err := engCopy.EstimateCardinality(qs[i%len(qs)].Query); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
