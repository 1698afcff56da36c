// Package bench regenerates every table and figure of the paper's
// evaluation (Section 6) on the synthetic equivalents of the paper's data
// sets. Each runner returns a Report whose rows mirror the corresponding
// paper exhibit, alongside the paper's published numbers where applicable,
// so `go run ./cmd/experiments` prints paper-vs-measured side by side.
//
// Absolute numbers are not expected to match (different data scale and
// hardware); the shapes — who wins, by roughly what factor, where error
// grows — are the reproduction target.
package bench

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/ensemble"
	"repro/internal/exact"
	"repro/internal/query"
	"repro/internal/schema"
	"repro/internal/table"
	"repro/internal/workload"
)

// Report is one regenerated exhibit.
type Report struct {
	ID    string // "table1", "fig7", ...
	Title string
	Rows  []string
	// Metrics holds machine-readable headline numbers for the exhibit
	// tests.
	Metrics map[string]float64
}

func (r *Report) addRow(format string, args ...interface{}) {
	r.Rows = append(r.Rows, fmt.Sprintf(format, args...))
}

func (r *Report) metric(key string, v float64) {
	if r.Metrics == nil {
		r.Metrics = map[string]float64{}
	}
	r.Metrics[key] = v
}

// String renders the report for terminal output.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	for _, row := range r.Rows {
		b.WriteString(row)
		b.WriteByte('\n')
	}
	return b.String()
}

// Scale controls experiment sizes; Small keeps every runner in seconds for
// tests, Full is the default for the experiments binary.
type Scale struct {
	IMDbTitles   int
	FlightsRows  int
	SSBFactor    float64
	MaxSamples   int
	TrainQueries int
	GridPerCell  int
	SynthQueries int
}

// SmallScale is used by unit tests and -short benchmarks.
func SmallScale() Scale {
	return Scale{IMDbTitles: 2000, FlightsRows: 20000, SSBFactor: 0.005,
		MaxSamples: 15000, TrainQueries: 300, GridPerCell: 4, SynthQueries: 40}
}

// FullScale is used by cmd/experiments.
func FullScale() Scale {
	return Scale{IMDbTitles: 8000, FlightsRows: 80000, SSBFactor: 0.02,
		MaxSamples: 40000, TrainQueries: 800, GridPerCell: 12, SynthQueries: 200}
}

// fixtures lazily shares the expensive artifacts across runners.
type fixtures struct {
	scale Scale

	imdbOnce sync.Once
	imdbS    *schema.Schema
	imdbT    map[string]*table.Table
	imdbO    *exact.Engine
	imdbEns  *ensemble.Ensemble
	imdbEng  *core.Engine
	imdbErr  error

	flightsOnce sync.Once
	flightsS    *schema.Schema
	flightsT    map[string]*table.Table
	flightsO    *exact.Engine
	flightsEns  *ensemble.Ensemble
	flightsEng  *core.Engine
	flightsErr  error

	ssbOnce sync.Once
	ssbS    *schema.Schema
	ssbT    map[string]*table.Table
	ssbO    *exact.Engine
	ssbEns  *ensemble.Ensemble
	ssbEng  *core.Engine
	ssbErr  error
}

// Suite runs experiments over shared fixtures.
type Suite struct {
	f *fixtures
}

// NewSuite creates a suite at the given scale.
func NewSuite(scale Scale) *Suite {
	return &Suite{f: &fixtures{scale: scale}}
}

func ensembleConfig(maxSamples int, budget float64) ensemble.Config {
	cfg := ensemble.DefaultConfig()
	cfg.MaxSamples = maxSamples
	cfg.BudgetFactor = budget
	return cfg
}

func (f *fixtures) imdb() (*schema.Schema, map[string]*table.Table, *exact.Engine, *core.Engine, error) {
	f.imdbOnce.Do(func() {
		f.imdbS, f.imdbT = datagen.IMDb(datagen.IMDbConfig{Titles: f.scale.IMDbTitles, Seed: 1})
		f.imdbO = exact.New(f.imdbS, f.imdbT)
		ens, err := ensemble.Build(context.Background(), f.imdbS, f.imdbT, ensembleConfig(f.scale.MaxSamples, 0.5))
		if err != nil {
			f.imdbErr = err
			return
		}
		f.imdbEns = ens
		f.imdbEng = core.New(ens)
	})
	return f.imdbS, f.imdbT, f.imdbO, f.imdbEng, f.imdbErr
}

func (f *fixtures) flights() (*schema.Schema, map[string]*table.Table, *exact.Engine, *core.Engine, error) {
	f.flightsOnce.Do(func() {
		f.flightsS, f.flightsT = datagen.Flights(datagen.FlightsConfig{Rows: f.scale.FlightsRows, Seed: 2})
		f.flightsO = exact.New(f.flightsS, f.flightsT)
		ens, err := ensemble.Build(context.Background(), f.flightsS, f.flightsT, ensembleConfig(f.scale.MaxSamples, 0.5))
		if err != nil {
			f.flightsErr = err
			return
		}
		f.flightsEns = ens
		f.flightsEng = core.New(ens)
	})
	return f.flightsS, f.flightsT, f.flightsO, f.flightsEng, f.flightsErr
}

func (f *fixtures) ssb() (*schema.Schema, map[string]*table.Table, *exact.Engine, *core.Engine, error) {
	f.ssbOnce.Do(func() {
		f.ssbS, f.ssbT = datagen.SSB(datagen.SSBConfig{ScaleFactor: f.scale.SSBFactor, Seed: 3})
		f.ssbO = exact.New(f.ssbS, f.ssbT)
		ens, err := ensemble.Build(context.Background(), f.ssbS, f.ssbT, ensembleConfig(f.scale.MaxSamples, 0.5))
		if err != nil {
			f.ssbErr = err
			return
		}
		f.ssbEns = ens
		f.ssbEng = core.New(ens)
	})
	return f.ssbS, f.ssbT, f.ssbO, f.ssbEng, f.ssbErr
}

// ---- shared helpers ----

// qErrorStats evaluates a named workload against both systems and returns
// per-query q-errors.
func qErrors(oracle *exact.Engine, estimate func(query.Query) (float64, error), queries []workload.Named) ([]float64, error) {
	var out []float64
	for _, n := range queries {
		truth, err := oracle.Cardinality(n.Query)
		if err != nil {
			return nil, fmt.Errorf("%s: truth: %w", n.Label, err)
		}
		est, err := estimate(n.Query)
		if err != nil {
			return nil, fmt.Errorf("%s: estimate: %w", n.Label, err)
		}
		out = append(out, query.QError(est, truth))
	}
	return out, nil
}

func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	idx := int(p * float64(len(cp)-1))
	return cp[idx]
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

func medianOf(xs []float64) float64 { return percentile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
