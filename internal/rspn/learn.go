package rspn

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/schema"
	"repro/internal/spn"
)

// Source is what an RSPN learns from: a base table (*table.Table) or a
// full outer join kept as row indices (*table.JoinIndex). Learn gathers
// only the rows it samples.
type Source interface {
	NumRows() int
	SampleRows(k int, rng *rand.Rand) []int
	ColumnNames() []string
	Matrix(cols []string, rows []int) ([][]float64, error)
}

// LearnOptions controls how an RSPN is learned from a Source.
type LearnOptions struct {
	// SPN holds the structure-learning hyperparameters.
	SPN spn.LearnConfig
	// MaxSamples caps the training rows; larger inputs are sampled
	// uniformly (the paper's "samples per RSPN" knob, Figure 8 right).
	MaxSamples int
	// Seed drives sampling.
	Seed int64
	// Exact builds a memorizing model (one sum child per distinct row)
	// instead of running structure learning. Useful for small dimension
	// tables where exactness beats generalization.
	Exact bool
	// Workers caps the goroutines of one column-split test or KMeans
	// pass; 0 means one per core. It changes only wall-clock time.
	Workers int
}

// DefaultLearnOptions mirrors the paper's setup.
//
//deepdb:testonly the one learning setup that core, ml, rspn and shard tests build fixture RSPNs with
func DefaultLearnOptions() LearnOptions {
	return LearnOptions{SPN: spn.DefaultLearnConfig(), MaxSamples: 100000, Seed: 1}
}

// LearnColumns selects which columns of a source an RSPN should learn:
// every attribute except primary/foreign keys and FD-dependent columns,
// plus all tuple-factor and indicator columns. The exclusion sets are
// derived from the schema.
//
//deepdb:nocancel iterates schema metadata and column names only, never row data
func LearnColumns(s *schema.Schema, tbl Source, tables []string, fds []FD) []string {
	exclude := make(map[string]bool)
	for _, tn := range tables {
		meta := s.Table(tn)
		if meta == nil {
			continue
		}
		if meta.PrimaryKey != "" {
			exclude[meta.PrimaryKey] = true
		}
		for _, fk := range meta.ForeignKeys {
			exclude[fk.Column] = true
		}
	}
	for _, fd := range fds {
		exclude[fd.Dependent] = true
	}
	var out []string
	for _, name := range tbl.ColumnNames() {
		if exclude[name] {
			continue
		}
		out = append(out, name)
	}
	return out
}

// Learn builds an RSPN from a source. tables and edges describe what the
// source is (base table or full outer join); columns lists the attributes
// to learn (LearnColumns provides the default).
// Structure learning honors ctx: cancellation aborts with ctx.Err().
func Learn(ctx context.Context, tbl Source, tables []string, edges []schema.Relationship,
	columns []string, fds []FD, opts LearnOptions) (*RSPN, error) {
	if len(columns) == 0 {
		return nil, fmt.Errorf("rspn: no columns to learn for %s", strings.Join(tables, ","))
	}
	rows := tbl.NumRows()
	if rows == 0 {
		return nil, fmt.Errorf("rspn: empty training table for %s", strings.Join(tables, ","))
	}
	var rowIdx []int
	sampleRate := 1.0
	if opts.MaxSamples > 0 && rows > opts.MaxSamples {
		rng := rand.New(rand.NewSource(opts.Seed))
		rowIdx = tbl.SampleRows(opts.MaxSamples, rng)
		sampleRate = float64(opts.MaxSamples) / float64(rows)
	}
	data, err := tbl.Matrix(columns, rowIdx)
	if err != nil {
		return nil, err
	}
	clampFactorColumns(data, columns, len(tables) > 1)
	var model *spn.SPN
	if opts.Exact {
		model, err = spn.LearnExact(data, columns)
	} else {
		model, err = spn.LearnContext(ctx, data, columns, opts.SPN, opts.Workers)
	}
	if err != nil {
		return nil, err
	}
	r := &RSPN{
		Model:      model,
		Tables:     append([]string(nil), tables...),
		Edges:      append([]schema.Relationship(nil), edges...),
		FullSize:   float64(rows),
		SampleRate: sampleRate,
		FDs:        fds,
	}
	r.Refresh()
	return r, nil
}

// clampFactorColumns lifts tuple-factor values to at least 1 in join
// training data, implementing the paper's "the value of F' is at least 1"
// invariant for full outer joins: a row with no join partner still appears
// once, and a padded side (NULL factor) likewise counts itself once, so the
// 1/F' correction of Theorem 1 sums padded rows at full weight. Single-
// table RSPNs keep raw factors, including 0, which Theorem 2 needs.
func clampFactorColumns(data [][]float64, columns []string, isJoin bool) {
	if !isJoin {
		return
	}
	for j, name := range columns {
		if !strings.HasPrefix(name, "__fk_") {
			continue
		}
		for i := range data {
			if v := data[i][j]; v != v /* NaN */ || v < 1 {
				data[i][j] = 1
			}
		}
	}
}
