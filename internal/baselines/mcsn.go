package baselines

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/ml"
	"repro/internal/query"
	"repro/internal/schema"
	"repro/internal/table"
)

// MCSN is the workload-driven deep-learning cardinality estimator of Kipf
// et al. (CIDR 2019), rebuilt as an MLP over a fixed featurization of the
// query (table one-hots plus per-column predicate ranges) trained on
// executed queries with a log-transformed cardinality target. Like the
// original, it is only as good as its training workload: the paper trains
// it on queries with at most 3 tables, so larger joins are out of
// distribution — exactly the failure mode Figures 1 and 7 show.
type MCSN struct {
	schema  *schema.Schema
	tables  []string  // table order for one-hot
	columns []string  // filterable columns for range features
	colLo   []float64 // per-column domain bounds for normalization
	colHi   []float64
	net     *ml.MLP
	maxCard float64
	// TrainingDataTime is the measured cost of executing the training
	// workload to label it (the dominant cost the paper reports as hours).
	TrainingDataTime time.Duration
	// TrainTime is the network-fitting time.
	TrainTime time.Duration
}

// MCSNConfig controls training.
type MCSNConfig struct {
	// MaxTrainTables caps the join size of training queries (3 in the
	// paper's setup).
	MaxTrainTables int
	Epochs         int
	Seed           int64
}

// DefaultMCSNConfig mirrors the paper's description.
func DefaultMCSNConfig() MCSNConfig { return MCSNConfig{MaxTrainTables: 3, Epochs: 40, Seed: 1} }

// Oracle labels training queries with true cardinalities (in the original
// system this is "run 100k queries on Postgres for 34 hours").
type Oracle func(q query.Query) (float64, error)

// NewMCSN trains the model on the given workload, labelling each query via
// the oracle. Queries joining more than cfg.MaxTrainTables tables are
// excluded from training, like in the paper.
func NewMCSN(s *schema.Schema, tables map[string]*table.Table, train []query.Query,
	oracle Oracle, cfg MCSNConfig) (*MCSN, error) {
	if cfg.MaxTrainTables <= 0 {
		cfg = DefaultMCSNConfig()
	}
	m := &MCSN{schema: s}
	for _, meta := range s.Tables {
		m.tables = append(m.tables, meta.Name)
	}
	sort.Strings(m.tables)
	// Filterable columns: every non-key attribute of every table.
	seen := map[string]bool{}
	for _, meta := range s.Tables {
		t := tables[meta.Name]
		skip := map[string]bool{meta.PrimaryKey: true}
		for _, fk := range meta.ForeignKeys {
			skip[fk.Column] = true
		}
		for _, c := range t.Cols {
			name := c.Meta.Name
			if skip[name] || seen[name] || len(name) > 2 && name[:2] == "__" {
				continue
			}
			seen[name] = true
			m.columns = append(m.columns, name)
			lo, hi := columnBounds(c)
			m.colLo = append(m.colLo, lo)
			m.colHi = append(m.colHi, hi)
		}
	}
	// Label the training workload.
	var feats [][]float64
	var targets []float64
	labelStart := time.Now()
	for _, q := range train {
		if len(q.Tables) > cfg.MaxTrainTables {
			continue
		}
		card, err := oracle(q)
		if err != nil {
			return nil, fmt.Errorf("baselines: labelling MCSN training query: %w", err)
		}
		if card < 1 {
			card = 1
		}
		feats = append(feats, m.featurize(q))
		targets = append(targets, math.Log(card))
		if card > m.maxCard {
			m.maxCard = card
		}
	}
	m.TrainingDataTime = time.Since(labelStart)
	if len(feats) < 10 {
		return nil, fmt.Errorf("baselines: only %d usable MCSN training queries", len(feats))
	}
	mlpCfg := ml.DefaultMLPConfig()
	mlpCfg.Epochs = cfg.Epochs
	mlpCfg.Seed = cfg.Seed
	fitStart := time.Now()
	net, err := ml.FitMLP(feats, targets, mlpCfg)
	if err != nil {
		return nil, err
	}
	m.TrainTime = time.Since(fitStart)
	m.net = net
	return m, nil
}

func columnBounds(c *table.Column) (float64, float64) {
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := 0; i < c.Len(); i++ {
		if c.IsNull(i) {
			continue
		}
		v := c.Data[i]
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if math.IsInf(lo, 1) {
		lo, hi = 0, 1
	}
	if hi == lo {
		hi = lo + 1
	}
	return lo, hi
}

// featurize encodes a query: [table one-hots | per-column (present, lo,
// hi)] with range bounds normalized to the column domain.
func (m *MCSN) featurize(q query.Query) []float64 {
	out := make([]float64, 0, len(m.tables)+3*len(m.columns))
	inQuery := map[string]bool{}
	for _, t := range q.Tables {
		inQuery[t] = true
	}
	for _, t := range m.tables {
		if inQuery[t] {
			out = append(out, 1)
		} else {
			out = append(out, 0)
		}
	}
	for i, col := range m.columns {
		lo, hi := math.Inf(-1), math.Inf(1)
		present := 0.0
		for _, p := range q.Filters {
			if p.Column != col {
				continue
			}
			present = 1
			switch p.Op {
			case query.Eq:
				lo, hi = math.Max(lo, p.Value), math.Min(hi, p.Value)
			case query.Lt, query.Le:
				hi = math.Min(hi, p.Value)
			case query.Gt, query.Ge:
				lo = math.Max(lo, p.Value)
			case query.In:
				mn, mx := math.Inf(1), math.Inf(-1)
				for _, v := range p.Values {
					mn, mx = math.Min(mn, v), math.Max(mx, v)
				}
				lo, hi = math.Max(lo, mn), math.Min(hi, mx)
			case query.Ne:
				// Range featurization cannot express exclusion; mark
				// presence only (a limitation shared with the original).
			}
		}
		nl := normTo01(lo, m.colLo[i], m.colHi[i])
		nh := normTo01(hi, m.colLo[i], m.colHi[i])
		out = append(out, present, nl, nh)
	}
	return out
}

func normTo01(v, lo, hi float64) float64 {
	if math.IsInf(v, -1) {
		return 0
	}
	if math.IsInf(v, 1) {
		return 1
	}
	n := (v - lo) / (hi - lo)
	if n < 0 {
		return 0
	}
	if n > 1 {
		return 1
	}
	return n
}

// EstimateCardinality predicts exp(net(features)), clamped to at least 1.
func (m *MCSN) EstimateCardinality(q query.Query) (float64, error) {
	if m.net == nil {
		return 0, fmt.Errorf("baselines: MCSN not trained")
	}
	logCard := m.net.Predict(m.featurize(q))
	card := math.Exp(logCard)
	if card < 1 {
		card = 1
	}
	// The network extrapolates poorly beyond its training range; clamp to
	// a generous multiple of the largest cardinality it ever saw, as the
	// original's output scaling does.
	if m.maxCard > 0 && card > 100*m.maxCard {
		card = 100 * m.maxCard
	}
	return card, nil
}
