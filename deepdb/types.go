package deepdb

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/query"
	"repro/internal/schema"
	"repro/internal/table"
)

// The facade re-exports the vocabulary types consumers need to declare a
// schema and feed data, so importing the deepdb package alone is enough to
// define, learn, query and update a database.
type (
	// Schema is the relational metadata of a database: tables, typed
	// columns, keys and functional dependencies.
	Schema = schema.Schema
	// TableDef is the metadata of one relation.
	TableDef = schema.Table
	// ColumnDef describes one attribute of a table.
	ColumnDef = schema.Column
	// ForeignKey declares a many-to-one FK edge.
	ForeignKey = schema.ForeignKey
	// FunctionalDependency declares Determinant -> Dependent.
	FunctionalDependency = schema.FunctionalDependency
	// Kind is the logical type of a column.
	Kind = schema.Kind
	// Table is one in-memory base table (columnar, dictionary-encoded).
	Table = table.Table
	// Value is one cell value.
	Value = table.Value
	// Dataset maps table name to its base table.
	Dataset = map[string]*table.Table
)

// Column kinds, re-exported from the schema package.
const (
	IntKind         = schema.IntKind
	FloatKind       = schema.FloatKind
	CategoricalKind = schema.CategoricalKind
)

// Int wraps an integer cell value.
func Int(i int) Value { return table.Int(i) }

// Float wraps a float cell value.
func Float(f float64) Value { return table.Float(f) }

// Null is the NULL cell value.
func Null() Value { return table.Null() }

// NewTable allocates an empty base table for the given definition.
func NewTable(def *TableDef) *Table { return table.New(def) }

// LoadSchema reads and validates a schema JSON file (the shape of Schema).
func LoadSchema(path string) (*Schema, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Schema
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("deepdb: parsing %s: %w", path, err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// LoadCSVDir reads <table>.csv for every schema table from dir.
func LoadCSVDir(s *Schema, dir string) (Dataset, error) {
	out := make(Dataset, len(s.Tables))
	for _, meta := range s.Tables {
		path := filepath.Join(dir, meta.Name+".csv")
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		t, err := table.LoadCSV(meta, f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("deepdb: loading %s: %w", path, err)
		}
		out[meta.Name] = t
	}
	return out, nil
}

// Estimate is one approximate scalar with its variance and the two-sided
// confidence interval at the DB's confidence level. The JSON tags are the
// member names of `deepdb serve`'s /estimate and /query responses, which
// encode these types directly.
type Estimate struct {
	Value    float64 `json:"value"`
	Variance float64 `json:"variance"`
	CILow    float64 `json:"ci_low"`
	CIHigh   float64 `json:"ci_high"`
}

// Group is one result row of a (possibly grouped) query: the encoded group
// key, its decoded labels (dictionary strings where the column is
// categorical, numeric renderings otherwise), and the estimate.
type Group struct {
	Key    []float64 `json:"key,omitempty"`
	Labels []string  `json:"labels,omitempty"`
	Estimate
}

// Result is the outcome of a query: one Group per group-by combination the
// model considers non-empty (exactly one, with an empty Key, when the query
// has no GROUP BY).
type Result struct {
	Groups []Group
}

// Scalar returns the single value of an ungrouped result (0 when empty).
func (r Result) Scalar() float64 {
	if len(r.Groups) == 0 {
		return 0
	}
	return r.Groups[0].Value
}

// plain converts to the internal query.Result shape, the common currency of
// the exact executor and the error metrics.
func (r Result) plain() query.Result {
	var out query.Result
	for _, g := range r.Groups {
		out.Groups = append(out.Groups, query.Group{Key: g.Key, Value: g.Value})
	}
	return out
}

// QError is the paper's q-error metric: max(est/true, true/est) with both
// clamped to at least one tuple.
func QError(estimate, truth float64) float64 { return query.QError(estimate, truth) }

// AvgRelativeError matches estimated groups to true groups by key and
// averages the per-group relative errors (the paper's AQP metric).
func AvgRelativeError(estimate, truth Result) float64 {
	return query.AvgRelativeError(estimate.plain(), truth.plain())
}
