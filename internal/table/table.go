// Package table implements DeepDB's in-memory columnar storage engine:
// typed columns with NULL support and dictionary-encoded categoricals,
// hash-based inner and full outer joins along foreign keys, tuple-factor
// computation, and sampling. The exact aggregate executor built on top of it
// (package exact) is the ground-truth oracle for every experiment.
//
// Column names must be globally unique across a schema (the paper's data
// sets all use per-table prefixes such as c_region / o_channel), which lets
// joined tables simply concatenate columns without qualification.
package table

import (
	"fmt"
	"math"

	"repro/internal/schema"
)

// Value is one cell: a float64 payload (categorical columns store the
// dictionary code) plus a NULL flag.
type Value struct {
	F    float64
	Null bool
}

// Null returns the NULL value.
func Null() Value { return Value{Null: true} }

// Float wraps a float64 as a Value.
func Float(f float64) Value { return Value{F: f} }

// Int wraps an int as a Value.
func Int(i int) Value { return Value{F: float64(i)} }

// Column is a typed column vector. Categorical columns own a dictionary
// mapping codes to strings; numeric columns use Data directly.
type Column struct {
	Meta schema.Column
	Data []float64
	Nul  []bool

	dict    []string
	dictIdx map[string]int
}

// NewColumn returns an empty column with the given metadata.
func NewColumn(meta schema.Column) *Column {
	c := &Column{Meta: meta}
	if meta.Kind == schema.CategoricalKind {
		c.dictIdx = make(map[string]int)
	}
	return c
}

// Len returns the number of rows.
func (c *Column) Len() int { return len(c.Data) }

// Append adds a value to the column.
func (c *Column) Append(v Value) {
	c.Data = append(c.Data, v.F)
	c.Nul = append(c.Nul, v.Null)
}

// Encode returns the dictionary code for s, adding it when unseen.
func (c *Column) Encode(s string) int {
	if code, ok := c.dictIdx[s]; ok {
		return code
	}
	code := len(c.dict)
	c.dict = append(c.dict, s)
	c.dictIdx[s] = code
	return code
}

// Lookup returns the code for s without inserting, or -1 when absent.
func (c *Column) Lookup(s string) int {
	if c.dictIdx == nil {
		return -1
	}
	if code, ok := c.dictIdx[s]; ok {
		return code
	}
	return -1
}

// Decode returns the string for a dictionary code.
func (c *Column) Decode(code int) string {
	if code < 0 || code >= len(c.dict) {
		return ""
	}
	return c.dict[code]
}

// DictSize returns the number of distinct categorical values seen.
func (c *Column) DictSize() int { return len(c.dict) }

// Dict returns the dictionary strings indexed by code. The slice is the
// column's live dictionary, not a copy — callers must treat it as
// read-only (model persistence copies it before serializing).
func (c *Column) Dict() []string { return c.dict }

// Get returns the i-th value.
func (c *Column) Get(i int) Value { return Value{F: c.Data[i], Null: c.Nul[i]} }

// IsNull reports whether row i is NULL.
func (c *Column) IsNull(i int) bool { return c.Nul[i] }

// shareDict makes dst use the same dictionary as src. Joined and sampled
// tables share dictionaries with their sources so codes stay comparable.
func (dst *Column) shareDict(src *Column) {
	dst.dict = src.dict
	dst.dictIdx = src.dictIdx
}

// Table is a collection of equal-length columns plus its metadata.
type Table struct {
	Meta *schema.Table
	Cols []*Column
	rows int
}

// New creates an empty table for the given metadata.
func New(meta *schema.Table) *Table {
	t := &Table{Meta: meta}
	for _, cm := range meta.Columns {
		t.Cols = append(t.Cols, NewColumn(cm))
	}
	return t
}

// NumRows returns the row count.
func (t *Table) NumRows() int { return t.rows }

// Column returns the named column, or nil.
func (t *Table) Column(name string) *Column {
	for _, c := range t.Cols {
		if c.Meta.Name == name {
			return c
		}
	}
	return nil
}

// ColumnNames returns all column names in order.
func (t *Table) ColumnNames() []string {
	out := make([]string, len(t.Cols))
	for i, c := range t.Cols {
		out[i] = c.Meta.Name
	}
	return out
}

// AppendRow appends one row; vals must match the column count.
func (t *Table) AppendRow(vals ...Value) {
	if len(vals) != len(t.Cols) {
		panic(fmt.Sprintf("table: AppendRow got %d values for %d columns of %s",
			len(vals), len(t.Cols), t.Meta.Name))
	}
	for i, v := range vals {
		t.Cols[i].Append(v)
	}
	t.rows++
}

// AddColumn appends a fully-populated column; its length must equal the
// table's row count (or the table must be empty).
func (t *Table) AddColumn(c *Column) error {
	if t.rows != 0 && c.Len() != t.rows {
		return fmt.Errorf("table: column %s has %d rows, table %s has %d",
			c.Meta.Name, c.Len(), t.Meta.Name, t.rows)
	}
	if t.Column(c.Meta.Name) != nil {
		return fmt.Errorf("table: duplicate column %s in %s", c.Meta.Name, t.Meta.Name)
	}
	t.Cols = append(t.Cols, c)
	t.Meta.Columns = append(t.Meta.Columns, c.Meta)
	if t.rows == 0 {
		t.rows = c.Len()
	}
	return nil
}

// CloneData returns a copy of the table whose cell data (Data/Nul vectors)
// is private: appends and in-place cell writes on the clone leave the
// receiver untouched, which is what copy-on-write snapshot publication
// needs. Metadata and dictionaries are shared — the update path never
// extends a dictionary (rows arrive already encoded as Values) and never
// adds columns after construction, so sharing them is safe and keeps codes
// comparable across snapshots.
func (t *Table) CloneData() *Table {
	out := &Table{Meta: t.Meta, rows: t.rows, Cols: make([]*Column, len(t.Cols))}
	for i, c := range t.Cols {
		cc := &Column{Meta: c.Meta}
		cc.shareDict(c)
		cc.Data = append(make([]float64, 0, len(c.Data)+1), c.Data...)
		cc.Nul = append(make([]bool, 0, len(c.Nul)+1), c.Nul...)
		out.Cols[i] = cc
	}
	return out
}

// Select returns a new table containing the given rows (by index) of t.
// Dictionaries are shared with the source.
func (t *Table) Select(rows []int) *Table {
	meta := &schema.Table{Name: t.Meta.Name, Columns: append([]schema.Column(nil), t.Meta.Columns...),
		PrimaryKey: t.Meta.PrimaryKey, ForeignKeys: t.Meta.ForeignKeys, FDs: t.Meta.FDs}
	out := New(meta)
	for i, c := range out.Cols {
		src := t.Cols[i]
		c.shareDict(src)
		c.Data = make([]float64, len(rows))
		c.Nul = make([]bool, len(rows))
		for j, r := range rows {
			c.Data[j] = src.Data[r]
			c.Nul[j] = src.Nul[r]
		}
	}
	out.rows = len(rows)
	return out
}

// Matrix materializes the named columns as a row-major [][]float64 with NULL
// encoded as NaN. rows == nil means all rows. SPN learning consumes this.
func (t *Table) Matrix(cols []string, rows []int) ([][]float64, error) {
	srcs := make([]*Column, len(cols))
	for i, name := range cols {
		c := t.Column(name)
		if c == nil {
			return nil, fmt.Errorf("table: unknown column %s in %s", name, t.Meta.Name)
		}
		srcs[i] = c
	}
	n := t.rows
	if rows != nil {
		n = len(rows)
	}
	out := make([][]float64, n)
	for i := 0; i < n; i++ {
		r := i
		if rows != nil {
			r = rows[i]
		}
		row := make([]float64, len(srcs))
		for j, c := range srcs {
			if c.Nul[r] {
				row[j] = math.NaN()
			} else {
				row[j] = c.Data[r]
			}
		}
		out[i] = row
	}
	return out, nil
}
