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
	"slices"
	"sync/atomic"

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
	// shared reports that another table's column may reference Data's
	// backing array (CloneData sets it on both sides), so Set copies the
	// array before writing a cell. Nul is never written in place.
	shared atomic.Bool
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

// Append adds a value to a column that is not yet part of a table (see
// AddColumn); a table's columns grow through AppendRow.
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
// read-only (a model copies it once, when it captures its statistics).
func (c *Column) Dict() []string { return c.dict }

// Get returns the i-th value.
func (c *Column) Get(i int) Value { return Value{F: c.Data[i], Null: c.Nul[i]} }

// IsNull reports whether row i is NULL.
func (c *Column) IsNull(i int) bool { return c.Nul[i] }

// Set overwrites the payload of row i. When a clone may share the column's
// array, the array is first copied (copy-on-first-write), so the write is
// seen by this table alone.
func (c *Column) Set(i int, f float64) {
	if c.shared.Load() {
		c.Data = slices.Clone(c.Data)
		c.shared.Store(false)
	}
	c.Data[i] = f
}

// shareDict makes dst use the same dictionary as src. Joined and sampled
// tables share dictionaries with their sources so codes stay comparable.
func (dst *Column) shareDict(src *Column) {
	dst.dict = src.dict
	dst.dictIdx = src.dictIdx
}

// Table is a collection of equal-length columns plus its metadata.
//
// Rows and tombstones are append-only, and CloneData shares the backing
// arrays: a clone and its receiver read the same cells, each only below its
// own length. An append writes past the end of every table sharing the
// arrays, so exactly one of them may extend them in place — the one whose
// length the shared tail word still records (claim).
type Table struct {
	Meta *schema.Table
	Cols []*Column
	rows int
	// dead lists the tombstoned rows in deletion order: deleted rows stay
	// physically present (row indices keep addressing them) and Live drops
	// them.
	dead []int
	// tail is shared by every table over the same backing arrays and holds
	// rows+len(dead) of the one that may still append in place. Nil only
	// for join results, which are read-only.
	tail *atomic.Int64
}

// New creates an empty table for the given metadata.
func New(meta *schema.Table) *Table {
	t := &Table{Meta: meta, tail: new(atomic.Int64)}
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
	t.claim()
	for i, v := range vals {
		t.Cols[i].Append(v)
	}
	t.rows++
}

// Tombstone records row i as deleted. Like a row, a tombstone is appended
// under the tail rule, so each snapshot sees exactly its own deletions.
func (t *Table) Tombstone(i int) {
	t.claim()
	t.dead = append(t.dead, i)
}

// Dead returns the tombstoned rows in deletion order. The slice is shared
// with the table and its clones: treat it as read-only.
func (t *Table) Dead() []int { return t.dead }

// Live returns the table without its tombstoned rows: t itself when it has
// none, otherwise a compacted copy (Select) in row order.
func (t *Table) Live() *Table {
	if len(t.dead) == 0 {
		return t
	}
	dead := make([]bool, t.rows)
	for _, r := range t.dead {
		dead[r] = true
	}
	live := make([]int, 0, t.rows-len(t.dead))
	for i, d := range dead {
		if !d {
			live = append(live, i)
		}
	}
	return t.Select(live)
}

// claim reserves the next append (a row or a tombstone) for t. The first
// table to advance the shared tail word from its own length appends in
// place. Any other — a second branch off the same base, such as a clone of
// a stale snapshot — clips its arrays to their length, so its appends copy
// them into private ones, and continues under a tail word of its own.
func (t *Table) claim() {
	n := int64(t.rows + len(t.dead))
	if t.tail.CompareAndSwap(n, n+1) {
		return
	}
	for _, c := range t.Cols {
		c.Data = slices.Clip(c.Data)
		c.Nul = slices.Clip(c.Nul)
	}
	t.dead = slices.Clip(t.dead)
	t.tail = new(atomic.Int64)
	t.tail.Store(n + 1)
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

// CloneData returns a table that can be written without the receiver ever
// seeing it, while copying no cell: the clone gets its own Table and Column
// headers over the receiver's backing arrays. Its appends (rows and
// tombstones) land past the receiver's length and are arbitrated by the
// shared tail word (claim); its cell writes (Column.Set) first copy the one
// column they write. That is what copy-on-write snapshot publication needs
// at the cost of what a batch changes, not of what it touches. Metadata
// and dictionaries are shared too — the update path never extends a
// dictionary (rows arrive already encoded as Values) and never adds
// columns after construction, so sharing them is safe and keeps codes
// comparable across snapshots.
func (t *Table) CloneData() *Table {
	out := &Table{Meta: t.Meta, rows: t.rows, dead: t.dead, tail: t.tail, Cols: make([]*Column, len(t.Cols))}
	for i, c := range t.Cols {
		c.shared.Store(true)
		cc := &Column{Meta: c.Meta, Data: c.Data, Nul: c.Nul}
		cc.shareDict(c)
		cc.shared.Store(true)
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
	out.tail.Store(int64(len(rows)))
	return out
}

// Matrix materializes the named columns as a row-major [][]float64 with NULL
// encoded as NaN (gather). rows == nil means all rows. SPN learning
// consumes this.
func (t *Table) Matrix(cols []string, rows []int) ([][]float64, error) {
	srcs := make([]joinCol, len(cols))
	for i, name := range cols {
		if srcs[i].c = t.Column(name); srcs[i].c == nil {
			return nil, fmt.Errorf("table: unknown column %s in %s", name, t.Meta.Name)
		}
	}
	return gather(srcs, nil, rows, t.rows), nil
}
