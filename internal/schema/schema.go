// Package schema describes relational metadata for DeepDB: tables, typed
// columns, primary/foreign keys, and user-declared functional dependencies.
// It is a pure-data package at the bottom of the dependency graph.
package schema

import (
	"fmt"
	"slices"
	"sync"
)

// Kind is the logical type of a column.
type Kind int

const (
	// IntKind is a discrete integer attribute (also used for keys).
	IntKind Kind = iota
	// FloatKind is a continuous numeric attribute.
	FloatKind
	// CategoricalKind is a dictionary-encoded string attribute.
	CategoricalKind
)

// String returns a human-readable type name.
func (k Kind) String() string {
	switch k {
	case IntKind:
		return "int"
	case FloatKind:
		return "float"
	case CategoricalKind:
		return "categorical"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Column describes one attribute of a table.
type Column struct {
	Name     string
	Kind     Kind
	Nullable bool
}

// ForeignKey declares that Column of the owning table references
// RefColumn of RefTable (a many-to-one relationship: owning table is the
// "S" side, referenced table the "P" side in the paper's S <- P notation...
// here the referencing table holds many rows per referenced row).
type ForeignKey struct {
	Column    string // column in the referencing table
	RefTable  string // referenced (primary-key) table
	RefColumn string // referenced column, usually the PK
}

// FunctionalDependency declares Determinant -> Dependent between non-key
// attributes of one table (Section 3.2 of the paper). The dependent column
// is excluded from RSPN learning and resolved through a dictionary.
type FunctionalDependency struct {
	Determinant string
	Dependent   string
}

// Table is the metadata of one relation.
type Table struct {
	Name        string
	Columns     []Column
	PrimaryKey  string
	ForeignKeys []ForeignKey
	FDs         []FunctionalDependency
}

// ColumnIndex returns the position of the named column, or -1.
func (t *Table) ColumnIndex(name string) int {
	for i, c := range t.Columns {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// Column returns the named column's metadata.
func (t *Table) Column(name string) (Column, bool) {
	if i := t.ColumnIndex(name); i >= 0 {
		return t.Columns[i], true
	}
	return Column{}, false
}

// Schema is a set of tables plus the FK graph connecting them. The graph
// is indexed on the first call that walks it (Relationships, JoinTree,
// NeighborEdges) and only read afterwards, so one Schema serves any
// number of concurrent readers — every ensemble snapshot over it shares
// the one index. Tables and their foreign keys must therefore not change
// once the schema has answered such a call.
type Schema struct {
	Tables []*Table

	graphOnce sync.Once
	graph     fkGraph
}

// fkGraph is the FK graph of a schema: every edge in Relationships order,
// and per table the edges incident to it, in the same order.
type fkGraph struct {
	rels []Relationship
	adj  map[string][]Relationship
}

// fk returns the schema's FK graph, indexing it on first use.
func (s *Schema) fk() *fkGraph {
	s.graphOnce.Do(func() {
		g := &s.graph
		for _, t := range s.Tables {
			for _, fk := range t.ForeignKeys {
				g.rels = append(g.rels, Relationship{
					Many: t.Name, ManyColumn: fk.Column,
					One: fk.RefTable, OneColumn: fk.RefColumn,
				})
			}
		}
		g.adj = make(map[string][]Relationship, len(s.Tables))
		for _, r := range g.rels {
			g.adj[r.Many] = append(g.adj[r.Many], r)
			if r.One != r.Many {
				g.adj[r.One] = append(g.adj[r.One], r)
			}
		}
	})
	return &s.graph
}

// Table returns the named table, or nil.
func (s *Schema) Table(name string) *Table {
	for _, t := range s.Tables {
		if t.Name == name {
			return t
		}
	}
	return nil
}

// Validate checks referential consistency: every FK references an existing
// table/column, every PK and FD names an existing column.
func (s *Schema) Validate() error {
	for _, t := range s.Tables {
		if t.PrimaryKey != "" && t.ColumnIndex(t.PrimaryKey) < 0 {
			return fmt.Errorf("schema: table %s: primary key %s not a column", t.Name, t.PrimaryKey)
		}
		for _, fk := range t.ForeignKeys {
			if t.ColumnIndex(fk.Column) < 0 {
				return fmt.Errorf("schema: table %s: FK column %s not a column", t.Name, fk.Column)
			}
			ref := s.Table(fk.RefTable)
			if ref == nil {
				return fmt.Errorf("schema: table %s: FK references unknown table %s", t.Name, fk.RefTable)
			}
			if ref.ColumnIndex(fk.RefColumn) < 0 {
				return fmt.Errorf("schema: table %s: FK references unknown column %s.%s", t.Name, fk.RefTable, fk.RefColumn)
			}
		}
		for _, fd := range t.FDs {
			if t.ColumnIndex(fd.Determinant) < 0 || t.ColumnIndex(fd.Dependent) < 0 {
				return fmt.Errorf("schema: table %s: FD %s->%s names unknown column", t.Name, fd.Determinant, fd.Dependent)
			}
		}
	}
	return nil
}

// Relationship is one FK edge in the schema graph, in the paper's
// S <- P orientation: Many (referencing) side and One (referenced) side.
type Relationship struct {
	// Many is the referencing table (e.g. Order referencing Customer).
	Many string
	// ManyColumn is the FK column in the Many table.
	ManyColumn string
	// One is the referenced table (e.g. Customer).
	One string
	// OneColumn is the referenced column (usually One's primary key).
	OneColumn string
}

// ID returns a stable identifier for the relationship, used to name tuple
// factor columns: F_{One<-Many}.
func (r Relationship) ID() string { return r.One + "<-" + r.Many }

// Other returns the endpoint of the edge opposite the named one.
func (r Relationship) Other(table string) string {
	if r.Many == table {
		return r.One
	}
	return r.Many
}

// Relationships enumerates every FK edge in the schema. The slice is the
// caller's own.
func (s *Schema) Relationships() []Relationship {
	return append([]Relationship(nil), s.fk().rels...)
}

// JoinTree returns the set of relationships that connect the given tables
// into a single tree, or an error when the tables are not connected in the
// FK graph or a table is named twice. DeepDB only supports equi-joins along
// FK edges, so a query's join condition is fully determined by its table
// set. Apart from the returned edges it allocates nothing for up to 64
// tables.
func (s *Schema) JoinTree(tables []string) ([]Relationship, error) {
	if len(tables) <= 1 {
		return nil, nil
	}
	for i, t := range tables {
		if s.Table(t) == nil {
			return nil, fmt.Errorf("schema: unknown table %s", t)
		}
		if slices.Contains(tables[:i], t) {
			return nil, fmt.Errorf("schema: table %s named twice", t)
		}
	}
	// Breadth-first growth from the first table across FK edges whose both
	// endpoints are requested.
	var buf [64]bool
	connected := buf[:]
	if len(tables) > len(buf) {
		connected = make([]bool, len(tables))
	}
	connected[0] = true
	edges := make([]Relationship, 0, len(tables)-1)
	for n := 1; n < len(tables); {
		grew := false
		for _, r := range s.fk().rels {
			m, o := slices.Index(tables, r.Many), slices.Index(tables, r.One)
			if m < 0 || o < 0 || connected[m] == connected[o] {
				continue // not both requested, or both in or both out
			}
			connected[m], connected[o] = true, true
			edges = append(edges, r)
			n++
			grew = true
		}
		if !grew {
			return nil, fmt.Errorf("schema: tables %v not connected by foreign keys", tables)
		}
	}
	return edges, nil
}

// NeighborEdges returns all FK edges incident to the named table, in
// Relationships order. It reads the schema's graph index and allocates
// nothing: the slice is shared and must not be modified.
func (s *Schema) NeighborEdges(table string) []Relationship {
	return s.fk().adj[table]
}
