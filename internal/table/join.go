package table

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"

	"repro/internal/schema"
)

// IndicatorColumn returns the name of the join-indicator column N_T for a
// table (1 when a joined tuple contains a real row of T, 0 when the row was
// padded by the full outer join). These are the N_T columns of Section 4.1.
func IndicatorColumn(tableName string) string { return "__nt_" + tableName }

// TupleFactorColumn returns the name of the tuple-factor column F_{One<-Many}
// for a relationship (Section 4.1's correction factors).
func TupleFactorColumn(rel schema.Relationship) string { return "__fk_" + rel.ID() }

// AddTupleFactor computes, for every row of the One-side table, how many
// rows of the Many-side table reference it, and stores the counts in a new
// column F_{One<-Many} on the One-side table. Rows with no join partner get
// factor 0 (the full outer join later lifts this to an effective 1).
func AddTupleFactor(one, many *Table, rel schema.Relationship) error {
	oneCol := one.Column(rel.OneColumn)
	if oneCol == nil {
		return fmt.Errorf("table: %s lacks join column %s", one.Meta.Name, rel.OneColumn)
	}
	manyCol := many.Column(rel.ManyColumn)
	if manyCol == nil {
		return fmt.Errorf("table: %s lacks join column %s", many.Meta.Name, rel.ManyColumn)
	}
	counts := make(map[float64]int, one.NumRows())
	for i := 0; i < many.NumRows(); i++ {
		if manyCol.Nul[i] {
			continue
		}
		counts[manyCol.Data[i]]++
	}
	fc := NewColumn(schema.Column{Name: TupleFactorColumn(rel), Kind: schema.IntKind})
	for i := 0; i < one.NumRows(); i++ {
		if oneCol.Nul[i] {
			fc.Append(Int(0))
			continue
		}
		fc.Append(Int(counts[oneCol.Data[i]]))
	}
	return one.AddColumn(fc)
}

// JoinSpec identifies a multi-way join: the participating tables and the FK
// edges connecting them.
type JoinSpec struct {
	Tables []string
	Edges  []schema.Relationship
}

// FullOuterJoin materializes the full outer join of the given base tables
// along the FK edges of the spec, in the paper's Figure 5b style: the result
// contains every column of every input table plus one indicator column
// N_T per table. Input tables should already carry their tuple-factor
// columns (AddTupleFactor) so the RSPN can learn them.
//
// It is the row-index join (IndexJoin) gathered once (JoinIndex.Table).
// Edges must form a tree over the spec's tables (schema.JoinTree
// guarantees this).
func FullOuterJoin(tables map[string]*Table, spec JoinSpec) (*Table, error) {
	j, err := IndexJoin(tables, spec, false)
	if err != nil {
		return nil, err
	}
	return j.Table(), nil
}

// JoinIndex is a join kept as row indices: for each joined table, in the
// order the fold joined it, one vector holding the table's row in every
// joined tuple, or -1 where the tuple is padded on that table. Nothing is
// copied until a caller gathers the columns it reads (Table, Values).
type JoinIndex struct {
	tables []*Table
	rows   [][]int
	n      int
}

// IndexJoin computes the join of the spec's tables as row indices. The
// edges are folded into an accumulator one at a time, each by a hash join
// on the edge's columns: every accumulated tuple in order, extended by its
// matches in the new table's row order, and for a full outer join (inner
// false) padded where it has none, followed by the new table's rows that
// matched no tuple. An inner join drops incomplete tuples at each step,
// which leaves the surviving tuples in the full outer join's order.
func IndexJoin(tables map[string]*Table, spec JoinSpec, inner bool) (*JoinIndex, error) {
	if len(spec.Tables) == 0 {
		return nil, fmt.Errorf("table: empty join spec")
	}
	first, ok := tables[spec.Tables[0]]
	if !ok {
		return nil, fmt.Errorf("table: missing table %s", spec.Tables[0])
	}
	all := make([]int, first.rows)
	for i := range all {
		all[i] = i
	}
	j := &JoinIndex{tables: []*Table{first}, rows: [][]int{all}, n: first.rows}
	joined := map[string]bool{spec.Tables[0]: true}
	remaining := append([]schema.Relationship(nil), spec.Edges...)
	for len(remaining) > 0 {
		progressed := false
		for i, rel := range remaining {
			var newTable string
			switch {
			case joined[rel.Many] && !joined[rel.One]:
				newTable = rel.One
			case joined[rel.One] && !joined[rel.Many]:
				newTable = rel.Many
			default:
				continue
			}
			nt, ok := tables[newTable]
			if !ok {
				return nil, fmt.Errorf("table: missing table %s", newTable)
			}
			if err := j.step(nt, rel, inner); err != nil {
				return nil, err
			}
			joined[newTable] = true
			remaining = append(remaining[:i], remaining[i+1:]...)
			progressed = true
			break
		}
		if !progressed {
			return nil, fmt.Errorf("table: join edges do not form a connected tree")
		}
	}
	return j, nil
}

// step joins table b into the accumulator on the edge rel. Exactly one of
// rel's endpoints has its join column in the accumulator, the other in b.
func (j *JoinIndex) step(b *Table, rel schema.Relationship, inner bool) error {
	at, aCol, bCol := j.joinColumns(b, rel)
	if aCol == nil || bCol == nil {
		return fmt.Errorf("table: edge %s does not connect %s and %s", rel.ID(), j.name(), b.Meta.Name)
	}
	// Hash the b side: each distinct key gets a group, and members lists
	// every group's rows contiguously in row order.
	group := make(map[float64]int32, b.rows)
	gid := make([]int32, b.rows)
	var count []int32
	for r := 0; r < b.rows; r++ {
		if bCol.Nul[r] {
			gid[r] = -1
			continue
		}
		g, ok := group[bCol.Data[r]]
		if !ok {
			g = int32(len(count))
			group[bCol.Data[r]] = g
			count = append(count, 0)
		}
		gid[r] = g
		count[g]++
	}
	start := make([]int32, len(count)+1)
	for g, c := range count {
		start[g+1] = start[g] + c
	}
	fill := append([]int32(nil), start[:len(count)]...)
	members := make([]int32, start[len(count)])
	for r, g := range gid {
		if g >= 0 {
			members[fill[g]] = int32(r)
			fill[g]++
		}
	}
	var matched []bool
	if !inner {
		matched = make([]bool, b.rows)
	}
	src := make([]int, 0, j.n)  // accumulated tuple, -1 for b's orphans
	brow := make([]int, 0, j.n) // b's row, -1 where padded
	aRows := j.rows[at]
	for i := 0; i < j.n; i++ {
		g := int32(-1)
		if r := aRows[i]; r >= 0 && !aCol.Nul[r] {
			if found, ok := group[aCol.Data[r]]; ok {
				g = found
			}
		}
		if g < 0 {
			if !inner {
				src = append(src, i)
				brow = append(brow, -1)
			}
			continue
		}
		for _, m := range members[start[g]:start[g+1]] {
			src = append(src, i)
			brow = append(brow, int(m))
			if !inner {
				matched[m] = true
			}
		}
	}
	for r, m := range matched {
		if !m {
			src = append(src, -1)
			brow = append(brow, r)
		}
	}
	for t, old := range j.rows {
		rows := make([]int, len(src))
		for p, i := range src {
			if i < 0 {
				rows[p] = -1
			} else {
				rows[p] = old[i]
			}
		}
		j.rows[t] = rows
	}
	j.tables = append(j.tables, b)
	j.rows = append(j.rows, brow)
	j.n = len(src)
	return nil
}

// joinColumns finds the edge's column in the accumulator (the index of the
// table that owns it) and in b.
func (j *JoinIndex) joinColumns(b *Table, rel schema.Relationship) (at int, aCol, bCol *Column) {
	if at, c := j.column(rel.ManyColumn); c != nil && b.Column(rel.OneColumn) != nil {
		return at, c, b.Column(rel.OneColumn)
	}
	if at, c := j.column(rel.OneColumn); c != nil && b.Column(rel.ManyColumn) != nil {
		return at, c, b.Column(rel.ManyColumn)
	}
	// Same column name on both sides (natural FK join where FK column name
	// equals PK column name, e.g. c_id in both customer and order).
	if rel.ManyColumn == rel.OneColumn {
		at, c := j.column(rel.ManyColumn)
		return at, c, b.Column(rel.ManyColumn)
	}
	return -1, nil, nil
}

// column resolves a column name the way the joined table does: a name
// several tables share (a natural-join column) is the first joined
// table's.
func (j *JoinIndex) column(name string) (int, *Column) {
	for t, tb := range j.tables {
		if c := tb.Column(name); c != nil {
			return t, c
		}
	}
	return -1, nil
}

func (j *JoinIndex) name() string {
	names := make([]string, len(j.tables))
	for t, tb := range j.tables {
		names[t] = tb.Meta.Name
	}
	return strings.Join(names, "|x|")
}

// Require keeps only the tuples in which every named table is present (its
// row index is not -1), in order. On a full outer join, requiring all but
// some tables keeps those tables' unmatched rows and drops everyone
// else's.
func (j *JoinIndex) Require(names []string) {
	var need [][]int
	for t, tb := range j.tables {
		if slices.Contains(names, tb.Meta.Name) {
			need = append(need, j.rows[t])
		}
	}
	n := 0
	for p := 0; p < j.n; p++ {
		keep := true
		for _, rows := range need {
			if rows[p] < 0 {
				keep = false
				break
			}
		}
		if keep {
			for _, rows := range j.rows {
				rows[n] = rows[p]
			}
			n++
		}
	}
	for t := range j.rows {
		j.rows[t] = j.rows[t][:n]
	}
	j.n = n
}

// NumRows returns the number of joined tuples.
func (j *JoinIndex) NumRows() int { return j.n }

// SampleRows returns k distinct tuple indices drawn like Table.SampleRows.
func (j *JoinIndex) SampleRows(k int, rng *rand.Rand) []int { return sampleRows(j.n, k, rng) }

// Values gathers the named column at the given tuples, NULL and padding as
// NaN (Matrix's encoding).
func (j *JoinIndex) Values(name string, tuples []int) ([]float64, error) {
	t, c := j.column(name)
	if c == nil {
		return nil, fmt.Errorf("table: unknown column %s in %s", name, j.name())
	}
	rows := j.rows[t]
	out := make([]float64, len(tuples))
	for i, p := range tuples {
		if r := rows[p]; r < 0 || c.Nul[r] {
			out[i] = math.NaN()
		} else {
			out[i] = c.Data[r]
		}
	}
	return out, nil
}

// Table materializes the join, gathering every column once: each joined
// table's columns in join order, a name already present (a natural-join
// column) kept from the first table, each table followed by its indicator
// N_T. Padded cells are NULL, except the indicator's, which are 0 (the
// tuple "is not there", not "unknown"), matching Figure 5b. Dictionaries
// are shared with the base tables.
func (j *JoinIndex) Table() *Table {
	out := &Table{Meta: &schema.Table{Name: j.name()}, rows: j.n}
	seen := map[string]bool{}
	add := func(c *Column) {
		seen[c.Meta.Name] = true
		out.Cols = append(out.Cols, c)
		out.Meta.Columns = append(out.Meta.Columns, c.Meta)
	}
	for t, tb := range j.tables {
		rows := j.rows[t]
		for _, c := range tb.Cols {
			if seen[c.Meta.Name] {
				continue
			}
			nc := &Column{Meta: c.Meta, Data: make([]float64, j.n), Nul: make([]bool, j.n)}
			nc.shareDict(c)
			for p, r := range rows {
				if r < 0 {
					nc.Nul[p] = true
					continue
				}
				nc.Data[p] = c.Data[r]
				nc.Nul[p] = c.Nul[r]
			}
			add(nc)
		}
		ind := &Column{Meta: schema.Column{Name: IndicatorColumn(tb.Meta.Name), Kind: schema.IntKind},
			Data: make([]float64, j.n), Nul: make([]bool, j.n)}
		for p, r := range rows {
			if r >= 0 {
				ind.Data[p] = 1
			}
		}
		add(ind)
	}
	return out
}

// SampleRows returns k distinct row indices drawn uniformly without
// replacement (all rows when k >= NumRows).
func (t *Table) SampleRows(k int, rng *rand.Rand) []int { return sampleRows(t.rows, k, rng) }

func sampleRows(n, k int, rng *rand.Rand) []int {
	if k >= n {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	perm := rng.Perm(n)
	out := perm[:k]
	return out
}
