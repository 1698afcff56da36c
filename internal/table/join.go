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

// JoinIndex is a join kept as row indices: for each joined table, in the
// order the fold joined it, one vector holding the table's row in every
// joined tuple, or -1 where the tuple is padded on that table. Nothing is
// copied until a caller gathers the columns it reads (Table, Matrix).
type JoinIndex struct {
	tables []*Table
	rows   [][]int
	n      int
}

// foldStep is one edge of a fold: the probing column of the at-th joined
// table, and the new table's join column hashed. Each distinct non-NULL
// key is a group, and members lists every group's rows contiguously in
// row order (group g's are members[start[g]:start[g+1]]).
type foldStep struct {
	at      int
	aCol    *Column
	group   map[float64]int32
	start   []int32
	members []int32
}

// foldSteps orders the spec's tables as the fold joins them, the first
// table, then, while edges remain, the new end of the first remaining edge
// that leaves the joined set, and hashes each edge's new side.
func foldSteps(tables map[string]*Table, spec JoinSpec) ([]*Table, []foldStep, error) {
	if len(spec.Tables) == 0 {
		return nil, nil, fmt.Errorf("table: empty join spec")
	}
	first, ok := tables[spec.Tables[0]]
	if !ok {
		return nil, nil, fmt.Errorf("table: missing table %s", spec.Tables[0])
	}
	order := []*Table{first}
	var steps []foldStep
	joined := map[string]bool{spec.Tables[0]: true}
	remaining := slices.Clone(spec.Edges)
	for len(remaining) > 0 {
		i := slices.IndexFunc(remaining, func(rel schema.Relationship) bool { return joined[rel.Many] != joined[rel.One] })
		if i < 0 {
			return nil, nil, fmt.Errorf("table: join edges do not form a connected tree")
		}
		rel := remaining[i]
		remaining = slices.Delete(remaining, i, i+1)
		newTable := rel.One
		if joined[rel.One] {
			newTable = rel.Many
		}
		b, ok := tables[newTable]
		if !ok {
			return nil, nil, fmt.Errorf("table: missing table %s", newTable)
		}
		at, aCol, bCol := joinColumns(order, b, rel)
		if aCol == nil || bCol == nil {
			return nil, nil, fmt.Errorf("table: edge %s does not connect %s and %s", rel.ID(), joinName(order), b.Meta.Name)
		}
		order = append(order, b)
		steps = append(steps, newFoldStep(at, aCol, bCol, b.rows))
		joined[newTable] = true
	}
	return order, steps, nil
}

// IndexJoin computes the join of the spec's tables as row indices. The
// edges are folded into an accumulator one at a time, each by a hash join
// on the edge's columns: every accumulated tuple in order, extended by its
// matches in the new table's row order, and for a full outer join (inner
// false) padded where it has none, followed by the new table's rows that
// matched no tuple. An inner join drops incomplete tuples at each step,
// which leaves the surviving tuples in the full outer join's order.
func IndexJoin(tables map[string]*Table, spec JoinSpec, inner bool) (*JoinIndex, error) {
	order, steps, err := foldSteps(tables, spec)
	if err != nil {
		return nil, err
	}
	j := &JoinIndex{tables: []*Table{order[0]}, rows: [][]int{identity(order[0].rows)}, n: order[0].rows}
	for s, st := range steps {
		j.step(order[s+1], st, inner)
	}
	return j, nil
}

// newFoldStep hashes the new table's join column c.
func newFoldStep(at int, aCol, c *Column, rows int) foldStep {
	// No size hint: a foreign-key column repeats its keys, and one slot
	// per row would be allocated for keys that never come.
	group := make(map[float64]int32)
	gid := make([]int32, rows)
	var count []int32
	for r := 0; r < rows; r++ {
		if c.Nul[r] {
			gid[r] = -1
			continue
		}
		g, ok := group[c.Data[r]]
		if !ok {
			g = int32(len(count))
			group[c.Data[r]] = g
			count = append(count, 0)
		}
		gid[r] = g
		count[g]++
	}
	start := make([]int32, len(count)+1)
	for g, n := range count {
		start[g+1] = start[g] + n
	}
	fill := append([]int32(nil), start[:len(count)]...)
	members := make([]int32, start[len(count)])
	for r, g := range gid {
		if g >= 0 {
			members[fill[g]] = int32(r)
			fill[g]++
		}
	}
	return foldStep{at: at, aCol: aCol, group: group, start: start, members: members}
}

// matches returns the range of members whose key the probing column has
// at row r, empty when r is padding (-1), its key is NULL or no row has it.
func (st *foldStep) matches(r int) (lo, hi int) {
	if r < 0 || st.aCol.Nul[r] {
		return 0, 0
	}
	if g, ok := st.group[st.aCol.Data[r]]; ok {
		return int(st.start[g]), int(st.start[g+1])
	}
	return 0, 0
}

// step joins table b into the accumulator on the fold step st.
func (j *JoinIndex) step(b *Table, st foldStep, inner bool) {
	var matched []bool
	if !inner {
		matched = make([]bool, b.rows)
	}
	src := make([]int, 0, j.n)  // accumulated tuple, -1 for b's orphans
	brow := make([]int, 0, j.n) // b's row, -1 where padded
	aRows := j.rows[st.at]
	for i := 0; i < j.n; i++ {
		lo, hi := st.matches(aRows[i])
		if lo == hi {
			if !inner {
				src = append(src, i)
				brow = append(brow, -1)
			}
			continue
		}
		for _, r := range st.members[lo:hi] {
			src = append(src, i)
			brow = append(brow, int(r))
			if !inner {
				matched[r] = true
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
}

// joinColumns finds the edge's column among the joined tables (the index
// of the table that owns it) and in b.
func joinColumns(tables []*Table, b *Table, rel schema.Relationship) (at int, aCol, bCol *Column) {
	if at, c := column(tables, rel.ManyColumn); c != nil && b.Column(rel.OneColumn) != nil {
		return at, c, b.Column(rel.OneColumn)
	}
	if at, c := column(tables, rel.OneColumn); c != nil && b.Column(rel.ManyColumn) != nil {
		return at, c, b.Column(rel.ManyColumn)
	}
	// Same column name on both sides (natural FK join where FK column name
	// equals PK column name, e.g. c_id in both customer and order).
	if rel.ManyColumn == rel.OneColumn {
		at, c := column(tables, rel.ManyColumn)
		return at, c, b.Column(rel.ManyColumn)
	}
	return -1, nil, nil
}

// column resolves a column name the way the joined table does: a name
// several tables share (a natural-join column) is the first joined
// table's.
func column(tables []*Table, name string) (int, *Column) {
	for t, tb := range tables {
		if c := tb.Column(name); c != nil {
			return t, c
		}
	}
	return -1, nil
}

func joinName(tables []*Table) string {
	names := make([]string, len(tables))
	for t, tb := range tables {
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

// joinCol is one column of the joined table: column c of the t-th joined
// table, or that table's indicator N_T when c is nil.
type joinCol struct {
	t    int
	c    *Column
	name string
}

// at reads the column at its table's row r, -1 for padding: the cell and
// whether it is NULL, padding being NULL, and an indicator 1 or 0.
func (s joinCol) at(r int) (float64, bool) {
	switch {
	case s.c == nil && r >= 0:
		return 1, false
	case s.c == nil:
		return 0, false
	case r < 0:
		return 0, true
	}
	return s.c.Data[r], s.c.Nul[r]
}

// columns lists the joined table's columns: each joined table's columns
// in join order, a name already present (a natural-join column) kept from
// the first table, each table followed by its indicator N_T.
func (j *JoinIndex) columns() []joinCol {
	var out []joinCol
	seen := map[string]bool{}
	for t, tb := range j.tables {
		for _, c := range tb.Cols {
			if !seen[c.Meta.Name] {
				seen[c.Meta.Name] = true
				out = append(out, joinCol{t: t, c: c, name: c.Meta.Name})
			}
		}
		name := IndicatorColumn(tb.Meta.Name)
		seen[name] = true
		out = append(out, joinCol{t: t, name: name})
	}
	return out
}

// ColumnNames returns the joined table's column names in order (Table's).
func (j *JoinIndex) ColumnNames() []string {
	var out []string
	for _, jc := range j.columns() {
		out = append(out, jc.name)
	}
	return out
}

// Matrix gathers the named columns at the given tuples (all when nil) as
// Table().Matrix would, without materializing the table: NULL and padding
// are NaN, and an indicator N_T is 1 where the tuple has a row of T.
func (j *JoinIndex) Matrix(cols []string, tuples []int) ([][]float64, error) {
	all := j.columns()
	srcs := make([]joinCol, len(cols))
	for i, name := range cols {
		k := slices.IndexFunc(all, func(jc joinCol) bool { return jc.name == name })
		if k < 0 {
			return nil, fmt.Errorf("table: unknown column %s in %s", name, joinName(j.tables))
		}
		srcs[i] = all[k]
	}
	return gather(srcs, j.rows, tuples, j.n), nil
}

// gather reads the sources at the tuples (all n when nil) into a row-major
// matrix of capacity-capped windows of one array, so an append to a row
// copies it. At tuple p a source reads row rows[t][p] of its table, or row
// p when rows is nil (a base table), and NULL reads NaN.
func gather(srcs []joinCol, rows [][]int, tuples []int, n int) [][]float64 {
	if tuples != nil {
		n = len(tuples)
	}
	d := len(srcs)
	cells := make([]float64, n*d)
	out := make([][]float64, n)
	for i := range out {
		p := i
		if tuples != nil {
			p = tuples[i]
		}
		row := cells[i*d : (i+1)*d : (i+1)*d]
		for k, s := range srcs {
			r := p
			if rows != nil {
				r = rows[s.t][p]
			}
			if v, null := s.at(r); null {
				row[k] = math.NaN()
			} else {
				row[k] = v
			}
		}
		out[i] = row
	}
	return out
}

// Table materializes the join, gathering every column once (columns gives
// the order). Padded cells are NULL, except the indicator's, which are 0
// (the tuple "is not there", not "unknown"), matching Figure 5b.
// Dictionaries are shared with the base tables.
func (j *JoinIndex) Table() *Table {
	out := &Table{Meta: &schema.Table{Name: joinName(j.tables)}, rows: j.n}
	for _, jc := range j.columns() {
		nc := &Column{Meta: schema.Column{Name: jc.name, Kind: schema.IntKind}, Data: make([]float64, j.n), Nul: make([]bool, j.n)}
		if jc.c != nil {
			nc.Meta = jc.c.Meta
			nc.shareDict(jc.c)
		}
		for p, r := range j.rows[jc.t] {
			nc.Data[p], nc.Nul[p] = jc.at(r)
		}
		out.Cols = append(out.Cols, nc)
		out.Meta.Columns = append(out.Meta.Columns, nc.Meta)
	}
	return out
}

// JoinRanks numbers the tuples of an inner join without building it, by
// weighing each row with the number of tuples that extend it over the
// tables joined after it. IndexJoin(…, true) orders tuples by the root's
// row, then by each joined table's position in its match group, so the
// tuple at any rank decodes in O(tables · log rows).
type JoinRanks struct {
	tables []*Table
	steps  []foldStep // steps[s] joins tables[s+1]
	cum    [][]int    // weights summed: the root's over rows, tables[s+1]'s over steps[s]'s members
}

// InnerJoinRanks numbers the tuples of the inner join of the spec's
// tables, in IndexJoin(…, true)'s order.
func InnerJoinRanks(tables map[string]*Table, spec JoinSpec) (*JoinRanks, error) {
	order, steps, err := foldSteps(tables, spec)
	if err != nil {
		return nil, err
	}
	w := make([][]int, len(order))
	for t, tb := range order {
		w[t] = make([]int, tb.rows)
		for r := range w[t] {
			w[t][r] = 1 // every row's base weight
		}
	}
	return newJoinRanks(order, steps, w), nil
}

// newJoinRanks turns base weights into row weights bottom-up (a row's base
// weight times, per later table joined on its column, its matches' summed
// weight) and sums them.
func newJoinRanks(tables []*Table, steps []foldStep, w [][]int) *JoinRanks {
	j := &JoinRanks{tables: tables, steps: steps, cum: make([][]int, len(w))}
	for s := len(j.steps) - 1; s >= 0; s-- {
		st := j.steps[s]
		cum := make([]int, len(st.members)+1)
		for x, r := range st.members {
			cum[x+1] = cum[x] + w[s+1][r]
		}
		for r := range w[st.at] {
			lo, hi := st.matches(r)
			w[st.at][r] *= cum[hi] - cum[lo]
		}
		j.cum[s+1] = cum
	}
	j.cum[0] = make([]int, len(w[0])+1)
	for r, x := range w[0] {
		j.cum[0][r+1] = j.cum[0][r] + x
	}
	return j
}

// NumRows returns the number of joined tuples, the root's summed weight.
func (j *JoinRanks) NumRows() int { return j.cum[0][len(j.cum[0])-1] }

// Sample draws k distinct tuples as IndexJoin(…, true).SampleRows would,
// with the same draws from rng, and decodes them.
func (j *JoinRanks) Sample(k int, rng *rand.Rand) *JoinIndex {
	return j.Decode(sampleRows(j.NumRows(), k, rng))
}

// Decode returns the tuples at the given ranks, each in [0, NumRows()),
// as a join of len(ranks) tuples in the ranks' order.
func (j *JoinRanks) Decode(ranks []int) *JoinIndex {
	out := &JoinIndex{tables: j.tables, rows: make([][]int, len(j.tables)), n: len(ranks)}
	for t := range out.rows {
		out.rows[t] = make([]int, len(ranks))
	}
	root := j.cum[0]
	for p, i := range ranks {
		r, _ := slices.BinarySearch(root[1:], i+1)
		out.rows[0][p] = r
		i -= root[r]
		open := root[r+1] - root[r] // the tuples that extend the prefix
		for s, st := range j.steps {
			cum := j.cum[s+1]
			lo, hi := st.matches(out.rows[st.at][p])
			rest := open / (cum[hi] - cum[lo]) // the other open edges' product
			x, _ := slices.BinarySearch(cum[lo+1:hi+1], cum[lo]+i/rest+1)
			x += lo
			i -= rest * (cum[x] - cum[lo])
			open = rest * (cum[x+1] - cum[x])
			out.rows[s+1][p] = int(st.members[x])
		}
	}
	return out
}

// SampleRows returns k distinct row indices drawn uniformly without
// replacement (all rows when k >= NumRows).
func (t *Table) SampleRows(k int, rng *rand.Rand) []int { return sampleRows(t.rows, k, rng) }

func sampleRows(n, k int, rng *rand.Rand) []int {
	if k >= n {
		return identity(n)
	}
	return rng.Perm(n)[:k]
}

// identity returns 0, 1, …, n-1.
func identity(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
