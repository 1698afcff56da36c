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

// JoinIndex is a join's tuples decoded as row indices: for each joined
// table, in the order the fold joined it, one vector holding the table's
// row in every tuple, or -1 where the tuple is padded on that table.
// Nothing is copied until Table gathers the columns.
type JoinIndex struct {
	tables []*Table
	rows   [][]int
}

// foldStep is one edge of a fold: the probing table (the at-th joined),
// the group of the new table's rows that each of its rows matches (-1 for
// none), and the new table's rows grouped by key, in row order (group g's
// are members[start[g]:start[g+1]]), and the orphans, the new table's rows
// that no probing row matches, in row order.
type foldStep struct {
	at      int
	probe   []int32
	start   []int32
	members []int32
	orphans []int
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
		steps = append(steps, newFoldStep(at, order[at].rows, aCol, bCol, b.rows))
		order = append(order, b)
		joined[newTable] = true
	}
	return order, steps, nil
}

// newFoldStep hashes the new table's join column c and probes it with
// each of the at-th table's aRows rows.
func newFoldStep(at, aRows int, aCol, c *Column, rows int) foldStep {
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
	st := foldStep{at: at, probe: make([]int32, aRows), start: start, members: members}
	hit := make([]bool, len(count)) // the groups some probing row matches
	for r := range st.probe {
		st.probe[r] = -1
		if g, ok := group[aCol.Data[r]]; ok && !aCol.Nul[r] {
			st.probe[r] = g
			hit[g] = true
		}
	}
	for r, g := range gid {
		if g < 0 || !hit[g] {
			st.orphans = append(st.orphans, r)
		}
	}
	return st
}

// matches returns the range of members that the probing table's row r
// matches, empty when r is padding (-1), its key is NULL or no row has it.
func (st *foldStep) matches(r int) (lo, hi int) {
	if r < 0 || st.probe[r] < 0 {
		return 0, 0
	}
	g := st.probe[r]
	return int(st.start[g]), int(st.start[g+1])
}

// JoinRanks numbers a join's tuples without building it, by weighing each
// row with the number of tuples that extend it over the tables joined
// after it. The fold orders the tuples: each step extends every tuple, in
// order, by its matches in the new table's row order, and in a full outer
// join pads a tuple with no match once and then appends its orphans. So
// the root's tuples come first, by root row, then each step's orphans in
// row order, each extended like a root, and the tuple at any rank decodes
// in O(tables · log rows). Decode is the only enumeration of a join.
type JoinRanks struct {
	tables []*Table
	steps  []foldStep // steps[s] joins tables[s+1]
	roots  []int      // the root's rows, then each step's orphans
	first  []int      // roots[first[t]:] starts tables[t]'s roots
	cum    [][]int    // weights summed: cum[0] over roots, cum[s+1] over steps[s]'s members
}

// Join numbers the tuples of the inner join of the spec's tables, or of
// their full outer join when inner is false.
func Join(tables map[string]*Table, spec JoinSpec, inner bool) (*JoinRanks, error) {
	order, steps, err := foldSteps(tables, spec)
	if err != nil {
		return nil, err
	}
	return newJoinRanks(order, steps, unitWeights(order), inner), nil
}

// unitWeights gives every row of the tables base weight 1.
func unitWeights(tables []*Table) [][]int {
	w := make([][]int, len(tables))
	for t, tb := range tables {
		w[t] = make([]int, tb.rows)
		for r := range w[t] {
			w[t][r] = 1
		}
	}
	return w
}

// newJoinRanks turns base weights into row weights bottom-up (a row's base
// weight times, per later table joined on its column, its matches' summed
// weight, at least 1 in a full outer join, which pads a row without
// matches once) and sums them.
func newJoinRanks(tables []*Table, steps []foldStep, w [][]int, inner bool) *JoinRanks {
	j := &JoinRanks{tables: tables, steps: steps, cum: make([][]int, len(w)), first: make([]int, len(w))}
	for s := len(j.steps) - 1; s >= 0; s-- {
		st := &j.steps[s]
		cum := make([]int, len(st.members)+1)
		for x, r := range st.members {
			cum[x+1] = cum[x] + w[s+1][r]
		}
		for r := range w[st.at] {
			lo, hi := st.matches(r)
			m := cum[hi] - cum[lo]
			if !inner {
				m = max(m, 1)
			}
			w[st.at][r] *= m
		}
		j.cum[s+1] = cum
	}
	j.roots = identity(len(w[0]))
	for s, st := range j.steps {
		j.first[s+1] = len(j.roots)
		if !inner {
			j.roots = append(j.roots, st.orphans...)
		}
	}
	j.cum[0] = make([]int, len(j.roots)+1)
	t := 0
	for x, r := range j.roots {
		for t+1 < len(j.first) && j.first[t+1] <= x {
			t++
		}
		j.cum[0][x+1] = j.cum[0][x] + w[t][r]
	}
	return j
}

// NumRows returns the number of joined tuples, the roots' summed weight.
func (j *JoinRanks) NumRows() int { return j.cum[0][len(j.cum[0])-1] }

// SampleRows returns k distinct ranks drawn like Table.SampleRows.
func (j *JoinRanks) SampleRows(k int, rng *rand.Rand) []int { return sampleRows(j.NumRows(), k, rng) }

// Decode returns the tuples at the given ranks, each in [0, NumRows()),
// as a join of len(ranks) tuples in the ranks' order, or every tuple in
// order when ranks is nil.
func (j *JoinRanks) Decode(ranks []int) *JoinIndex {
	n := len(ranks)
	if ranks == nil {
		n = j.NumRows()
	}
	out := &JoinIndex{tables: j.tables, rows: make([][]int, len(j.tables))}
	for t := range out.rows {
		out.rows[t] = make([]int, n)
	}
	root := j.cum[0]
	x, t := -1, 0 // the last tuple's root, and the table it is a row of
	for p := range n {
		i := p
		if ranks != nil {
			i = ranks[p]
		}
		if x < 0 || i < root[x] || i >= root[x+1] {
			x, _ = slices.BinarySearch(root[1:], i+1)
			t = len(j.first) - 1
			for j.first[t] > x {
				t--
			}
		}
		for u := range t {
			out.rows[u][p] = -1
		}
		out.rows[t][p] = j.roots[x]
		i -= root[x]
		open := root[x+1] - root[x] // the tuples that extend the prefix
		for s := t; s < len(j.steps); s++ {
			st := &j.steps[s]
			lo, hi := st.matches(out.rows[st.at][p])
			if lo == hi {
				out.rows[s+1][p] = -1 // padded once
				continue
			}
			cum := j.cum[s+1]
			rest, q := 1, i // the other open edges' product, and i's offset in the group's sums
			if sum := cum[hi] - cum[lo]; open != sum {
				rest = open / sum
				q = i / rest
			}
			// A member of weight 1 after members summing to q is the
			// one; otherwise search the group's sums.
			k := lo + q
			if k >= hi || cum[k]-cum[lo] != q || cum[k+1]-cum[k] != 1 {
				k, _ = slices.BinarySearch(cum[lo+1:hi+1], cum[lo]+q+1)
				k += lo
			}
			i -= rest * (cum[k] - cum[lo])
			open = rest * (cum[k+1] - cum[k])
			out.rows[s+1][p] = int(st.members[k])
		}
	}
	return out
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
	for p := range j.rows[0] {
		if slices.ContainsFunc(need, func(rows []int) bool { return rows[p] < 0 }) {
			continue
		}
		for _, rows := range j.rows {
			rows[n] = rows[p]
		}
		n++
	}
	for t := range j.rows {
		j.rows[t] = j.rows[t][:n]
	}
}

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

// joinedColumns lists the joined table's columns: each joined table's
// columns in join order, a name already present (a natural-join column)
// kept from the first table, each table followed by its indicator N_T.
func joinedColumns(tables []*Table) []joinCol {
	var out []joinCol
	seen := map[string]bool{}
	for t, tb := range tables {
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
func (j *JoinRanks) ColumnNames() []string {
	var out []string
	for _, jc := range joinedColumns(j.tables) {
		out = append(out, jc.name)
	}
	return out
}

// Matrix decodes the tuples at the given ranks (all when nil) and gathers
// the named columns there as Decode(ranks).Table().Matrix would, without
// materializing the table: NULL and padding are NaN, and an indicator N_T
// is 1 where the tuple has a row of T.
func (j *JoinRanks) Matrix(cols []string, ranks []int) ([][]float64, error) {
	all := joinedColumns(j.tables)
	srcs := make([]joinCol, len(cols))
	for i, name := range cols {
		k := slices.IndexFunc(all, func(jc joinCol) bool { return jc.name == name })
		if k < 0 {
			return nil, fmt.Errorf("table: unknown column %s in %s", name, joinName(j.tables))
		}
		srcs[i] = all[k]
	}
	d := j.Decode(ranks)
	return gather(srcs, d.rows, nil, len(d.rows[0])), nil
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

// Table materializes the decoded tuples, gathering every column once
// (joinedColumns gives the order). Padded cells are NULL, except the
// indicator's, which are 0 (the tuple "is not there", not "unknown"),
// matching Figure 5b. Dictionaries are shared with the base tables.
func (j *JoinIndex) Table() *Table {
	n := len(j.rows[0])
	out := &Table{Meta: &schema.Table{Name: joinName(j.tables)}, rows: n}
	for _, jc := range joinedColumns(j.tables) {
		nc := &Column{Meta: schema.Column{Name: jc.name, Kind: schema.IntKind}, Data: make([]float64, n), Nul: make([]bool, n)}
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
