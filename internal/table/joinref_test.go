package table

import (
	"fmt"

	"repro/internal/schema"
)

// The materializing join that the numbered join (Join) replaced, kept as
// the reference its decoded tuples must reproduce: the full outer join
// folds one table at a time into an accumulator, copying every column at
// every step, and the inner join selects the accumulator's complete rows
// afterwards by their indicator columns.

func fullOuterJoinRef(tables map[string]*Table, spec JoinSpec, reverseMatches bool) (*Table, error) {
	if len(spec.Tables) == 0 {
		return nil, fmt.Errorf("table: empty join spec")
	}
	first, ok := tables[spec.Tables[0]]
	if !ok {
		return nil, fmt.Errorf("table: missing table %s", spec.Tables[0])
	}
	acc := withIndicatorRef(first)
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
			var err error
			acc, err = outerJoinStepRef(acc, withIndicatorRef(nt), rel, reverseMatches)
			if err != nil {
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
	return acc, nil
}

func withIndicatorRef(t *Table) *Table {
	meta := &schema.Table{Name: t.Meta.Name, Columns: append([]schema.Column(nil), t.Meta.Columns...)}
	out := &Table{Meta: meta, rows: t.rows}
	for _, c := range t.Cols {
		nc := NewColumn(c.Meta)
		nc.Data = c.Data
		nc.Nul = c.Nul
		nc.shareDict(c)
		out.Cols = append(out.Cols, nc)
	}
	ind := NewColumn(schema.Column{Name: IndicatorColumn(t.Meta.Name), Kind: schema.IntKind})
	ind.Data = make([]float64, t.rows)
	ind.Nul = make([]bool, t.rows)
	for i := range ind.Data {
		ind.Data[i] = 1
	}
	out.Cols = append(out.Cols, ind)
	out.Meta.Columns = append(out.Meta.Columns, ind.Meta)
	return out
}

// outerJoinStepRef full-outer-joins accumulator a with table b on rel.
// reverseMatches lists each a row's b matches in descending row order,
// the deliberately wrong variant the comparison must catch.
func outerJoinStepRef(a, b *Table, rel schema.Relationship, reverseMatches bool) (*Table, error) {
	aCol, bCol := joinColumnsRef(a, b, rel)
	if aCol == nil || bCol == nil {
		return nil, fmt.Errorf("table: edge %s does not connect %s and %s", rel.ID(), a.Meta.Name, b.Meta.Name)
	}
	idx := make(map[float64][]int, b.NumRows())
	for i := 0; i < b.NumRows(); i++ {
		if bCol.Nul[i] {
			continue
		}
		if reverseMatches {
			idx[bCol.Data[i]] = append([]int{i}, idx[bCol.Data[i]]...)
		} else {
			idx[bCol.Data[i]] = append(idx[bCol.Data[i]], i)
		}
	}
	matchedB := make([]bool, b.NumRows())
	var pairs [][2]int
	for i := 0; i < a.NumRows(); i++ {
		if aCol.Nul[i] {
			pairs = append(pairs, [2]int{i, -1})
			continue
		}
		rows := idx[aCol.Data[i]]
		if len(rows) == 0 {
			pairs = append(pairs, [2]int{i, -1})
			continue
		}
		for _, r := range rows {
			pairs = append(pairs, [2]int{i, r})
			matchedB[r] = true
		}
	}
	for i, m := range matchedB {
		if !m {
			pairs = append(pairs, [2]int{-1, i})
		}
	}
	return assembleJoinRef(a, b, pairs), nil
}

func joinColumnsRef(a, b *Table, rel schema.Relationship) (aCol, bCol *Column) {
	if c := a.Column(rel.ManyColumn); c != nil && b.Column(rel.OneColumn) != nil {
		return c, b.Column(rel.OneColumn)
	}
	if c := a.Column(rel.OneColumn); c != nil && b.Column(rel.ManyColumn) != nil {
		return c, b.Column(rel.ManyColumn)
	}
	if rel.ManyColumn == rel.OneColumn {
		return a.Column(rel.ManyColumn), b.Column(rel.ManyColumn)
	}
	return nil, nil
}

func assembleJoinRef(a, b *Table, pairs [][2]int) *Table {
	meta := &schema.Table{Name: a.Meta.Name + "|x|" + b.Meta.Name}
	out := &Table{Meta: meta}
	appendSide := func(src *Table, side int) {
		for _, c := range src.Cols {
			if out.Column(c.Meta.Name) != nil {
				continue
			}
			nc := NewColumn(c.Meta)
			nc.shareDict(c)
			nc.Data = make([]float64, len(pairs))
			nc.Nul = make([]bool, len(pairs))
			indicator := len(c.Meta.Name) > 5 && c.Meta.Name[:5] == "__nt_"
			for p, pair := range pairs {
				r := pair[side]
				if r < 0 {
					if indicator {
						nc.Data[p] = 0
					} else {
						nc.Nul[p] = true
					}
					continue
				}
				nc.Data[p] = c.Data[r]
				nc.Nul[p] = c.Nul[r]
			}
			out.Cols = append(out.Cols, nc)
			out.Meta.Columns = append(out.Meta.Columns, c.Meta)
		}
	}
	appendSide(a, 0)
	appendSide(b, 1)
	out.rows = len(pairs)
	return out
}

func innerJoinRef(tables map[string]*Table, spec JoinSpec, reverseMatches bool) (*Table, error) {
	full, err := fullOuterJoinRef(tables, spec, reverseMatches)
	if err != nil {
		return nil, err
	}
	var keep []int
	for i := 0; i < full.NumRows(); i++ {
		all := true
		for _, tn := range spec.Tables {
			ind := full.Column(IndicatorColumn(tn))
			if ind == nil || ind.Data[i] != 1 {
				all = false
				break
			}
		}
		if all {
			keep = append(keep, i)
		}
	}
	return full.Select(keep), nil
}
