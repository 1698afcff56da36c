package rspn

// template.go precompiles the value-independent structure of a Term. A
// compiled query plan evaluates the same term shape over and over with
// only the predicate *values* changing (per prepared-statement binding,
// per GROUP BY key, per inclusion-exclusion mask), yet the generic
// BuildRequest path re-derives column routing, FD-translation decisions,
// moment-function placement and indicator constraints on every call. A
// TermTemplate performs that derivation once: binding a concrete
// predicate list reduces to filling range values into a prebuilt slot
// layout.

import (
	"fmt"

	"repro/internal/query"
	"repro/internal/spn"
	"repro/internal/table"
)

// ttSlot is one output column of the template's request: which model
// column, its fixed moment function and not-null flag, which filter
// ordinals merge into it (in order), and whether the N_t = 1 indicator
// range merges in after them — the exact merge sequence buildConstraints
// performs, so bound requests are bit-identical to generically built ones.
type ttSlot struct {
	col       int
	fn        spn.Fn
	hasFn     bool
	notNull   bool
	indicator bool
	filters   []int
}

// TermTemplate is a Term with its constraint structure resolved against
// one RSPN. It is immutable after CompileTerm and safe for concurrent
// BindIndexed calls.
type TermTemplate struct {
	r     *RSPN
	slots []ttSlot
	// Per filter ordinal: the expected column (a defensive shape check at
	// bind time) and whether the predicate needs FD translation.
	cols []string
	fd   []bool
}

// CompileTerm resolves the term's structure — column routing, FD
// decisions, indicator and moment placement — against the model. The
// term's filter values are ignored; only their columns and order matter,
// and BindIndexed expects the same filter shape (as query.SameShape
// guarantees for plan executions).
func (r *RSPN) CompileTerm(term Term) (*TermTemplate, error) {
	t := &TermTemplate{
		r:    r,
		cols: make([]string, len(term.Filters)),
		fd:   make([]bool, len(term.Filters)),
	}
	slotOf := func(col int) *ttSlot {
		for i := range t.slots {
			if t.slots[i].col == col {
				return &t.slots[i]
			}
		}
		t.slots = append(t.slots, ttSlot{col: col})
		return &t.slots[len(t.slots)-1]
	}
	for k, p := range term.Filters {
		t.cols[k] = p.Column
		pred := p
		if !r.HasColumn(pred.Column) {
			translated, err := r.translateFD(pred)
			if err != nil {
				return nil, err
			}
			t.fd[k] = true
			pred = translated
		}
		idx := r.Model.ColumnIndex(pred.Column)
		if idx < 0 {
			return nil, fmt.Errorf("rspn: column %s not in model", pred.Column)
		}
		s := slotOf(idx)
		s.filters = append(s.filters, k)
	}
	for _, tbl := range term.InnerTables {
		idx := r.indicatorIndex(tbl)
		if idx < 0 {
			if len(r.Tables) == 1 && r.Tables[0] == tbl {
				continue // single-table RSPN: every row is a real row
			}
			return nil, fmt.Errorf("rspn: missing indicator column %s", table.IndicatorColumn(tbl))
		}
		slotOf(idx).indicator = true
	}
	//deepdb:orderinvariant each column writes its own state slot; duplicate assignment is an error either way
	for col, fn := range term.Fns {
		idx := r.Model.ColumnIndex(col)
		if idx < 0 {
			return nil, fmt.Errorf("rspn: moment column %s not in model", col)
		}
		s := slotOf(idx)
		if s.hasFn {
			return nil, fmt.Errorf("rspn: column %s assigned two moment functions", col)
		}
		s.fn, s.hasFn = fn, true
	}
	for _, col := range term.NotNull {
		idx := r.Model.ColumnIndex(col)
		if idx < 0 {
			return nil, fmt.Errorf("rspn: not-null column %s not in model", col)
		}
		slotOf(idx).notNull = true
	}
	return t, nil
}

// BindIndexed builds the template's request for one concrete predicate
// vector: template filter k reads filters[ords[k]]. A plan stores each
// term's ordinals once at compile time and binds every term against the
// binding's whole vector, instead of materializing a filtered copy per
// evaluation. A vector whose shape differs from the compiled one is an
// error (plan executions are shape-checked before they bind); other errors
// arise from value-dependent FD translation.
//
//deepdb:nocancel slot loops are column-count bounded; this per-evaluation hot path is cheaper than a ctx check
func (t *TermTemplate) BindIndexed(filters []query.Predicate, ords []int) (spn.Request, error) {
	if len(ords) != len(t.cols) {
		return spn.Request{}, fmt.Errorf("rspn: term compiled for %d filters bound with %d", len(t.cols), len(ords))
	}
	for k, j := range ords {
		if j < 0 || j >= len(filters) || filters[j].Column != t.cols[k] {
			return spn.Request{}, fmt.Errorf("rspn: term filter %d compiled for column %s bound to predicate %d of %d", k, t.cols[k], j, len(filters))
		}
	}
	cols := make([]spn.ColQuery, len(t.slots))
	for i := range t.slots {
		sl := &t.slots[i]
		cq := spn.ColQuery{Col: sl.col, Fn: sl.fn, ExcludeNull: sl.notNull}
		var ranges []spn.Range
		hasRange := false
		for _, k := range sl.filters {
			pred := filters[ords[k]]
			if t.fd[k] {
				var err error
				if pred, err = t.r.translateFD(pred); err != nil {
					return spn.Request{}, err
				}
			}
			rs := PredicateRanges(pred)
			if !hasRange {
				ranges, hasRange = rs, true
			} else {
				ranges = IntersectRanges(ranges, rs)
			}
		}
		if sl.indicator {
			ind := t.r.ntRange
			if ind == nil {
				ind = []spn.Range{spn.PointRange(1)}
			}
			if !hasRange {
				ranges, hasRange = ind, true
			} else {
				ranges = IntersectRanges(ranges, ind)
			}
		}
		if hasRange {
			cq.Ranges = ranges
			if len(cq.Ranges) == 0 {
				// Contradictory constraints: probability zero. Encode as an
				// impossible range.
				cq.Ranges = []spn.Range{{Lo: 1, Hi: 0}}
			}
		}
		cols[i] = cq
	}
	return spn.Request{Cols: cols}, nil
}
