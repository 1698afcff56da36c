// Package rspn implements Relational Sum-Product Networks: SPNs extended
// with the database-specific machinery of Sections 3.2 and 4 of the DeepDB
// paper. An RSPN wraps an SPN learned over a single table or over the full
// outer join of FK-connected tables, and adds:
//
//   - NULL-aware predicate semantics (NULL never satisfies a comparison),
//   - tuple-factor columns F_{S<-T} and join-indicator columns N_T,
//   - functional-dependency dictionaries that translate predicates on a
//     dependent column into predicates on its determinant,
//   - a Term abstraction that assembles the per-column moment requests the
//     probabilistic query compiler needs (Theorems 1 and 2),
//   - direct updates routed through the underlying SPN (Algorithm 1).
package rspn

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/query"
	"repro/internal/schema"
	"repro/internal/spn"
	"repro/internal/table"
)

// FD is a learned functional-dependency dictionary for A -> B: the model
// omits column B and queries filtering B are rewritten to filter A through
// the inverse mapping (Section 3.2).
type FD struct {
	Table       string
	Determinant string
	Dependent   string
	// Inverse maps each dependent value to the determinant values that
	// produce it.
	Inverse map[float64][]float64
	// Forward maps determinant values to the dependent value, used to
	// answer aggregate queries on the dependent column.
	Forward map[float64]float64
}

// RSPN is one ensemble member: an SPN over a table or a full outer join.
type RSPN struct {
	Model *spn.SPN
	// Tables are the base tables covered, in join order.
	Tables []string
	// Edges are the FK edges of the underlying full outer join (empty for
	// single-table RSPNs).
	Edges []schema.Relationship
	// FullSize is |J|: the current row count of the underlying full outer
	// join (or table). Maintained exactly under updates even when the
	// model was learned on a sample.
	FullSize float64
	// SampleRate is the fraction of join rows the model was learned on;
	// updates are applied to the model at this rate (Section 6.1).
	SampleRate float64
	// FDs are the functional-dependency dictionaries attached to this
	// model's tables.
	FDs []FD

	// ntIdx caches the model column index of each covered table's join
	// indicator N_t, so constraint building does not concatenate the
	// indicator column name per request. Unexported (gob skips it) and
	// precomputed by Refresh; hand-built RSPNs fall back to a direct
	// lookup.
	ntIdx map[string]int
	// ntRange is the shared, read-only N_t = 1 range every indicator
	// constraint uses (one allocation per RSPN instead of one per
	// request).
	ntRange []spn.Range
}

// Refresh rebuilds the RSPN's derived lookup state — the model's compiled
// flat evaluator and caches (spn.SPN.Refresh) plus the per-table join
// indicator column indices. Learning and deserialization call it.
func (r *RSPN) Refresh() {
	r.Model.Refresh()
	r.ntIdx = make(map[string]int, len(r.Tables))
	for _, t := range r.Tables {
		r.ntIdx[t] = r.Model.ColumnIndex(table.IndicatorColumn(t))
	}
	r.ntRange = []spn.Range{spn.PointRange(1)}
}

// Clone returns a copy that Update may write while the receiver keeps
// serving: Update on the clone leaves the original's model and FullSize
// bit-for-bit untouched, which is what lets the update pipeline mutate a
// private copy while published snapshots keep serving. The model is a
// path-copying clone (spn.SPN.Clone): it shares the receiver's nodes and
// copies each one an update writes. Immutable metadata (table list, join
// edges, FD dictionaries, and the indicator indices and N_t range derived
// from the model's fixed columns) is shared by pointer.
func (r *RSPN) Clone() *RSPN {
	return &RSPN{
		Model:      r.Model.Clone(),
		Tables:     r.Tables,
		Edges:      r.Edges,
		FullSize:   r.FullSize,
		SampleRate: r.SampleRate,
		FDs:        r.FDs,
		ntIdx:      r.ntIdx,
		ntRange:    r.ntRange,
	}
}

// indicatorIndex returns the model column index of table t's join
// indicator, or -1.
func (r *RSPN) indicatorIndex(t string) int {
	if r.ntIdx != nil {
		if idx, ok := r.ntIdx[t]; ok {
			return idx
		}
		return -1
	}
	return r.Model.ColumnIndex(table.IndicatorColumn(t))
}

// CoversTables reports whether the RSPN's table set includes every one of
// the given tables.
func (r *RSPN) CoversTables(tables []string) bool {
	for _, t := range tables {
		if !r.HasTable(t) {
			return false
		}
	}
	return true
}

// HasTable reports whether the RSPN covers the named base table.
func (r *RSPN) HasTable(name string) bool {
	for _, t := range r.Tables {
		if t == name {
			return true
		}
	}
	return false
}

// HasColumn reports whether the model learned the named column directly.
func (r *RSPN) HasColumn(name string) bool {
	return r.Model.ColumnIndex(name) >= 0
}

// ResolvesColumn reports whether the named column is either learned
// directly or reachable through a functional dependency.
func (r *RSPN) ResolvesColumn(name string) bool {
	if r.HasColumn(name) {
		return true
	}
	for _, fd := range r.FDs {
		if fd.Dependent == name && r.HasColumn(fd.Determinant) {
			return true
		}
	}
	return false
}

// Term describes one expectation of the form
//
//	E[ prod(aggregate fns) * prod(1/F' inverse factors) * prod(F mult
//	   factors) * 1(filters) * 1(indicators) * 1(not-null) ]
//
// over the RSPN's joint distribution. Multiplied by FullSize this yields
// the count/sum estimates of Theorems 1 and 2.
type Term struct {
	// Fns assigns a moment function to a column (e.g. the aggregate
	// column of a SUM gets FnIdent, tuple factors get FnInv).
	Fns map[string]spn.Fn
	// Filters are the query's predicates relevant to this RSPN.
	Filters []query.Predicate
	// InnerTables lists tables whose indicator N_T must equal 1 (inner
	// join semantics for the query's tables).
	InnerTables []string
	// NotNull lists columns required to be non-NULL (AVG denominators).
	NotNull []string
}

// BuildRequest compiles a term into the single SPN inference request its
// evaluation needs. Callers that evaluate many terms should build their
// requests up front and hand them to EvaluateRequests in one batch, so the
// model's flat arrays are walked once for all of them.
func (r *RSPN) BuildRequest(term Term) (spn.Request, error) {
	cons, err := r.buildConstraints(term)
	if err != nil {
		return spn.Request{}, err
	}
	return spn.Request{Cols: cons}, nil
}

// EvaluateRequests evaluates a batch of prebuilt requests in one pass over
// the model's compiled flat form, writing request i's value into out[i]
// (len(out) >= len(reqs)). Results are bit-identical to evaluating each
// request alone.
func (r *RSPN) EvaluateRequests(reqs []spn.Request, out []float64) error {
	return r.Model.EvaluateBatch(reqs, out)
}

// buildConstraints merges the term's parts into one ColQuery per column,
// in deterministic first-touch order.
func (r *RSPN) buildConstraints(term Term) ([]spn.ColQuery, error) {
	type colState struct {
		col      int
		fn       spn.Fn
		hasFn    bool
		ranges   []spn.Range // nil means unconstrained so far
		hasRange bool
		notNull  bool
	}
	// A term touches a handful of columns; a linear scan over a small
	// slice beats the map the per-call path used to allocate.
	states := make([]colState, 0, 8)
	state := func(col int) *colState {
		for i := range states {
			if states[i].col == col {
				return &states[i]
			}
		}
		states = append(states, colState{col: col})
		return &states[len(states)-1]
	}

	// Filters, with FD translation.
	for _, p := range term.Filters {
		pred := p
		if !r.HasColumn(pred.Column) {
			translated, err := r.translateFD(pred)
			if err != nil {
				return nil, err
			}
			pred = translated
		}
		idx := r.Model.ColumnIndex(pred.Column)
		if idx < 0 {
			return nil, fmt.Errorf("rspn: column %s not in model", pred.Column)
		}
		rs := PredicateRanges(pred)
		s := state(idx)
		if !s.hasRange {
			s.ranges, s.hasRange = rs, true
		} else {
			s.ranges = IntersectRanges(s.ranges, rs)
		}
	}
	// Indicator columns.
	for _, t := range term.InnerTables {
		idx := r.indicatorIndex(t)
		if idx < 0 {
			if len(r.Tables) == 1 && r.Tables[0] == t {
				continue // single-table RSPN: every row is a real row
			}
			return nil, fmt.Errorf("rspn: missing indicator column %s", table.IndicatorColumn(t))
		}
		s := state(idx)
		ind := r.ntRange
		if ind == nil {
			ind = []spn.Range{spn.PointRange(1)}
		}
		if !s.hasRange {
			// Shared read-only slice: never mutated downstream.
			s.ranges, s.hasRange = ind, true
		} else {
			s.ranges = IntersectRanges(s.ranges, ind)
		}
	}
	// Moment functions.
	//deepdb:orderinvariant each column writes its own state slot; duplicate assignment is an error either way
	for col, fn := range term.Fns {
		idx := r.Model.ColumnIndex(col)
		if idx < 0 {
			return nil, fmt.Errorf("rspn: moment column %s not in model", col)
		}
		s := state(idx)
		if s.hasFn {
			return nil, fmt.Errorf("rspn: column %s assigned two moment functions", col)
		}
		s.fn, s.hasFn = fn, true
	}
	// Not-null constraints.
	for _, col := range term.NotNull {
		idx := r.Model.ColumnIndex(col)
		if idx < 0 {
			return nil, fmt.Errorf("rspn: not-null column %s not in model", col)
		}
		state(idx).notNull = true
	}

	out := make([]spn.ColQuery, 0, len(states))
	for i := range states {
		s := &states[i]
		cq := spn.ColQuery{Col: s.col, Fn: s.fn, ExcludeNull: s.notNull}
		if s.hasRange {
			cq.Ranges = s.ranges
			if len(cq.Ranges) == 0 {
				// Contradictory constraints: probability zero. Encode as an
				// impossible range.
				cq.Ranges = []spn.Range{{Lo: 1, Hi: 0}}
			}
		}
		out = append(out, cq)
	}
	return out, nil
}

// translateFD rewrites a predicate on an FD-dependent column into one on
// its determinant using the inverse dictionary.
func (r *RSPN) translateFD(p query.Predicate) (query.Predicate, error) {
	for _, fd := range r.FDs {
		if fd.Dependent != p.Column || !r.HasColumn(fd.Determinant) {
			continue
		}
		// Collect determinant values whose dependent value satisfies p, in
		// sorted order so downstream float summation is deterministic.
		var allowed []float64
		if p.Op == query.Eq {
			// Point lookup instead of a dictionary scan: equality is the
			// hot case (group-by gating binds one Eq per group column per
			// candidate key). Map lookup and p.Matches agree exactly —
			// float keys hash by ==, so ±0 unify and NaN matches neither
			// way — and a single key can never produce duplicates.
			allowed = append(allowed, fd.Inverse[p.Value]...)
		} else {
			//deepdb:orderinvariant allowed is fully sorted below before use
			for depVal, dets := range fd.Inverse {
				if p.Matches(depVal) {
					allowed = append(allowed, dets...)
				}
			}
		}
		sort.Float64s(allowed)
		return query.Predicate{Column: fd.Determinant, Op: query.In, Values: allowed}, nil
	}
	return p, fmt.Errorf("rspn: column %s not in model and no FD resolves it", p.Column)
}

// PredicateRanges converts a predicate into a union of value ranges with
// SQL semantics (NULL never qualifies; range endpoints respect operator
// strictness).
func PredicateRanges(p query.Predicate) []spn.Range {
	inf := math.Inf(1)
	switch p.Op {
	case query.Eq:
		return []spn.Range{spn.PointRange(p.Value)}
	case query.Ne:
		return []spn.Range{
			{Lo: -inf, Hi: p.Value, LoIncl: true, HiIncl: false},
			{Lo: p.Value, Hi: inf, LoIncl: false, HiIncl: true},
		}
	case query.Lt:
		return []spn.Range{{Lo: -inf, Hi: p.Value, LoIncl: true, HiIncl: false}}
	case query.Le:
		return []spn.Range{{Lo: -inf, Hi: p.Value, LoIncl: true, HiIncl: true}}
	case query.Gt:
		return []spn.Range{{Lo: p.Value, Hi: inf, LoIncl: false, HiIncl: true}}
	case query.Ge:
		return []spn.Range{{Lo: p.Value, Hi: inf, LoIncl: true, HiIncl: true}}
	case query.In:
		out := make([]spn.Range, 0, len(p.Values))
		for _, v := range p.Values {
			out = append(out, spn.PointRange(v))
		}
		return out
	default:
		return nil
	}
}

// IntersectRanges intersects two unions of ranges, returning the (possibly
// empty) union of pairwise intersections.
//
//deepdb:nocancel range unions are predicate-sized (a handful per column), not data-sized
func IntersectRanges(a, b []spn.Range) []spn.Range {
	var out []spn.Range
	for _, ra := range a {
		for _, rb := range b {
			lo, loIncl := ra.Lo, ra.LoIncl
			if rb.Lo > lo || (rb.Lo == lo && !rb.LoIncl) {
				lo, loIncl = rb.Lo, rb.LoIncl
			}
			hi, hiIncl := ra.Hi, ra.HiIncl
			if rb.Hi < hi || (rb.Hi == hi && !rb.HiIncl) {
				hi, hiIncl = rb.Hi, rb.HiIncl
			}
			if lo > hi {
				continue
			}
			if lo == hi && !(loIncl && hiIncl) {
				continue
			}
			out = append(out, spn.Range{Lo: lo, Hi: hi, LoIncl: loIncl, HiIncl: hiIncl})
		}
	}
	return out
}

// InverseFactorColumns returns the tuple-factor columns 1/F' must range
// over for a query touching only queryTables (Theorem 1): the factors of
// every join edge whose Many side is not part of the query. Rows reached by
// joining those extra Many-side tables are duplicates of the query's result
// tuples and the inverse factors cancel them.
func (r *RSPN) InverseFactorColumns(queryTables []string) []string {
	inQuery := make(map[string]bool, len(queryTables))
	for _, t := range queryTables {
		inQuery[t] = true
	}
	var out []string
	for _, e := range r.Edges {
		if !inQuery[e.Many] {
			out = append(out, table.TupleFactorColumn(e))
		}
	}
	return out
}

// BeginBatch suspends the model's per-mutation evaluator refresh until
// EndBatch, so a batch of Update calls recompiles the flattened
// form once (spn.SPN.BeginBatch).
func (r *RSPN) BeginBatch() { r.Model.BeginBatch() }

// EndBatch closes a BeginBatch window and recompiles once.
func (r *RSPN) EndBatch() { r.Model.EndBatch() }

// Update absorbs one join row (indexed like the model's columns, NaN for
// NULL) with weight w: +1 for a row that joins the underlying join, -1 for
// one that leaves it. FullSize moves by w but never below 0; apply should
// be false when sampling skips the row (the size still changes).
func (r *RSPN) Update(row []float64, w float64, apply bool) error {
	r.FullSize = max(0, r.FullSize+w)
	if !apply {
		return nil
	}
	return r.Model.Update(row, w)
}

// BuildFD constructs the dictionary for a declared functional dependency
// from base-table data. It fails when the data violates the dependency.
func BuildFD(t *table.Table, fd schema.FunctionalDependency) (FD, error) {
	det := t.Column(fd.Determinant)
	dep := t.Column(fd.Dependent)
	if det == nil || dep == nil {
		return FD{}, fmt.Errorf("rspn: FD %s->%s names missing columns in %s",
			fd.Determinant, fd.Dependent, t.Meta.Name)
	}
	forward := make(map[float64]float64)
	inverse := make(map[float64][]float64)
	for i := 0; i < t.NumRows(); i++ {
		if det.IsNull(i) || dep.IsNull(i) {
			continue
		}
		a, b := det.Data[i], dep.Data[i]
		if prev, seen := forward[a]; seen {
			if prev != b {
				return FD{}, fmt.Errorf("rspn: FD %s->%s violated: %v maps to both %v and %v",
					fd.Determinant, fd.Dependent, a, prev, b)
			}
			continue
		}
		forward[a] = b
		inverse[b] = append(inverse[b], a)
	}
	return FD{
		Table:       t.Meta.Name,
		Determinant: fd.Determinant,
		Dependent:   fd.Dependent,
		Inverse:     inverse,
		Forward:     forward,
	}, nil
}
