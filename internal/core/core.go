package core

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"sort"

	"repro/internal/query"
	"repro/internal/rspn"
	"repro/internal/spn"
)

// AQPGroup is one approximate result row: a group key (empty for ungrouped
// queries), the estimate, and its confidence interval.
type AQPGroup struct {
	Key      []float64
	Estimate Estimate
	// CILow and CIHigh bound the estimate at the execution's confidence
	// level (Section 5.1).
	CILow, CIHigh float64
}

// AQPResult is the approximate answer to a query.
type AQPResult struct {
	Groups []AQPGroup
}

// ToResult converts to the plain query.Result shape for error metrics.
func (r AQPResult) ToResult() query.Result {
	out := query.Result{}
	for _, g := range r.Groups {
		out.Groups = append(out.Groups, query.Group{Key: g.Key, Value: g.Estimate.Value})
	}
	return out
}

// Execute answers an aggregate query approximately (the AQP task of
// Section 6.2). Group-by queries are expanded into one estimate per group,
// where the groups are enumerated from the models' leaves — no data access
// happens at query time.
func (e *Engine) Execute(q query.Query) (AQPResult, error) {
	return e.ExecuteContext(context.Background(), q)
}

// ExecuteContext is Execute with cancellation, checked between
// evaluation chunks. The execution runs on the caller's goroutine; the
// query path is read-only, so concurrent callers may share the Engine.
// It compiles a plan and executes it once; hold on to Compile's plan to
// amortize compilation per query shape.
func (e *Engine) ExecuteContext(ctx context.Context, q query.Query) (AQPResult, error) {
	p, err := e.Compile(q)
	if err != nil {
		return AQPResult{}, err
	}
	return p.ExecuteQuery(ctx, ExecOpts{}, q)
}

// maxMaterializedGroups bounds the group count ExecuteBatch accepts per
// bound query (its pruned key space): it returns every row at once, so the
// bound is what keeps one request from holding an arbitrarily large
// result. The streaming iterator
// (ExecuteGroupsIter) has no such bound: it holds one chunk at a time.
const maxMaterializedGroups = 100000

// maxEnumerableGroups is the sanity bound on the group-by cartesian
// product itself — beyond it even lazy enumeration is useless, and the
// product risks integer overflow.
const maxEnumerableGroups = 1 << 40

// groupColValues returns, per group-by column, the sorted distinct values
// as stored in the models' leaves — the per-axis factors of the group-key
// cartesian product.
func (e *Engine) groupColValues(q query.Query) ([][]float64, error) {
	perCol := make([][]float64, len(q.GroupBy))
	for i, col := range q.GroupBy {
		vals, err := e.columnValues(col)
		if err != nil {
			return nil, err
		}
		if len(vals) == 0 {
			return nil, fmt.Errorf("core: no model values for group-by column %s", col)
		}
		sort.Float64s(vals)
		perCol[i] = vals
	}
	return perCol, nil
}

// groupKeyCount returns the size of the cartesian product.
func groupKeyCount(perCol [][]float64) (int, error) {
	total := 1
	for _, vals := range perCol {
		total *= len(vals)
		if total > maxEnumerableGroups {
			return 0, fmt.Errorf("core: group-by produces more than %d groups", maxEnumerableGroups)
		}
	}
	return total, nil
}

// keySpace is one bound query's candidate group keys: per group column
// the sorted candidate values, and the size of their cartesian product.
type keySpace struct {
	vals [][]float64
	n    int
}

// keySpace returns the bound query's own candidate keys: per group
// column, the plan's candidates that every conjunctive filter on that
// column admits. A candidate is dropped only when its point range and the
// filter's ranges intersect to nothing — the intersection BindIndexed
// performs before it binds the impossible range, so a dropped key's COUNT
// gate is exactly 0 and the key could never pass it. Disjuncts never
// prune: another disjunct may still admit the key. Dropping keeps the
// candidates' order, so the surviving keys run in the same lexicographic
// order. A query with no conjunct on a group column shares the plan's
// slices.
func (p *Plan) keySpace(q query.Query) keySpace {
	ks := keySpace{vals: p.groupVals, n: p.numGroups}
	pruned := false
	for ci, col := range p.groupCols {
		for _, f := range q.Filters {
			if f.Column != col {
				continue
			}
			if !pruned {
				ks.vals, pruned = append([][]float64(nil), p.groupVals...), true
			}
			ranges := rspn.PredicateRanges(f)
			kept := make([]float64, 0, len(ks.vals[ci]))
			for _, v := range ks.vals[ci] {
				if len(rspn.IntersectRanges([]spn.Range{spn.PointRange(v)}, ranges)) > 0 {
					kept = append(kept, v)
				}
			}
			ks.vals[ci] = kept
		}
	}
	if pruned {
		ks.n = 1
		for _, vals := range ks.vals {
			ks.n *= len(vals)
		}
	}
	return ks
}

// chunkLen is how many of the key space's ordinals fall in [lo, hi).
func chunkLen(ks keySpace, lo, hi int) int { return max(0, min(hi, ks.n)-lo) }

// groupKeyAt decodes key number ki of the cartesian product in
// lexicographic order (the last column varies fastest), appending into
// buf.
func groupKeyAt(perCol [][]float64, ki int, buf []float64) []float64 {
	n := len(perCol)
	if cap(buf) < n {
		buf = make([]float64, n)
	}
	buf = buf[:n]
	for c := n - 1; c >= 0; c-- {
		vals := perCol[c]
		buf[c] = vals[ki%len(vals)]
		ki /= len(vals)
	}
	return buf
}

// columnValues returns the distinct values of a column from the first model
// that learned it.
func (e *Engine) columnValues(col string) ([]float64, error) {
	for _, r := range e.Ens.RSPNs {
		if idx := r.Model.ColumnIndex(col); idx >= 0 {
			return r.Model.LeafValues(idx), nil
		}
		// FD-dependent column: enumerate the dictionary's dependent values.
		for _, fd := range r.FDs {
			if fd.Dependent == col {
				var out []float64
				for v := range fd.Inverse {
					out = append(out, v)
				}
				sort.Float64s(out)
				return out, nil
			}
		}
	}
	return nil, fmt.Errorf("core: column %s not in any model", col)
}

// pickForAggregate chooses the RSPN for an AVG/SUM: it must resolve the
// aggregate column; among those, prefer the one with the strongest RDC
// coupling between the aggregate column and the resolvable filters
// (Section 4.2), falling back to overall filter coverage.
func (e *Engine) pickForAggregate(q query.Query, preds []query.Predicate, ords []int) (*rspn.RSPN, error) {
	var best *rspn.RSPN
	bestScore := math.Inf(-1)
	for _, r := range e.Ens.RSPNs {
		if !r.HasColumn(q.AggColumn) {
			continue
		}
		overlap := bits.OnesCount64(e.connectedCovered(q.Tables, r))
		if overlap == 0 {
			continue
		}
		score := float64(overlap)
		for _, o := range ords {
			if c := preds[o].Column; r.ResolvesColumn(c) {
				score += e.Ens.AttrRDC[attrKey(q.AggColumn, c)] + 0.01
			}
		}
		if score > bestScore {
			best, bestScore = r, score
		}
	}
	if best == nil {
		return nil, fmt.Errorf("core: no RSPN resolves aggregate column %s", q.AggColumn)
	}
	return best, nil
}

func attrKey(a, b string) string {
	if a > b {
		a, b = b, a
	}
	return a + "|" + b
}
