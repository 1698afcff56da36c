package spn

import (
	"fmt"
	"math"
	"sort"
)

// Request is a full inference request: the expectation of a product of
// per-column functions under the SPN's joint distribution,
//
//	E[ prod_i Fn_i(X_i) * 1(X_i in Ranges_i) ]
//
// Columns absent from the request are unconstrained (factor 1). This single
// primitive expresses every quantity DeepDB's query compiler needs:
// probabilities, filtered expectations, squared moments, and tuple-factor
// normalizations.
type Request struct {
	Cols []ColQuery
}

// Evaluate computes one request as a batch of one through the compiled
// kernel, Compiled.EvaluateBatch. Like EvaluateBatch it needs the derived
// state Refresh builds (learning, deserialization and Clone all do; a tree
// assembled by hand must be Refreshed first).
func (s *SPN) Evaluate(req Request) (float64, error) {
	var out [1]float64
	if err := s.flat.EvaluateBatch([]Request{req}, out[:]); err != nil {
		return 0, err
	}
	return out[0], nil
}

// evaluateTree is the reference implementation of Evaluate: a recursive
// walk over the learned tree, computing the request bottom-up — leaves
// return per-column moments, product nodes multiply independent factors,
// sum nodes mix children by weight. Nothing serves from it; it is the
// oracle the flat == tree suites hold every compiled kernel to, bit for
// bit.
//
//deepdb:testonly the tree-walk oracle the flat == tree suites compare the compiled evaluator against
func (s *SPN) evaluateTree(req Request) (float64, error) {
	byCol := make(map[int]ColQuery, len(req.Cols))
	for _, cq := range req.Cols {
		if cq.Col < 0 || cq.Col >= len(s.Columns) {
			return 0, fmt.Errorf("spn: column index %d out of range", cq.Col)
		}
		if _, dup := byCol[cq.Col]; dup {
			return 0, fmt.Errorf("spn: duplicate column %d in request", cq.Col)
		}
		byCol[cq.Col] = cq
	}
	v := evalNode(s.Root, byCol)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("spn: non-finite inference result")
	}
	return v, nil
}

func evalNode(n *Node, byCol map[int]ColQuery) float64 {
	switch n.Kind {
	case LeafKind:
		cq, ok := byCol[n.Leaf.Col]
		if !ok {
			return 1
		}
		return n.Leaf.Moment(cq)
	case ProductKind:
		acc := 1.0
		for _, c := range n.Children {
			if !scopeTouches(c.Scope, byCol) {
				continue
			}
			acc *= evalNode(c, byCol)
			if acc == 0 {
				return 0
			}
		}
		return acc
	case SumKind:
		total := n.childTotal()
		if total == 0 {
			return 0
		}
		acc := 0.0
		for i, c := range n.Children {
			w := n.ChildCounts[i] / total
			if w == 0 {
				continue
			}
			acc += w * evalNode(c, byCol)
		}
		return acc
	default:
		return 0
	}
}

func scopeTouches(scope []int, byCol map[int]ColQuery) bool {
	for _, s := range scope {
		if _, ok := byCol[s]; ok {
			return true
		}
	}
	return false
}

// MostProbableValue returns the candidate value of the target column with
// the highest joint probability given the evidence constraints. For
// discrete targets this is exact MPE over the target variable; DeepDB's
// classification task uses it (Section 4.3).
func (s *SPN) MostProbableValue(target int, candidates []float64, evidence []ColQuery) (float64, error) {
	if len(candidates) == 0 {
		return 0, fmt.Errorf("spn: no candidate values for column %d", target)
	}
	// Build the request once — evidence plus one target entry whose point
	// range is overwritten per candidate — instead of re-copying the
	// evidence slice for every candidate value.
	cols := make([]ColQuery, len(evidence)+1)
	for i, c := range evidence {
		c.Fn = FnOne
		cols[i] = c
	}
	targetRange := []Range{PointRange(candidates[0])}
	cols[len(cols)-1] = ColQuery{Col: target, Fn: FnOne, Ranges: targetRange}
	req := Request{Cols: cols}
	best, bestP := candidates[0], -1.0
	for _, cand := range candidates {
		targetRange[0] = PointRange(cand)
		p, err := s.Evaluate(req)
		if err != nil {
			return 0, err
		}
		if p > bestP {
			best, bestP = cand, p
		}
	}
	return best, nil
}

// LeafValues returns the union of distinct values stored in all leaves of
// the given column, in ascending order, used as MPE candidates for
// classification. The order matters: MPE argmax ties break toward the
// first candidate, so an unsorted union would make predictions vary
// run to run.
func (s *SPN) LeafValues(col int) []float64 {
	seen := map[float64]bool{}
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.Kind == LeafKind {
			if n.Leaf.Col == col {
				for _, v := range n.Leaf.DistinctValues() {
					seen[v] = true
				}
			}
			return
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(s.Root)
	out := make([]float64, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Float64s(out)
	return out
}
