// Package core is DeepDB's probabilistic query compilation engine
// (Section 4 of the paper). It translates COUNT, SUM and AVG queries with
// conjunctive predicates, FK equi-joins and GROUP BY into products of
// expectations and probabilities evaluated on an ensemble of RSPNs:
//
//   - Case 1: an RSPN exactly matches the query's tables — Theorem 1 with
//     an empty factor set.
//   - Case 2: an RSPN covers a superset of the tables — Theorem 1 with
//     1/F' tuple-factor normalization.
//   - Case 3: no single RSPN covers the query — Theorem 2 combines several
//     RSPNs across bridge FK edges, assuming conditional independence.
//
// The engine also derives variances for every estimate (Section 5.1) and
// turns them into confidence intervals.
//
// Queries run through an explicit compile/execute split: Compile resolves
// validation, RSPN selection and the full Section-4 decomposition into a
// Plan once per query shape — including, per compiled term, the ordinals
// of the bound query's predicate vector that term reads (see plan.go) —
// and executing the Plan binds values at those ordinals and evaluates in
// batches (plan_exec.go). The one-shot EstimateCardinality and Execute
// entry points below compile and execute in one call, so a cached plan and
// a one-shot query produce bit-identical estimates.
package core

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"

	"repro/internal/ensemble"
	"repro/internal/query"
	"repro/internal/rspn"
	"repro/internal/spn"
	"repro/internal/stats"
)

// Strategy selects how the engine picks RSPNs for a query.
type Strategy int

const (
	// StrategyRDCGreedy picks the RSPN handling the filter predicates with
	// the highest sum of pairwise RDC values (the paper's choice).
	StrategyRDCGreedy Strategy = iota
	// StrategyMedian enumerates all covering RSPNs and uses the median of
	// their predictions (the alternative the paper evaluated and
	// rejected); it falls back to greedy when fewer than two RSPNs cover
	// the query.
	StrategyMedian
)

// batchEvaluator is an optional dispatch hook for the batched executor:
// when set on an Engine, every chunk of SPN inference requests goes
// through it instead of straight to the RSPN's in-process model. Only
// this package's tests set it, to observe the chunks an execution
// evaluates (TestGroupByRequestCounts counts requests per RSPN).
// Implementations must fill out[i] with the answer to reqs[i] and must be
// bit-identical to r.EvaluateRequests. Calls arrive on the executing
// goroutine, one chunk at a time; executions running concurrently on one
// Engine call it concurrently.
type batchEvaluator interface {
	EvaluateRSPN(ctx context.Context, r *rspn.RSPN, reqs []spn.Request, out []float64) error
}

// Engine evaluates queries against an RSPN ensemble. The query path is
// read-only, so one Engine may serve concurrent queries from multiple
// goroutines — as long as nothing updates the ensemble under it. The
// deepdb facade guarantees that without a lock: every published snapshot
// owns an immutable ensemble and its own Engine, and updates apply to a
// copy-on-write clone that becomes the next snapshot.
type Engine struct {
	Ens      *ensemble.Ensemble
	Strategy Strategy
	// ConfidenceLevel for intervals, default 0.95. Overridable per
	// execution with ExecOpts.
	ConfidenceLevel float64
	// eval, when non-nil, routes every evaluation chunk through the hook
	// instead of the in-process model. nil keeps the direct path.
	eval batchEvaluator
}

// New returns an engine with the paper's defaults.
func New(ens *ensemble.Ensemble) *Engine {
	return &Engine{Ens: ens, Strategy: StrategyRDCGreedy, ConfidenceLevel: 0.95}
}

// Estimate is a point estimate with its variance (Section 5.1).
type Estimate struct {
	Value    float64
	Variance float64
}

// ConfidenceInterval returns the two-sided interval at the given level
// under the normality assumption of Section 5.1.
func (e Estimate) ConfidenceInterval(level float64) (lo, hi float64) {
	z := stats.ConfidenceZ(level)
	sd := math.Sqrt(math.Max(0, e.Variance))
	return e.Value - z*sd, e.Value + z*sd
}

// mulEstimate multiplies two independent estimates, propagating variance
// with V(XY) = V(X)V(Y) + V(X)E(Y)^2 + V(Y)E(X)^2.
func mulEstimate(a, b Estimate) Estimate {
	return Estimate{
		Value:    a.Value * b.Value,
		Variance: stats.ProductVariance(a.Value, a.Variance, b.Value, b.Variance),
	}
}

// divEstimate divides estimate a by an independent estimate b via the delta
// method.
func divEstimate(a, b Estimate) Estimate {
	if b.Value == 0 {
		return Estimate{}
	}
	v := a.Value / b.Value
	rel := 0.0
	if a.Value != 0 {
		rel += a.Variance / (a.Value * a.Value)
	}
	rel += b.Variance / (b.Value * b.Value)
	return Estimate{Value: v, Variance: v * v * rel}
}

// scaleEstimate multiplies an estimate by an exact constant.
func scaleEstimate(a Estimate, c float64) Estimate {
	return Estimate{Value: a.Value * c, Variance: a.Variance * c * c}
}

// EstimateCardinality estimates COUNT(*) over the query's join with its
// filters — the cardinality-estimation task of Section 6.1. Group-by and
// aggregate settings on q are ignored.
func (e *Engine) EstimateCardinality(q query.Query) (Estimate, error) {
	return e.EstimateCardinalityContext(context.Background(), q)
}

// EstimateCardinalityContext is EstimateCardinality with cancellation: the
// execution walk checks ctx before every sub-estimate. It compiles a plan
// and executes it once; hold on to Compile's plan to amortize that per
// query shape.
func (e *Engine) EstimateCardinalityContext(ctx context.Context, q query.Query) (Estimate, error) {
	p, err := e.Compile(q)
	if err != nil {
		return Estimate{}, err
	}
	return p.EstimateCardinalityQuery(ctx, q)
}

// validateQuery runs the schema-independent checks plus table resolution,
// so a typo'd table name fails with its name instead of a coverage error.
func (e *Engine) validateQuery(q query.Query) error {
	if err := q.Validate(); err != nil {
		return err
	}
	for _, t := range q.Tables {
		if e.Ens.Schema.Table(t) == nil {
			return fmt.Errorf("core: unknown table %s", t)
		}
	}
	_, err := e.Ens.Schema.JoinTree(q.Tables)
	return err
}

// effectiveOuter returns the outer tables that still behave as outer after
// SQL WHERE semantics: a predicate on an outer table's column eliminates
// its padded rows, so the table reverts to inner-join behaviour.
func (e *Engine) effectiveOuter(outerTables []string, preds []query.Predicate, ords []int) []string {
	var out []string
	for _, ot := range outerTables {
		filtered := false
		for _, o := range ords {
			if e.columnOwner(preds[o].Column, []string{ot}) != "" {
				filtered = true
				break
			}
		}
		if !filtered {
			out = append(out, ot)
		}
	}
	return out
}

// pickCovering implements the greedy execution strategy of Section 4.1:
// choose the RSPN that handles the filter predicates with the highest sum
// of pairwise RDC values; ties prefer smaller models.
func (e *Engine) pickCovering(covering []*rspn.RSPN, preds []query.Predicate, ords []int) *rspn.RSPN {
	best := covering[0]
	bestScore := math.Inf(-1)
	for _, r := range covering {
		score := e.filterScore(r, preds, ords)
		// Smaller models dilute single-table marginals less; subtract a
		// tiny penalty per extra table as the tie-breaker.
		score -= 1e-6 * float64(len(r.Tables))
		if score > bestScore {
			best, bestScore = r, score
		}
	}
	return best
}

// filterScore sums the pairwise attribute RDC values over the filter
// columns the RSPN can resolve.
func (e *Engine) filterScore(r *rspn.RSPN, preds []query.Predicate, ords []int) float64 {
	var buf [8]string // on the stack: a query rarely filters more columns
	cols := buf[:0]
	for _, o := range ords {
		if c := preds[o].Column; r.ResolvesColumn(c) {
			cols = append(cols, c)
		}
	}
	score := 0.001 * float64(len(cols)) // resolving more filters is better
	for i := 0; i < len(cols); i++ {
		for j := i + 1; j < len(cols); j++ {
			score += e.Ens.AttrRDC[ensemble.AttrKey(cols[i], cols[j])]
		}
	}
	return score
}

// momentVariance derives the estimator variance of one expectation from
// its already-evaluated parts, following Section 5.1: the expectation is
// split into P(C) * E(G | C); the probability part is binomial over the
// model's n training rows, the conditional part uses Koenig-Huygens with
// the squared term, and the two combine with the product-variance formula.
// full is E[term], p is the probability-only expectation (the term with
// its moment functions stripped), sq the squared-function expectation
// (ignored when hasFns is false). The batched executor (plan_exec.go)
// fetches the parts from one evaluation pass and calls this.
func momentVariance(n, p, full, sq float64, hasFns bool) float64 {
	if n <= 1 {
		return 0
	}
	varP := stats.BinomialVariance(p, int(n))
	if !hasFns {
		return varP
	}
	if p <= 0 {
		return 0
	}
	condMean := full / p
	condVar := sq/p - condMean*condMean
	if condVar < 0 {
		condVar = 0
	}
	nC := n * p
	varCond := condVar / math.Max(1, nC)
	return stats.ProductVariance(p, varP, condMean, varCond)
}

// squareFn maps each moment function to its square.
func squareFn(fn spn.Fn) spn.Fn {
	switch fn {
	case spn.FnIdent:
		return spn.FnSquare
	case spn.FnInv:
		return spn.FnInvSquare
	case spn.FnOne:
		return spn.FnOne
	default:
		// Squares of squares are not needed by any compilation.
		return fn
	}
}

// branchAllOuter reports whether every table of the branch is outer-joined.
func branchAllOuter(br branch, outer []string) bool {
	for _, t := range br.tables {
		if !slices.Contains(outer, t) {
			return false
		}
	}
	return len(br.tables) > 0
}

// branch is one connected component of the query tables left uncovered,
// attached to the covered set through a bridge FK edge.
type branch struct {
	tables []string
	// head is the branch table adjacent to the covered set.
	head string
	// headIsMany reports whether head is the Many side of the bridge edge
	// (then the covered side's tuple factor F_{s<-head} extends the count;
	// otherwise the FK points from the covered side to head and each
	// covered row has at most one partner).
	headIsMany bool
	// bridgeOne/bridgeMany name the edge for factor-column lookup.
	bridgeOne, bridgeMany string
}

func tableTupleFactor(br branch) string {
	return "__fk_" + br.bridgeOne + "<-" + br.bridgeMany
}

// branchComponents splits the tables outside the covered set (a bitmask
// over positions in tables) into connected components, each in
// breadth-first order from its first table, and finds each component's
// bridge to the covered set. Apart from the components themselves it
// allocates nothing.
func (e *Engine) branchComponents(tables []string, covered uint64) ([]branch, error) {
	var out []branch
	seen := covered
	for i, start := range tables {
		if seen&(1<<i) != 0 {
			continue
		}
		// BFS within the uncovered tables, sized for all of them.
		comp := make([]string, 1, len(tables)-bits.OnesCount64(seen))
		comp[0] = start
		seen |= 1 << i
		for j := 0; j < len(comp); j++ {
			for _, edge := range e.Ens.Schema.NeighborEdges(comp[j]) {
				nb := edge.Other(comp[j])
				if k := slices.Index(tables, nb); k >= 0 && seen&(1<<k) == 0 {
					seen |= 1 << k
					comp = append(comp, nb)
				}
			}
		}
		// Find the bridge edge to the covered set.
		var br *branch
		for _, t := range comp {
			for _, edge := range e.Ens.Schema.NeighborEdges(t) {
				if k := slices.Index(tables, edge.Other(t)); k >= 0 && covered&(1<<k) != 0 {
					br = &branch{tables: comp, head: t, headIsMany: edge.Many == t,
						bridgeOne: edge.One, bridgeMany: edge.Many}
					break
				}
			}
			if br != nil {
				break
			}
		}
		if br == nil {
			return nil, fmt.Errorf("core: tables %v not FK-adjacent to covered set %v", comp, sortedTables(tables, covered))
		}
		out = append(out, *br)
	}
	return out, nil
}

// pickPartial chooses the RSPN for Theorem 2's left side and the tables it
// answers there (connectedCovered's bitmask): highest filter score, with
// coverage count as the dominant term so the recursion shrinks. On a score
// tie the earlier ensemble member wins.
func (e *Engine) pickPartial(tables []string, preds []query.Predicate, ords []int) (*rspn.RSPN, uint64) {
	var best *rspn.RSPN
	var bestCov uint64
	bestScore := math.Inf(-1)
	for _, r := range e.Ens.RSPNs {
		cov := e.connectedCovered(tables, r)
		if cov == 0 {
			continue
		}
		score := float64(bits.OnesCount64(cov)) + e.filterScore(r, preds, ords)
		if score > bestScore {
			best, bestCov, bestScore = r, cov, score
		}
	}
	return best, bestCov
}

// connectedCovered returns the largest connected (in the FK graph) subset
// of the query tables that the RSPN covers, as a bitmask over positions in
// tables — which are distinct and at most 64, as query.Validate ensures.
// On a size tie between components the one seeded first in table order
// wins. It reads the schema's graph index and allocates nothing.
func (e *Engine) connectedCovered(tables []string, r *rspn.RSPN) uint64 {
	var covered uint64
	for i, t := range tables {
		if r.HasTable(t) {
			covered |= 1 << i
		}
	}
	var best, seen uint64
	for i := range tables {
		if covered&^seen&(1<<i) == 0 {
			continue
		}
		comp, frontier := uint64(1)<<i, uint64(1)<<i
		for frontier != 0 {
			j := bits.TrailingZeros64(frontier)
			frontier &^= 1 << j
			for _, edge := range e.Ens.Schema.NeighborEdges(tables[j]) {
				if k := slices.Index(tables, edge.Other(tables[j])); k >= 0 && covered&^comp&(1<<k) != 0 {
					comp |= 1 << k
					frontier |= 1 << k
				}
			}
		}
		seen |= comp
		if bits.OnesCount64(comp) > bits.OnesCount64(best) {
			best = comp
		}
	}
	return best
}

// sortedTables returns the tables whose positions are set in mask, sorted
// by name.
func sortedTables(tables []string, mask uint64) []string {
	out := make([]string, 0, bits.OnesCount64(mask))
	for i, t := range tables {
		if mask&(1<<i) != 0 {
			out = append(out, t)
		}
	}
	sort.Strings(out)
	return out
}

// columnOwner returns which of the tables owns the column ("" if none).
// Ownership resolves through the ensemble's persisted statistics only, so
// model-only serving classifies filters exactly like the data-attached
// path.
func (e *Engine) columnOwner(col string, tables []string) string {
	for _, tn := range tables {
		if e.Ens.TableHasColumn(tn, col) {
			return tn
		}
	}
	return ""
}

// intersect returns the elements of a that b holds, in a's order.
func intersect(a, b []string) []string {
	var out []string
	for _, x := range a {
		if slices.Contains(b, x) {
			out = append(out, x)
		}
	}
	return out
}

// subtract returns the elements of a that b does not hold, in a's order.
func subtract(a, b []string) []string {
	var out []string
	for _, x := range a {
		if !slices.Contains(b, x) {
			out = append(out, x)
		}
	}
	return out
}
