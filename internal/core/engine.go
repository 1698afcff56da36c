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

// BatchEvaluator is an optional dispatch hook for the batched executor:
// when set on an Engine, every chunk of SPN inference requests goes
// through it instead of straight to the RSPN's in-process model. The
// sharded serving tier uses this to offload evaluation to shard replica
// processes. Implementations must fill out[i] with the answer to reqs[i]
// and must be bit-identical to r.EvaluateRequests — the usual way to
// guarantee that is to proxy to a replica holding the same model and fall
// back to the local model on any failure. Calls may arrive concurrently
// (one per evaluation chunk, up to Engine.Parallelism at a time).
type BatchEvaluator interface {
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
	// Parallelism bounds the workers of one evaluation round. An execution
	// gathers every SPN request it needs — all bindings, group keys,
	// Theorem-2 sides and inclusion-exclusion terms alike — into per-RSPN
	// batches, splits them into about Parallelism chunks and evaluates the
	// chunks concurrently (batcher.run); nothing fans out per sub-estimate.
	// Values <= 1 evaluate the chunks sequentially.
	Parallelism int
	// Eval, when non-nil, routes every evaluation chunk through the hook
	// instead of the in-process model. nil keeps the direct path.
	Eval BatchEvaluator
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
	var cols []string
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
func branchAllOuter(br branch, outer map[string]bool) bool {
	for _, t := range br.tables {
		if !outer[t] {
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

// branchComponents splits the uncovered tables into connected components
// and finds each component's bridge to the covered set.
func (e *Engine) branchComponents(rest, covered []string) ([]branch, error) {
	if len(rest) == 0 {
		return nil, nil
	}
	inRest := toSet(rest)
	inCovered := toSet(covered)
	seen := map[string]bool{}
	var out []branch
	for _, start := range rest {
		if seen[start] {
			continue
		}
		// BFS within rest.
		comp := []string{start}
		seen[start] = true
		for i := 0; i < len(comp); i++ {
			for _, edge := range e.Ens.Schema.NeighborEdges(comp[i]) {
				var nb string
				if edge.Many == comp[i] {
					nb = edge.One
				} else {
					nb = edge.Many
				}
				if inRest[nb] && !seen[nb] {
					seen[nb] = true
					comp = append(comp, nb)
				}
			}
		}
		// Find the bridge edge to the covered set.
		var br *branch
		for _, t := range comp {
			for _, edge := range e.Ens.Schema.NeighborEdges(t) {
				var other string
				headIsMany := false
				if edge.Many == t {
					other = edge.One
					headIsMany = true
				} else {
					other = edge.Many
				}
				if inCovered[other] {
					br = &branch{tables: comp, head: t, headIsMany: headIsMany,
						bridgeOne: edge.One, bridgeMany: edge.Many}
					break
				}
			}
			if br != nil {
				break
			}
		}
		if br == nil {
			return nil, fmt.Errorf("core: tables %v not FK-adjacent to covered set %v", comp, covered)
		}
		out = append(out, *br)
	}
	return out, nil
}

// pickPartial chooses the RSPN for Theorem 2's left side: highest filter
// score, with coverage count as the dominant term so the recursion shrinks.
func (e *Engine) pickPartial(tables []string, preds []query.Predicate, ords []int) *rspn.RSPN {
	var best *rspn.RSPN
	bestScore := math.Inf(-1)
	for _, r := range e.Ens.RSPNs {
		cov := len(e.connectedCovered(tables, r))
		if cov == 0 {
			continue
		}
		score := float64(cov) + e.filterScore(r, preds, ords)
		if score > bestScore {
			best, bestScore = r, score
		}
	}
	return best
}

// connectedCovered returns the largest connected (in the FK graph) subset
// of the query tables that the RSPN covers.
func (e *Engine) connectedCovered(tables []string, r *rspn.RSPN) []string {
	covered := map[string]bool{}
	for _, t := range tables {
		if r.HasTable(t) {
			covered[t] = true
		}
	}
	if len(covered) == 0 {
		return nil
	}
	var bestComp []string
	seen := map[string]bool{}
	// Seed components from the caller's table order, not map order: on a
	// size tie between components, the first seeded wins.
	for _, t := range tables {
		if !covered[t] || seen[t] {
			continue
		}
		comp := []string{t}
		seen[t] = true
		for i := 0; i < len(comp); i++ {
			for _, edge := range e.Ens.Schema.NeighborEdges(comp[i]) {
				var nb string
				if edge.Many == comp[i] {
					nb = edge.One
				} else {
					nb = edge.Many
				}
				if covered[nb] && !seen[nb] {
					seen[nb] = true
					comp = append(comp, nb)
				}
			}
		}
		if len(comp) > len(bestComp) {
			bestComp = comp
		}
	}
	sort.Strings(bestComp)
	return bestComp
}

// columnOwner returns which of the tables owns the column ("" if none).
// Ownership resolves through the ensemble's persisted statistics (falling
// back to live tables, then schema metadata), so model-only serving
// classifies filters exactly like the data-attached path.
func (e *Engine) columnOwner(col string, tables []string) string {
	for _, tn := range tables {
		if e.Ens.TableHasColumn(tn, col) {
			return tn
		}
	}
	return ""
}

func intersect(a, b []string) []string {
	set := toSet(b)
	var out []string
	for _, x := range a {
		if set[x] {
			out = append(out, x)
		}
	}
	return out
}

func subtract(a, b []string) []string {
	set := toSet(b)
	var out []string
	for _, x := range a {
		if !set[x] {
			out = append(out, x)
		}
	}
	return out
}

func toSet(xs []string) map[string]bool {
	m := make(map[string]bool, len(xs))
	for _, x := range xs {
		m[x] = true
	}
	return m
}
