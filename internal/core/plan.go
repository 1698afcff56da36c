package core

// plan.go implements the engine's compile/execute split. Compile resolves
// everything about a query that does not depend on literal values — SQL
// validation, effective outer tables, the compilation case of Section 4
// (exact RSPN, superset RSPN, median set, or the Theorem-2 branch
// decomposition with per-branch RSPN picks), moment-function maps, filter
// routing across branches, inclusion-exclusion masks, group-key
// enumeration and aggregate member selection — into a Plan. Execution is
// then a pure walk over the prebuilt structure with concrete predicate
// values bound in, so one Plan can serve any number of executions of the
// same query *shape* (a prepared statement with `?` parameters, or a plan
// cache keyed on query.ShapeKey).

import (
	"fmt"
	"sync"

	"repro/internal/query"
	"repro/internal/rspn"
	"repro/internal/spn"
)

// ExecOpts are per-execution options, applied at execution time rather
// than engine construction so one plan can serve callers with different
// needs.
type ExecOpts struct {
	// ConfidenceLevel overrides the engine's interval level for this
	// execution; 0 keeps the engine default.
	ConfidenceLevel float64
}

// Plan is a query compiled against the engine's ensemble. A Plan is
// immutable after Compile and safe for concurrent executions; it stays
// valid until the ensemble changes (an Insert/Delete can add group-by keys
// and shift statistics-based choices — recompile after updates, as the
// deepdb facade's generation-tagged plan cache does).
type Plan struct {
	eng     *Engine
	q       query.Query // validated template (may contain placeholders)
	shape   string
	nparams int

	// card estimates COUNT(*) over the join with the query's filters,
	// ignoring GROUP BY and the aggregate — the EstimateCardinality view
	// (and the executed estimator for ungrouped COUNT queries).
	card []signedCount

	// Grouped execution: per-group estimators are compiled from the group
	// template (the query with its group columns as extra equality
	// filters, values bound per key at execution). Group keys are the
	// cartesian product of groupVals (sorted distinct values per column),
	// enumerated lazily by index — numGroups may exceed what ExecuteBatch
	// accepts, and only the streaming iterator visits such plans' keys.
	groupCols []string
	groupVals [][]float64
	numGroups int
	count     []signedCount // per-group COUNT / existence gate / AVG divisor

	// Aggregate estimators (nil unless the aggregate needs them).
	sum []signedSum // SUM terms; also the numerator of disjunctive AVG
	avg *avgNode    // plain (non-disjunctive) AVG ratio

	// The Execute-side estimators (group template, aggregate members,
	// group-key enumeration) compile lazily on first use, guarded by
	// execOnce: EstimateCardinality ignores aggregate and GROUP BY
	// settings by contract and must neither pay for them nor fail on
	// them. execErr holds the (sticky) compilation outcome.
	execOnce sync.Once
	execErr  error
}

// signedCount is one inclusion-exclusion term of a COUNT, compiled to a
// countNode over the term's ordinals. Queries without a disjunction
// compile to a single term with sign +1.
type signedCount struct {
	sign float64
	node *countNode
}

// signedSum is one inclusion-exclusion term of a SUM: either a direct
// single-expectation evaluation on a covering RSPN, or the COUNT * AVG
// fallback of Section 4.2.
type signedSum struct {
	sign   float64
	direct *t1call
	cnt    *countNode
	avg    *avgNode
}

// countKind is the compilation case of a countNode.
type countKind int

const (
	// ckSingle: one covering RSPN answers the node (Cases 1 and 2).
	ckSingle countKind = iota
	// ckMedian: the median over all covering RSPNs (StrategyMedian).
	ckMedian
	// ckTheorem2: a multi-RSPN combination across bridge FK edges.
	ckTheorem2
)

// countNode is a compiled COUNT estimator over one table set.
type countNode struct {
	tables []string
	kind   countKind

	single t1call   // ckSingle
	median []t1call // ckMedian

	// ckTheorem2: the left sub-join evaluation plus one sub-plan per
	// uncovered branch (fully-outer branches are folded into the left
	// side's max(F,1) factor and have no sub-plan).
	left       t1call
	leftTables []string
	branches   []branchPlan
}

// branchPlan is one Theorem-2 branch: its compiled sub-estimator and the
// cardinality of its bridgehead table, the denominator of the branch
// ratio. A plan pins one immutable snapshot, so the maintained statistic
// read at compile time holds for the plan's whole life.
type branchPlan struct {
	br       branch
	headRows float64
	node     *countNode
}

// t1call is one compiled Theorem-1 evaluation: the RSPN, the term's
// constraint template (moment functions — inverse tuple factors plus any
// Theorem-2 bridge factors —, inner-join indicators and filter slots) and
// the ordinals of the binding's predicate vector that fill the template's
// filter slots. A term whose template cannot compile (a filter the RSPN
// cannot resolve) keeps the error and reports it when enqueued.
type t1call struct {
	r      *rspn.RSPN
	tmpl   *rspn.TermTemplate
	ords   []int
	hasFns bool
	err    error
}

// avgNode is a compiled AVG: the chosen RSPN, the templates of the
// numerator and denominator of the normalized conditional expectation of
// Section 4.2, and the ordinals of the predicates the RSPN resolves. The
// numerator always carries the aggregate column's moment function; the
// denominator has moment functions only under tuple-factor normalization.
type avgNode struct {
	r         *rspn.RSPN
	num, den  *rspn.TermTemplate
	ords      []int
	denHasFns bool
	err       error
}

// binding returns the flat predicate vector of one bound query — its
// filters, the group key as equality predicates, its disjuncts — the one
// layout every compiled term's ordinals index. Compilation runs against
// the same vector of the template, where only the columns matter.
func binding(q query.Query, groupCols []string, key []float64) []query.Predicate {
	if len(groupCols) == 0 && len(q.Disjunction) == 0 {
		return q.Filters
	}
	out := make([]query.Predicate, 0, len(q.Filters)+len(groupCols)+len(q.Disjunction))
	out = append(out, q.Filters...)
	for i, c := range groupCols {
		out = append(out, query.Predicate{Column: c, Op: query.Eq, Value: key[i]})
	}
	return append(out, q.Disjunction...)
}

// Compile validates the query and builds its execution plan. Literal
// values (and `?` parameter markers) play no role in compilation, so the
// plan serves every query sharing the template's shape.
func (e *Engine) Compile(q query.Query) (*Plan, error) {
	if err := e.validateQuery(q); err != nil {
		return nil, err
	}
	p := &Plan{eng: e, q: q, shape: q.ShapeKey(), nparams: q.NumParams()}
	var err error
	p.card, err = e.compileCountTerms(q, binding(q, nil, nil))
	if err != nil {
		return nil, err
	}
	return p, nil
}

// ensureExec compiles the Execute-side estimators on first use (safe
// under concurrent executions); the outcome is sticky for the plan's
// lifetime.
func (p *Plan) ensureExec() error {
	p.execOnce.Do(func() { p.execErr = p.compileExec(p.q) })
	return p.execErr
}

// ExecErr forces the Execute-side compilation and reports its error, so
// callers like Prepare can surface execution-compilation failures eagerly
// without running the query.
func (p *Plan) ExecErr() error { return p.ensureExec() }

// compileExec builds the Execute-side estimators (per-group gate and
// aggregate members) against the grouped binding's vector, the group
// keys being placeholders. Its error fails Execute but not
// EstimateCardinality, preserving the contract that cardinality
// estimation ignores aggregate and GROUP BY settings.
func (p *Plan) compileExec(q query.Query) error {
	e := p.eng
	preds := binding(q, q.GroupBy, make([]float64, len(q.GroupBy)))
	var err error
	if len(q.GroupBy) > 0 {
		p.groupCols = q.GroupBy
		p.groupVals, err = e.groupColValues(q)
		if err != nil {
			return err
		}
		p.numGroups, err = groupKeyCount(p.groupVals)
		if err != nil {
			return err
		}
		p.count, err = e.compileCountTerms(q, preds)
		if err != nil {
			return err
		}
	}
	switch q.Aggregate {
	case query.Count:
		// The count terms above (or card, when ungrouped) are the answer.
	case query.Sum:
		p.sum, err = e.compileSumTerms(q, preds)
	case query.Avg:
		if len(q.Disjunction) > 0 {
			// AVG over a disjunction is SUM / COUNT over the same terms.
			p.sum, err = e.compileSumTerms(q, preds)
		} else {
			ords, _ := signedTerm(len(preds), 0, 0) // the one term: every predicate
			p.avg, err = e.compileAvg(q, preds, ords)
		}
	default:
		err = fmt.Errorf("core: unsupported aggregate %v", q.Aggregate)
	}
	return err
}

// compileCountTerms expands the query's disjunction (if any) with the
// inclusion-exclusion principle and compiles each signed conjunctive term
// over its ordinals into preds. Outer-table semantics are resolved per
// term: a disjunct on an outer table's column reverts that table to
// inner-join behaviour within its terms only.
func (e *Engine) compileCountTerms(q query.Query, preds []query.Predicate) ([]signedCount, error) {
	n, err := signedTerms(q)
	if err != nil {
		return nil, err
	}
	out := make([]signedCount, n)
	for i := range out {
		ords, sign := signedTerm(len(preds), len(q.Disjunction), i)
		node, err := e.compileCount(q.Tables, preds, ords, e.effectiveOuter(q.OuterTables, preds, ords))
		if err != nil {
			return nil, err
		}
		out[i] = signedCount{sign: sign, node: node}
	}
	return out, nil
}

// compileCount dispatches between the single-RSPN cases and Theorem 2.
// ords are the ordinals of the template predicates visible at this node;
// only their columns matter.
func (e *Engine) compileCount(tables []string, preds []query.Predicate, ords []int, outer []string) (*countNode, error) {
	covering := e.Ens.Covering(tables)
	if len(covering) > 0 {
		if e.Strategy == StrategyMedian && len(covering) > 1 {
			calls := make([]t1call, len(covering))
			for i, r := range covering {
				calls[i] = e.compileT1(r, tables, outer, nil, preds, ords)
			}
			return &countNode{tables: tables, kind: ckMedian, median: calls}, nil
		}
		r := e.pickCovering(covering, preds, ords)
		return &countNode{tables: tables, kind: ckSingle,
			single: e.compileT1(r, tables, outer, nil, preds, ords)}, nil
	}
	return e.compileTheorem2(tables, preds, ords, outer)
}

// compileTheorem2 compiles the multi-RSPN combination of Case 3: the
// best-scoring RSPN answers the largest connected sub-query it covers,
// extended across each bridge FK edge; every remaining branch becomes a
// compiled sub-plan whose ratio divides by its bridgehead's cardinality.
// Each side is compiled against the ordinals of the filter columns its
// tables own.
func (e *Engine) compileTheorem2(tables []string, preds []query.Predicate, ords []int, outer []string) (*countNode, error) {
	r := e.pickPartial(tables, preds, ords)
	if r == nil {
		return nil, fmt.Errorf("core: no RSPN covers any of tables %v", tables)
	}
	sl := e.connectedCovered(tables, r)
	if len(sl) == 0 {
		return nil, fmt.Errorf("core: internal: empty coverage for %v", tables)
	}
	rest := subtract(tables, sl)
	branches, err := e.branchComponents(rest, sl)
	if err != nil {
		return nil, err
	}
	// Bridge factors multiply into the left expectation when the branch
	// head is on the Many side of its bridge edge. A fully-outer branch
	// (all its tables outer-joined, hence unfiltered after WHERE
	// normalization) multiplies by max(F, 1): rows without partners still
	// appear once.
	outerSet := toSet(outer)
	extraFns := map[string]spn.Fn{}
	for _, br := range branches {
		if !br.headIsMany {
			continue
		}
		col := tableTupleFactor(br)
		if !r.HasColumn(col) {
			return nil, fmt.Errorf("core: RSPN %v lacks bridge factor column %s", r.Tables, col)
		}
		if branchAllOuter(br, outerSet) {
			extraFns[col] = spn.FnMax1
		} else {
			extraFns[col] = spn.FnIdent
		}
	}
	node := &countNode{tables: tables, kind: ckTheorem2, leftTables: sl,
		left: e.compileT1(r, sl, intersect(outer, sl), extraFns, preds, e.keepColumns(sl, preds, ords))}
	// Non-outer branches contribute selectivity ratios; unfiltered outer
	// branches are fully handled by the max(F,1) factor above.
	for _, br := range branches {
		if branchAllOuter(br, outerSet) {
			continue
		}
		rows, ok := e.Ens.TableRows(br.head)
		if !ok {
			return nil, fmt.Errorf("core: no cardinality statistic or base table for %s (Theorem 2 needs its size)", br.head)
		}
		sub, err := e.compileCount(br.tables, preds, e.keepColumns(br.tables, preds, ords), intersect(outer, br.tables))
		if err != nil {
			return nil, err
		}
		node.branches = append(node.branches, branchPlan{br: br, headRows: rows, node: sub})
	}
	return node, nil
}

// compileT1 precomputes one Theorem-1 evaluation on an RSPN: the term's
// constraint template over the predicates at ords.
func (e *Engine) compileT1(r *rspn.RSPN, tables, outer []string, extraFns map[string]spn.Fn, preds []query.Predicate, ords []int) t1call {
	fns := map[string]spn.Fn{}
	for _, c := range r.InverseFactorColumns(tables) {
		fns[c] = spn.FnInv
	}
	//deepdb:orderinvariant map-to-map copy; the result is independent of visit order
	for c, fn := range extraFns {
		fns[c] = fn
	}
	// Outer tables keep padded rows: their indicator constraint is
	// dropped, so a row missing the outer side still counts once.
	inner := intersect(subtract(tables, outer), r.Tables)
	call := t1call{r: r, ords: ords, hasFns: len(fns) > 0}
	call.tmpl, call.err = r.CompileTerm(rspn.Term{Fns: fns, Filters: selectPreds(preds, ords), InnerTables: inner})
	return call
}

// compileSumTerms compiles the signed SUM terms of the (possibly
// disjunctive) query.
func (e *Engine) compileSumTerms(q query.Query, preds []query.Predicate) ([]signedSum, error) {
	n, err := signedTerms(q)
	if err != nil {
		return nil, err
	}
	out := make([]signedSum, n)
	for i := range out {
		ords, sign := signedTerm(len(preds), len(q.Disjunction), i)
		out[i], err = e.compileSum(q, preds, ords)
		if err != nil {
			return nil, err
		}
		out[i].sign = sign
	}
	return out, nil
}

// compileSum compiles one conjunctive SUM. With a covering RSPN that owns
// the aggregate column and resolves every filter, the sum is a single
// expectation |J| * E(A/F' * 1_C * N); otherwise it is COUNT * AVG as in
// Section 4.2.
func (e *Engine) compileSum(q query.Query, preds []query.Predicate, ords []int) (signedSum, error) {
	outer := e.effectiveOuter(q.OuterTables, preds, ords)
	for _, r := range e.Ens.Covering(q.Tables) {
		// A member that cannot resolve all filters is skipped; try another.
		if r.HasColumn(q.AggColumn) && countResolved(r, preds, ords) == len(ords) {
			call := e.compileT1(r, q.Tables, outer, map[string]spn.Fn{q.AggColumn: spn.FnIdent}, preds, ords)
			return signedSum{direct: &call}, nil
		}
	}
	// COUNT * AVG fallback. The count must range over rows with a non-NULL
	// aggregate column to match SQL SUM semantics; the AVG denominator
	// already does, so the product is consistent up to NULL skew.
	cnt, err := e.compileCount(q.Tables, preds, ords, outer)
	if err != nil {
		return signedSum{}, err
	}
	av, err := e.compileAvg(q, preds, ords)
	if err != nil {
		return signedSum{}, err
	}
	return signedSum{cnt: cnt, avg: av}, nil
}

// compileAvg compiles an AVG as the ratio of expectations of Section 4.2,
// restricted to the filters the chosen RSPN can resolve (the paper drops
// the rest, accepting an approximation).
func (e *Engine) compileAvg(q query.Query, preds []query.Predicate, ords []int) (*avgNode, error) {
	r, err := e.pickForAggregate(q, preds, ords)
	if err != nil {
		return nil, err
	}
	kept := make([]int, 0, len(ords))
	for _, o := range ords {
		if r.ResolvesColumn(preds[o].Column) {
			kept = append(kept, o)
		}
	}
	inner := intersect(subtract(q.Tables, e.effectiveOuter(q.OuterTables, preds, ords)), r.Tables)
	numFns := map[string]spn.Fn{q.AggColumn: spn.FnIdent}
	denFns := map[string]spn.Fn{}
	for _, c := range r.InverseFactorColumns(q.Tables) {
		numFns[c] = spn.FnInv
		denFns[c] = spn.FnInv
	}
	a := &avgNode{r: r, ords: kept, denHasFns: len(denFns) > 0}
	filters := selectPreds(preds, kept)
	a.num, a.err = r.CompileTerm(rspn.Term{Fns: numFns, Filters: filters, InnerTables: inner})
	if a.err == nil {
		a.den, a.err = r.CompileTerm(rspn.Term{Fns: denFns, Filters: filters, InnerTables: inner, NotNull: []string{q.AggColumn}})
	}
	return a, nil
}

// keepColumns returns those of ords whose filter column one of the tables
// owns — the routing rule of a Theorem-2 side.
func (e *Engine) keepColumns(tables []string, preds []query.Predicate, ords []int) []int {
	out := make([]int, 0, len(ords))
	for _, o := range ords {
		if e.columnOwner(preds[o].Column, tables) != "" {
			out = append(out, o)
		}
	}
	return out
}

// selectPreds returns the template predicates at ords, in order — what a
// term's constraint template is compiled from. Ordinals ascend, so a full
// selection is the vector itself.
func selectPreds(preds []query.Predicate, ords []int) []query.Predicate {
	if len(ords) == len(preds) {
		return preds
	}
	out := make([]query.Predicate, len(ords))
	for i, o := range ords {
		out[i] = preds[o]
	}
	return out
}

// RSPNs returns every ensemble member the plan's estimators can touch, in
// first-use order — the routing metadata a sharded serving tier needs to
// know which shards a query fans out to. The walk covers the cardinality
// terms plus, when the Execute side compiles cleanly, the group gates and
// aggregate members; a plan whose Execute side cannot compile still
// reports its cardinality members (estimate-only serving stays routable).
func (p *Plan) RSPNs() []*rspn.RSPN {
	var out []*rspn.RSPN
	seen := map[*rspn.RSPN]bool{}
	add := func(r *rspn.RSPN) {
		if r != nil && !seen[r] {
			seen[r] = true
			out = append(out, r)
		}
	}
	var walkCount func(n *countNode)
	walkCount = func(n *countNode) {
		if n == nil {
			return
		}
		switch n.kind {
		case ckSingle:
			add(n.single.r)
		case ckMedian:
			for _, c := range n.median {
				add(c.r)
			}
		default: // ckTheorem2
			add(n.left.r)
			for _, br := range n.branches {
				walkCount(br.node)
			}
		}
	}
	for _, t := range p.card {
		walkCount(t.node)
	}
	if p.ensureExec() == nil {
		for _, t := range p.count {
			walkCount(t.node)
		}
		for _, s := range p.sum {
			if s.direct != nil {
				add(s.direct.r)
			}
			walkCount(s.cnt)
			if s.avg != nil {
				add(s.avg.r)
			}
		}
		if p.avg != nil {
			add(p.avg.r)
		}
	}
	return out
}

// ---- execution entry points ----
//
// Execution itself — the batched gather/evaluate/resolve walk — lives in
// plan_exec.go.

// checkBound verifies the concrete query is parameter-free and matches the
// plan's shape.
func (p *Plan) checkBound(q query.Query) error {
	if n := q.NumParams(); n > 0 {
		return fmt.Errorf("core: query has %d unbound parameters (bind values before executing, or use the params form)", n)
	}
	if !query.SameShape(p.q, q) {
		return fmt.Errorf("core: query shape does not match the compiled plan (plan %s)", p.shape)
	}
	return nil
}

// level resolves the effective confidence level for one execution.
func (p *Plan) level(opts ExecOpts) float64 {
	level := opts.ConfidenceLevel
	if level <= 0 || level >= 1 {
		level = p.eng.ConfidenceLevel
	}
	if level <= 0 || level >= 1 {
		level = 0.95
	}
	return level
}

// finish attaches the confidence interval at the given level.
func finish(key []float64, est Estimate, level float64) AQPGroup {
	lo, hi := est.ConfidenceInterval(level)
	return AQPGroup{Key: key, Estimate: est, CILow: lo, CIHigh: hi}
}
