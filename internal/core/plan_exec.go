package core

// plan_exec.go executes compiled plans through a batched evaluator.
// Execution has three phases:
//
//  1. gather: build each binding's predicate vector once (binding, in
//     plan.go) and hand that same vector to every node of the compiled
//     structure — each inclusion-exclusion term, each Theorem-2 side at any
//     depth, each AVG — where a term binds its template to the values at
//     its compile-time ordinals; the resulting SPN inference requests
//     (with their variance parts) are collected per RSPN — in a grouped
//     execution once per distinct value of the group columns a call or
//     count sub-tree reads (keyMemo), not once per key;
//  2. evaluate: answer each RSPN's requests in chunks over its flattened
//     model arrays (spn.Compiled), on the caller's goroutine;
//  3. resolve: combine the evaluated expectations into estimates in a
//     fixed combination order, so batched and one-at-a-time execution
//     produce bit-identical results.
//
// Nothing here decides which predicate reaches which model: no filtering,
// masking or re-building of predicate lists happens per binding.

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/query"
	"repro/internal/rspn"
	"repro/internal/spn"
)

// estimator resolves one enqueued estimate after the batch has run.
type estimator func() (Estimate, error)

// batchGroup is the request batch of one RSPN.
type batchGroup struct {
	r    *rspn.RSPN
	reqs []spn.Request
	vals []float64
}

// valRef locates one enqueued request's evaluated value.
type valRef struct {
	g   *batchGroup
	idx int
}

func (v valRef) value() float64 { return v.g.vals[v.idx] }

// batcher collects every inference request one round needs, grouped per
// RSPN and in deterministic order. A plan touches a handful of RSPNs, so a
// linear scan beats a map.
type batcher struct {
	order []*batchGroup
	// hint presizes each group's request slice (an execution knows
	// roughly how many bindings it will enqueue).
	hint int
	// memo is the grouped execution's key memo; nil on every ungrouped
	// path.
	memo *keyMemo
	// gate marks a grouped gate round, which binds point values only: a
	// term defers its variance parts until a surviving key reads it.
	gate bool
}

func newBatcher(hint int) *batcher { return &batcher{hint: hint} }

// keyMemo is what one grouped execution — an ExecuteBatch or a GroupIter —
// carries across its key chunks and rounds. Within one query only the
// group-key block of the binding vector changes from key to key, so two
// keys that agree on the group columns a call or count sub-tree reads
// (keyReads) bind it to identical requests: the first such key enqueues
// it, and every later one reuses its estimator. How long an entry lives
// follows from how many group columns it reads:
//
//   - at most one: the whole execution. Such a call has at most as many
//     projections as that column has candidates, so a streamed execution
//     stays O(chunk + candidates);
//   - two or more, but not all: one key chunk (chunk, cleared by
//     endChunk);
//   - all of them: none, since no two keys of a query share it.
//
// Entries are per query, so the bindings of an ExecuteBatch never share.
// An entry outlives the round that enqueued it, so its terms copy their
// values out once the round has run (settle) and keep nothing of its
// batch.
type keyMemo struct {
	q     int       // the current key's query, within the execution
	ks    *keySpace // that query's key space
	idx   []int     // the current key's candidate index per group column
	key   []float64 // the current key's values
	preds []query.Predicate
	long  map[memoKey]estimator // entries reading at most one group column
	chunk map[memoKey]estimator // entries reading two or more, this chunk

	// pending are the grouped terms with requests in the round that has
	// not run yet; reached the deferred terms the current key's gate read.
	pending, reached []*groupTerm
}

// memoKey names one call or sub-tree bound at one projection of one
// query's keys.
type memoKey struct {
	call    *keyReads
	q, proj int
}

func newKeyMemo(groupCols int) *keyMemo {
	return &keyMemo{idx: make([]int, groupCols), key: make([]float64, groupCols)}
}

// at moves the memo to key ordinal ki of query qi (bound query q, key
// space ks; the per-column decode of groupKeyAt) and returns that key's
// binding, rebuilt in the memo's one buffer.
func (m *keyMemo) at(qi int, q query.Query, groupCols []string, ks *keySpace, ki int) []query.Predicate {
	m.q, m.ks = qi, ks
	for c := len(ks.vals) - 1; c >= 0; c-- {
		n := len(ks.vals[c])
		m.idx[c] = ki % n
		m.key[c] = ks.vals[c][m.idx[c]]
		ki /= n
	}
	m.preds = appendBinding(m.preds[:0], q, groupCols, m.key)
	return m.preds
}

// shared returns the estimator an earlier key of the current query
// enqueued for the call or sub-tree reading k, or enqueues it with fresh
// and, when that succeeds, remembers it for the keys after.
func (b *batcher) shared(k *keyReads, fresh func() (estimator, error)) (estimator, error) {
	m := b.memo
	if m == nil || len(k.cols) == len(m.idx) {
		return fresh()
	}
	ests := &m.long
	if len(k.cols) > 1 {
		ests = &m.chunk
	}
	mk := memoKey{call: k, q: m.q}
	for _, c := range k.cols {
		mk.proj = mk.proj*len(m.ks.vals[c]) + m.idx[c]
	}
	if est, ok := (*ests)[mk]; ok {
		return est, nil
	}
	est, err := fresh()
	if err == nil {
		if *ests == nil {
			*ests = map[memoKey]estimator{}
		}
		(*ests)[mk] = est
	}
	return est, err
}

// run evaluates one round's batch and settles every grouped term it
// answered.
func (m *keyMemo) run(ctx context.Context, eng *Engine, b *batcher) error {
	err := b.run(ctx, eng)
	if err == nil {
		for _, t := range m.pending {
			t.settle()
		}
	}
	clear(m.pending)
	m.pending = m.pending[:0]
	return err
}

// endChunk drops the entries scoped to one key chunk.
func (m *keyMemo) endChunk() { clear(m.chunk) }

// addRequest appends a prebuilt request to its RSPN's batch.
func (b *batcher) addRequest(r *rspn.RSPN, req spn.Request) valRef {
	var g *batchGroup
	for _, cand := range b.order {
		if cand.r == r {
			g = cand
			break
		}
	}
	if g == nil {
		g = &batchGroup{r: r}
		if b.hint > 0 {
			g.reqs = make([]spn.Request, 0, b.hint)
		}
		b.order = append(b.order, g)
	}
	g.reqs = append(g.reqs, req)
	return valRef{g: g, idx: len(g.reqs) - 1}
}

// run evaluates all collected requests on the caller's goroutine: one
// execution is a few bottom-up passes, and concurrent queries already keep
// the cores busy. Each RSPN's batch is cut into chunks of at most maxChunk
// requests, which bounds the per-pass scratch (O(model nodes x chunk size))
// and lets cancellation land between passes. Each chunk is one pass over
// its model's flat arrays — or one eng.eval dispatch when a test installed
// the evaluator hook; chunk boundaries are identical either way, so the
// hook sees exactly the request groups the in-process path evaluates.
func (b *batcher) run(ctx context.Context, eng *Engine) error {
	const maxChunk = 128
	if len(b.order) == 0 {
		return ctx.Err()
	}
	for _, g := range b.order {
		g.vals = make([]float64, len(g.reqs))
		for lo := 0; lo < len(g.reqs); lo += maxChunk {
			if err := ctx.Err(); err != nil {
				return err
			}
			hi := min(lo+maxChunk, len(g.reqs))
			var err error
			if eng.eval != nil {
				err = eng.eval.EvaluateRSPN(ctx, g.r, g.reqs[lo:hi], g.vals[lo:hi])
			} else {
				err = g.r.EvaluateRequests(g.reqs[lo:hi], g.vals[lo:hi])
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// ---- per-node gather/resolve ----

// termRefs bundles the value refs one expectation-with-variance needs:
// the full term, the probability-only term for the binomial part, and the
// squared term for the conditional part (Section 5.1).
type termRefs struct {
	full, prob, sq valRef
	n              float64
	hasVar, hasFns bool
}

// enqueueTerm collects the full/probability/squared expectations of one
// bound request (the latter two only when the model's row count makes the
// variance non-trivial, matching the former per-call control flow). The
// probability and squared requests are derived from the full request by
// rewriting the per-column moment functions — exactly the requests the
// Fns-stripped and Fns-squared terms would build, at a fraction of the
// cost.
func enqueueTerm(b *batcher, r *rspn.RSPN, req spn.Request, hasFns bool) termRefs {
	t := termRefs{n: r.Model.RowCount, hasFns: hasFns}
	t.full = b.addRequest(r, req)
	t.hasVar = t.n > 1
	if t.hasVar {
		if !t.hasFns {
			// Without moment functions the probability-only term *is* the
			// term: reuse the full request's value instead of evaluating
			// the identical request again (the per-call path paid a whole
			// second traversal here).
			t.prob = t.full
		} else {
			t.prob = b.addRequest(r, probRequest(req))
			t.sq = b.addRequest(r, squareRequest(req))
		}
	}
	return t
}

// probRequest derives the probability-only request of a term's request:
// every moment function reverts to the indicator FnOne, and columns whose
// only constraint was their moment function drop out entirely — the same
// constraint set the term with Fns stripped would build.
func probRequest(req spn.Request) spn.Request {
	cols := make([]spn.ColQuery, 0, len(req.Cols))
	for _, c := range req.Cols {
		if len(c.Ranges) == 0 && !c.ExcludeNull {
			continue
		}
		c.Fn = spn.FnOne
		cols = append(cols, c)
	}
	return spn.Request{Cols: cols}
}

// squareRequest derives the squared-moment request: identical constraints
// with every moment function squared (Koenig-Huygens term of Section 5.1).
func squareRequest(req spn.Request) spn.Request {
	cols := make([]spn.ColQuery, len(req.Cols))
	for i, c := range req.Cols {
		c.Fn = squareFn(c.Fn)
		cols[i] = c
	}
	return spn.Request{Cols: cols}
}

// estimate reads the evaluated parts into an (unscaled) estimate.
func (t termRefs) estimate() Estimate {
	var prob, sq float64
	if t.hasVar {
		prob = t.prob.value()
		if t.hasFns {
			sq = t.sq.value()
		}
	}
	return t.combine(t.full.value(), prob, sq)
}

// combine turns a term's evaluated parts into an (unscaled) estimate.
func (t termRefs) combine(full, prob, sq float64) Estimate {
	variance := 0.0
	if t.hasVar {
		variance = momentVariance(t.n, prob, full, sq, t.hasFns)
	}
	return Estimate{Value: full, Variance: variance}
}

// groupTerm is one term of a grouped execution. It may be reached again in
// later rounds and chunks through the memo, so it keeps its evaluated
// values rather than refs into a batch. A gate round binds only its full
// request and keeps that request while the variance parts are deferred:
// they are requested (requestVariance) only if a surviving key reads the
// term, so a dead key never computes a variance.
type groupTerm struct {
	refs     termRefs    // into the batch of a round that has not run yet
	vals     [3]float64  // full, probability and squared values, once run
	deferred bool        // the variance parts are not requested yet
	req      spn.Request // while deferred: the full request they derive from
	r        *rspn.RSPN
	m        *keyMemo
}

// enqueueGroupTerm is enqueueTerm for a grouped execution.
func enqueueGroupTerm(b *batcher, r *rspn.RSPN, req spn.Request, hasFns bool) *groupTerm {
	t := &groupTerm{r: r, m: b.memo}
	if n := r.Model.RowCount; b.gate && hasFns && n > 1 {
		t.refs = termRefs{full: b.addRequest(r, req), n: n, hasVar: true, hasFns: true}
		t.req, t.deferred = req, true
	} else {
		t.refs = enqueueTerm(b, r, req, hasFns)
	}
	b.memo.pending = append(b.memo.pending, t)
	return t
}

// requestVariance enqueues the deferred probability and squared requests
// into b, at most once per term.
func (t *groupTerm) requestVariance(b *batcher) {
	if !t.deferred {
		return
	}
	t.refs.prob = b.addRequest(t.r, probRequest(t.req))
	t.refs.sq = b.addRequest(t.r, squareRequest(t.req))
	t.req, t.deferred = spn.Request{}, false
	t.m.pending = append(t.m.pending, t)
}

// settle copies the values of the parts the round just run answered and
// drops the refs into its batch.
func (t *groupTerm) settle() {
	for i, ref := range [...]*valRef{&t.refs.full, &t.refs.prob, &t.refs.sq} {
		if ref.g != nil {
			t.vals[i] = ref.value()
			*ref = valRef{}
		}
	}
}

// estimate is termRefs.estimate over the settled values. A deferred term
// has its point value only; reading it records the term in the memo's
// reached list, so the key reading it can request the variance if it
// survives.
func (t *groupTerm) estimate() Estimate {
	if t.deferred {
		t.m.reached = append(t.m.reached, t)
		return Estimate{Value: t.vals[0]}
	}
	return t.refs.combine(t.vals[0], t.vals[1], t.vals[2])
}

// enqueue collects one Theorem-1 evaluation |J| * E(fns * 1_C * prod N_T)
// with its variance parts.
func (t *t1call) enqueue(b *batcher, preds []query.Predicate) (estimator, error) {
	if t.err != nil {
		return nil, t.err
	}
	size := t.r.FullSize
	if b.memo == nil {
		req, err := t.tmpl.BindIndexed(preds, t.ords)
		if err != nil {
			return nil, err
		}
		refs := enqueueTerm(b, t.r, req, t.hasFns)
		return func() (Estimate, error) {
			return scaleEstimate(refs.estimate(), size), nil
		}, nil
	}
	return b.shared(&t.keys, func() (estimator, error) {
		req, err := t.tmpl.BindIndexed(preds, t.ords)
		if err != nil {
			return nil, err
		}
		term := enqueueGroupTerm(b, t.r, req, t.hasFns)
		return func() (Estimate, error) {
			return scaleEstimate(term.estimate(), size), nil
		}, nil
	})
}

// enqueue collects one compiled COUNT node: the single call, the median
// panel, or the Theorem-2 left side plus every branch sub-plan — all
// independent, so they land in the same batch. In a grouped execution a
// median or Theorem-2 sub-tree is shared across keys like a call, by the
// group columns its calls read.
func (n *countNode) enqueue(b *batcher, preds []query.Predicate) (estimator, error) {
	if n.kind == ckSingle {
		return n.single.enqueue(b, preds)
	}
	if b.memo == nil {
		return n.enqueueTree(b, preds)
	}
	return b.shared(&n.keys, func() (estimator, error) { return n.enqueueTree(b, preds) })
}

// enqueueTree collects a median panel or a Theorem-2 combination.
func (n *countNode) enqueueTree(b *batcher, preds []query.Predicate) (estimator, error) {
	switch n.kind {
	case ckMedian:
		resolvers := make([]estimator, len(n.median))
		for i := range n.median {
			res, err := n.median[i].enqueue(b, preds)
			if err != nil {
				return nil, err
			}
			resolvers[i] = res
		}
		// The median: the middle estimate for an odd member count, the
		// average of the two middle estimates for an even one (variance of
		// the two-point mean, treating the members as independent).
		return func() (Estimate, error) {
			ests := make([]Estimate, 0, len(resolvers))
			for _, res := range resolvers {
				est, err := res()
				if err != nil {
					return Estimate{}, err
				}
				ests = append(ests, est)
			}
			sort.Slice(ests, func(i, j int) bool { return ests[i].Value < ests[j].Value })
			m := len(ests)
			if m%2 == 1 {
				return ests[m/2], nil
			}
			lo, hi := ests[m/2-1], ests[m/2]
			return Estimate{
				Value:    (lo.Value + hi.Value) / 2,
				Variance: (lo.Variance + hi.Variance) / 4,
			}, nil
		}, nil
	default: // ckTheorem2
		left, err := n.left.enqueue(b, preds)
		if err != nil {
			return nil, err
		}
		branches := make([]estimator, len(n.branches))
		for i := range n.branches {
			sub, err := n.branches[i].node.enqueue(b, preds)
			if err != nil {
				return nil, err
			}
			branches[i] = sub
		}
		plans := n.branches
		return func() (Estimate, error) {
			result, err := left()
			if err != nil {
				return Estimate{}, err
			}
			for i, res := range branches {
				num, err := res()
				if err != nil {
					return Estimate{}, err
				}
				var ratio Estimate
				if den := plans[i].headRows; den > 0 {
					ratio = scaleEstimate(num, 1/den)
				}
				// den <= 0: an empty bridgehead table joins to nothing, so
				// the branch ratio is an exact zero.
				result = mulEstimate(result, ratio)
			}
			return result, nil
		}, nil
	}
}

// enqueue collects one signed SUM term: either the direct single
// expectation, or the COUNT * AVG fallback of Section 4.2.
func (s signedSum) enqueue(b *batcher, preds []query.Predicate) (estimator, error) {
	if s.direct != nil {
		return s.direct.enqueue(b, preds)
	}
	cnt, err := s.cnt.enqueue(b, preds)
	if err != nil {
		return nil, err
	}
	av, err := s.avg.enqueue(b, preds)
	if err != nil {
		return nil, err
	}
	return func() (Estimate, error) {
		cntE, err := cnt()
		if err != nil {
			return Estimate{}, err
		}
		avE, err := av()
		if err != nil {
			return Estimate{}, err
		}
		return mulEstimate(cntE, avE), nil
	}, nil
}

// enqueue collects the AVG ratio of expectations (numerator, denominator,
// and their variance parts — six requests, one batch).
func (a *avgNode) enqueue(b *batcher, preds []query.Predicate) (estimator, error) {
	if a.err != nil {
		return nil, a.err
	}
	if b.memo == nil {
		numReq, denReq, err := a.bind(preds)
		if err != nil {
			return nil, err
		}
		num := enqueueTerm(b, a.r, numReq, true)
		den := enqueueTerm(b, a.r, denReq, a.denHasFns)
		return func() (Estimate, error) {
			return avgRatio(num.estimate(), den.estimate()), nil
		}, nil
	}
	return b.shared(&a.keys, func() (estimator, error) {
		numReq, denReq, err := a.bind(preds)
		if err != nil {
			return nil, err
		}
		num := enqueueGroupTerm(b, a.r, numReq, true)
		den := enqueueGroupTerm(b, a.r, denReq, a.denHasFns)
		return func() (Estimate, error) {
			return avgRatio(num.estimate(), den.estimate()), nil
		}, nil
	})
}

// bind binds the numerator and denominator requests.
func (a *avgNode) bind(preds []query.Predicate) (num, den spn.Request, err error) {
	if num, err = a.num.BindIndexed(preds, a.ords); err != nil {
		return
	}
	den, err = a.den.BindIndexed(preds, a.ords)
	return
}

// avgRatio is the AVG's ratio of its evaluated expectations; an empty
// denominator answers zero.
func avgRatio(num, den Estimate) Estimate {
	if den.Value <= 0 {
		return Estimate{}
	}
	return divEstimate(num, den)
}

// enqueueSigned collects a list of signed inclusion-exclusion terms for
// one predicate binding. The resolver combines them in deterministic term
// order; variances add — the terms are not independent, so this is the
// conservative bound. clampZero applies COUNT's lower bound of zero (SUM
// distributes over inclusion-exclusion with its sign and stays unclamped).
func enqueueSigned(b *batcher, n int, clampZero bool,
	enqueue func(i int) (estimator, float64, error)) (estimator, error) {
	resolvers := make([]estimator, n)
	signs := make([]float64, n)
	for i := 0; i < n; i++ {
		res, sign, err := enqueue(i)
		if err != nil {
			return nil, err
		}
		resolvers[i], signs[i] = res, sign
	}
	return func() (Estimate, error) {
		var total Estimate
		for i, res := range resolvers {
			est, err := res()
			if err != nil {
				return Estimate{}, err
			}
			total.Value += signs[i] * est.Value
			total.Variance += est.Variance
		}
		if clampZero && total.Value < 0 {
			total.Value = 0
		}
		return total, nil
	}, nil
}

// enqueueCount collects the signed COUNT terms for one binding. A query
// without a disjunction has one term and no inclusion-exclusion sum.
func (p *Plan) enqueueCount(b *batcher, terms []signedCount, preds []query.Predicate) (estimator, error) {
	if len(p.q.Disjunction) == 0 {
		return terms[0].node.enqueue(b, preds)
	}
	return enqueueSigned(b, len(terms), true, func(i int) (estimator, float64, error) {
		res, err := terms[i].node.enqueue(b, preds)
		return res, terms[i].sign, err
	})
}

// enqueueSum collects the signed SUM terms.
func (p *Plan) enqueueSum(b *batcher, preds []query.Predicate) (estimator, error) {
	if len(p.q.Disjunction) == 0 {
		return p.sum[0].enqueue(b, preds)
	}
	return enqueueSigned(b, len(p.sum), false, func(i int) (estimator, float64, error) {
		res, err := p.sum[i].enqueue(b, preds)
		return res, p.sum[i].sign, err
	})
}

// enqueueAggregate collects the plan's aggregate for one binding.
// countTerms is the COUNT estimator compiled against the binding's layout
// (card for an ungrouped query, count for a grouped one).
func (p *Plan) enqueueAggregate(b *batcher, countTerms []signedCount, preds []query.Predicate) (estimator, error) {
	switch p.q.Aggregate {
	case query.Count:
		return p.enqueueCount(b, countTerms, preds)
	case query.Sum:
		return p.enqueueSum(b, preds)
	case query.Avg:
		if p.avg != nil {
			return p.avg.enqueue(b, preds)
		}
		sum, err := p.enqueueSum(b, preds)
		if err != nil {
			return nil, err
		}
		cnt, err := p.enqueueCount(b, countTerms, preds)
		if err != nil {
			return nil, err
		}
		return sumOverCount(sum, cnt), nil
	default:
		return nil, fmt.Errorf("core: unsupported aggregate %v", p.q.Aggregate)
	}
}

// sumOverCount resolves an AVG over a disjunction: SUM / COUNT over the
// same inclusion-exclusion terms.
func sumOverCount(sum, cnt estimator) estimator {
	return func() (Estimate, error) {
		s, err := sum()
		if err != nil {
			return Estimate{}, err
		}
		c, err := cnt()
		if err != nil {
			return Estimate{}, err
		}
		return divEstimate(s, c), nil
	}
}

// enqueueGroupAnswer collects the answer of a key that survived its gate,
// in the round after the gate. A COUNT is its gate, and an AVG over a
// disjunction divides by it: both first request the variance parts the
// gate deferred for the terms it read (memo.reached). SUM and a plain AVG
// bind their own estimators and never read the gate's variance.
func (p *Plan) enqueueGroupAnswer(b *batcher, gate estimator, preds []query.Predicate) (estimator, error) {
	if p.q.Aggregate == query.Sum || p.avg != nil {
		return p.enqueueAggregate(b, nil, preds)
	}
	for _, t := range b.memo.reached {
		t.requestVariance(b)
	}
	if p.q.Aggregate == query.Count {
		return gate, nil
	}
	sum, err := p.enqueueSum(b, preds)
	if err != nil {
		return nil, err
	}
	return sumOverCount(sum, gate), nil
}

// ---- execution ----

// ExecuteQuery runs the plan against a fully-bound concrete query that
// shares the plan's shape — the entry point for plan-cache reuse, where
// the concrete query may differ from the template in literal values only.
func (p *Plan) ExecuteQuery(ctx context.Context, opts ExecOpts, q query.Query) (AQPResult, error) {
	res, err := p.ExecuteBatch(ctx, opts, []query.Query{q})
	if err != nil {
		return AQPResult{}, err
	}
	return res[0], nil
}

// ExecuteBatch executes the plan for many bound queries of the plan's
// shape in batched evaluations: every query's expectation requests are
// collected and answered together on each model's flat arrays, instead of
// one traversal per query per moment. GROUP BY queries drain the grouped
// pipeline (executeGroupChunk) DefaultGroupChunk keys of every query at a
// time. Results are returned in query order and are bit-identical to
// executing the queries one at a time.
func (p *Plan) ExecuteBatch(ctx context.Context, opts ExecOpts, queries []query.Query) ([]AQPResult, error) {
	if len(queries) == 0 {
		return nil, nil
	}
	for _, q := range queries {
		if err := p.checkBound(q); err != nil {
			return nil, err
		}
	}
	if err := p.ensureExec(); err != nil {
		return nil, err
	}
	level := p.level(opts)
	if len(p.groupCols) == 0 {
		b := newBatcher(2 * len(queries))
		resolvers := make([]estimator, len(queries))
		for i, q := range queries {
			res, err := p.enqueueAggregate(b, p.card, binding(q, nil, nil))
			if err != nil {
				return nil, err
			}
			resolvers[i] = res
		}
		if err := b.run(ctx, p.eng); err != nil {
			return nil, err
		}
		out := make([]AQPResult, len(queries))
		for i, res := range resolvers {
			est, err := res()
			if err != nil {
				return nil, batchEntryErr(len(queries), i, err)
			}
			out[i] = AQPResult{Groups: []AQPGroup{finish(nil, est, level)}}
		}
		return out, nil
	}
	// Each binding gates its own key space; a lone binding's stays on the
	// stack.
	var one [1]keySpace
	keys := one[:0]
	if len(queries) > 1 {
		keys = make([]keySpace, 0, len(queries))
	}
	n := 0
	for _, q := range queries {
		ks := p.keySpace(q)
		// Input validation, not a knob: bound queries reach this entry from
		// the network (/query with params), and it holds every row it
		// returns. The bound is on the query's own key space, after its
		// filters pruned the plan's candidates.
		if ks.n > maxMaterializedGroups {
			return nil, fmt.Errorf("core: group-by produces more than %d groups (stream them with ExecuteGroupsIter)", maxMaterializedGroups)
		}
		keys = append(keys, ks)
		n = max(n, ks.n)
	}
	m := newKeyMemo(len(p.groupCols))
	out := make([]AQPResult, len(queries))
	for lo := 0; lo < n; lo += DefaultGroupChunk {
		rows, err := p.executeGroupChunk(ctx, queries, keys, m, level, lo, min(lo+DefaultGroupChunk, n))
		if err != nil {
			return nil, err
		}
		for qi := range rows {
			if out[qi].Groups == nil {
				out[qi].Groups = rows[qi] // the common one-chunk result: no copy
			} else {
				out[qi].Groups = append(out[qi].Groups, rows[qi]...)
			}
		}
	}
	return out, nil
}

// batchEntryErr attributes a resolve-phase error to its batch entry —
// pointless noise for a single-query execution, essential context for a
// multi-binding batch.
func batchEntryErr(batchLen, i int, err error) error {
	if batchLen <= 1 {
		return err
	}
	return fmt.Errorf("batch entry %d: %w", i, err)
}

// executeGroupChunk is the grouped pipeline: for every query and every
// ordinal in [lo, hi) of that query's key space (keys[qi], see keySpace)
// it evaluates the per-group COUNT gate in one batch, on point values
// only, drops the groups the model believes empty, and evaluates the
// answers of the survivors in a second batch (for a COUNT only the
// variance parts its gate deferred). It returns each query's live rows in
// key order. Keys are enumerated in ascending ordinal — lexicographic —
// order (sorted candidate values, the last column fastest), so rows come
// out sorted without a sort, and the concatenation of consecutive chunks
// is the full result in the same order, whatever the chunk size. A query's
// entries are contiguous in the per-key slices. Both rounds bind each call
// and count sub-tree once per distinct value of the group columns it reads
// (m, which the caller hands to every chunk of one execution).
func (p *Plan) executeGroupChunk(ctx context.Context, queries []query.Query, keys []keySpace, m *keyMemo, level float64, lo, hi int) ([][]AQPGroup, error) {
	defer m.endChunk()
	total := 0
	for qi := range queries {
		total += chunkLen(keys[qi], lo, hi)
	}
	gates := make([]estimator, total)
	b := &batcher{hint: total, memo: m, gate: true}
	i := 0
	for qi, q := range queries {
		for ki, nk := 0, chunkLen(keys[qi], lo, hi); ki < nk; ki, i = ki+1, i+1 {
			res, err := p.enqueueCount(b, p.count, m.at(qi, q, p.groupCols, &keys[qi], lo+ki))
			if err != nil {
				return nil, err
			}
			gates[i] = res
		}
	}
	if err := m.run(ctx, p.eng, b); err != nil {
		return nil, err
	}
	// answers[i] stays nil for a key whose gate drops it.
	answers := make([]estimator, total)
	b = &batcher{hint: total, memo: m}
	i = 0
	for qi, q := range queries {
		for ki, nk := 0, chunkLen(keys[qi], lo, hi); ki < nk; ki, i = ki+1, i+1 {
			m.reached = m.reached[:0]
			est, err := gates[i]()
			if err != nil {
				return nil, batchEntryErr(len(queries), qi, err)
			}
			// A group the model believes empty is dropped from the result.
			if !(est.Value >= 0.5) {
				continue
			}
			answers[i], err = p.enqueueGroupAnswer(b, gates[i], m.at(qi, q, p.groupCols, &keys[qi], lo+ki))
			if err != nil {
				return nil, err
			}
		}
	}
	if err := m.run(ctx, p.eng, b); err != nil {
		return nil, err
	}
	out := make([][]AQPGroup, len(queries))
	i = 0
	for qi := range queries {
		nk := chunkLen(keys[qi], lo, hi)
		live := 0
		for _, a := range answers[i : i+nk] {
			if a != nil {
				live++
			}
		}
		if live == 0 {
			i += nk
			continue
		}
		groups := make([]AQPGroup, 0, live)
		for ki := 0; ki < nk; ki, i = ki+1, i+1 {
			if answers[i] == nil {
				continue
			}
			est, err := answers[i]()
			if err != nil {
				return nil, batchEntryErr(len(queries), qi, err)
			}
			groups = append(groups, finish(groupKeyAt(keys[qi].vals, lo+ki, nil), est, level))
		}
		out[qi] = groups
	}
	return out, nil
}

// EstimateCardinalityQuery is EstimateCardinality for a concrete query
// sharing the plan's shape. It touches only the cardinality terms, so it
// neither pays for nor fails on the Execute-side compilation.
func (p *Plan) EstimateCardinalityQuery(ctx context.Context, q query.Query) (Estimate, error) {
	if err := p.checkBound(q); err != nil {
		return Estimate{}, err
	}
	b := newBatcher(2)
	res, err := p.enqueueCount(b, p.card, binding(q, nil, nil))
	if err != nil {
		return Estimate{}, err
	}
	if err := b.run(ctx, p.eng); err != nil {
		return Estimate{}, err
	}
	return res()
}
