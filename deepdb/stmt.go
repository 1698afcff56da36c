package deepdb

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/query"
)

// Stmt is a prepared statement: a SQL template, parsed and validated once,
// whose `?` placeholders are bound per execution. The compiled plan is
// shared with the DB's plan cache (a one-shot query of the same shape hits
// the same entry) and additionally pinned on the statement itself, so
// repeated executions skip parsing, validation, shape hashing and plan
// compilation entirely. A Stmt is safe for concurrent use.
//
//	stmt, err := db.Prepare("SELECT COUNT(*) FROM orders JOIN customer WHERE c_age < ? AND c_region = ?")
//	res, err := stmt.Exec(ctx, 40, "EU")
//
// Every execution runs against the snapshot published at its start: the
// pinned plan is revalidated against the snapshot's generation (and
// transparently recompiled after an update batch published a newer one),
// and the whole call — plan, parameter resolution, evaluation — sees that
// one consistent model state, never a half-applied update.
//
// Parameters may be numbers (any int/uint/float type) or strings; strings
// are resolved through the dictionary of the placeholder's column at
// execution time, which works model-only via the dictionaries persisted in
// the model file.
type Stmt struct {
	db      *DB
	q       query.Query
	shape   string
	nparams int
	// paramCols[i] is the column of placeholder i+1, for string binding.
	paramCols []string

	mu   sync.Mutex
	plan *core.Plan
	gen  uint64
}

// Prepare parses the SQL template (which may contain `?` placeholders as
// comparison values), validates it and compiles its plan eagerly, so shape
// errors surface here rather than at execution.
func (db *DB) Prepare(sql string) (*Stmt, error) {
	snap := db.snapshotNow()
	q, err := query.Parse(sql, resolver(snap.ens))
	if err != nil {
		return nil, err
	}
	s := &Stmt{db: db, q: q, shape: q.ShapeKey(), nparams: q.NumParams(),
		paramCols: paramColumns(q)}
	p, err := s.planOn(snap)
	if err != nil {
		return nil, err
	}
	// Force the execution-side compilation (group keys, aggregate member
	// selection) too: a statement that can never execute must fail here,
	// not on its first Exec.
	if err := p.ExecErr(); err != nil {
		return nil, err
	}
	return s, nil
}

// paramColumns maps placeholder ordinals to their predicate columns.
func paramColumns(q query.Query) []string {
	out := make([]string, q.NumParams())
	for _, preds := range [][]query.Predicate{q.Filters, q.Disjunction} {
		for _, p := range preds {
			if p.Param > 0 {
				out[p.Param-1] = p.Column
			}
		}
	}
	return out
}

// planOn returns the statement's compiled plan for the given snapshot,
// recompiling when the pinned plan was compiled at a different generation
// (an update batch, Reload or re-learn published since).
func (s *Stmt) planOn(snap *snapshot) (*core.Plan, error) {
	s.mu.Lock()
	if s.plan != nil && s.gen == snap.gen {
		p := s.plan
		s.mu.Unlock()
		return p, nil
	}
	s.mu.Unlock()
	p, err := s.db.planFor(snap, s.shape, s.q)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	// Keep the newest generation's plan pinned: a concurrent execution on
	// a fresher snapshot must not be overwritten by ours.
	if s.plan == nil || snap.gen >= s.gen {
		s.plan, s.gen = p, snap.gen
	}
	s.mu.Unlock()
	return p, nil
}

// Exec runs the statement with the given parameter values. Arguments of
// type ExecOption (e.g. AtConfidence(0.99)) are applied as per-call
// options; every other argument binds the next placeholder.
func (s *Stmt) Exec(ctx context.Context, params ...any) (Result, error) {
	vals, opts := splitArgs(params)
	snap := s.db.snapshotNow()
	q, err := s.bindOn(snap, vals)
	if err != nil {
		return Result{}, err
	}
	v, err := s.db.executeShaped(ctx, nsQuery, snap, s, s.shape, q, resolveExec(opts))
	return v.res, err
}

// ExecBatch runs the statement once per parameter set against one
// snapshot and one plan lookup. All bindings flow through the plan's
// batched evaluator: every binding's expectation requests (including
// per-group requests of a GROUP BY template) are evaluated together on
// each model's flattened arrays, chunked over the DB's configured
// parallelism — one pass per chunk instead of one model traversal per
// binding per moment. The results are returned in batch order,
// bit-identical to calling Exec once per set against the same snapshot;
// the first error aborts the batch.
func (s *Stmt) ExecBatch(ctx context.Context, batch [][]any, opts ...ExecOption) ([]Result, error) {
	eo := resolveExec(opts)
	snap := s.db.snapshotNow()
	// Bind everything up front so an arity or type error in any set
	// surfaces before work starts.
	queries := make([]query.Query, len(batch))
	for i, params := range batch {
		q, err := s.bindOn(snap, params)
		if err != nil {
			return nil, fmt.Errorf("deepdb: batch entry %d: %w", i, err)
		}
		queries[i] = q
	}
	// Resolve cache hits per entry and batch-execute only the misses:
	// ExecuteBatch is bit-identical to one-at-a-time execution, so the
	// subset batch produces exactly the values the full batch would.
	out := make([]Result, len(batch))
	missIdx := make([]int, 0, len(batch))
	rc := s.db.resCache
	var keys [][]byte
	if rc != nil {
		keys = make([][]byte, len(batch))
	}
	level := eo.levelOr(snap.eng.ConfidenceLevel)
	for i := range queries {
		if rc != nil {
			keys[i] = resultKey(nsQuery, s.shape, queries[i], level)
			if v, ok := lruGet(rc, keys[i], snap.gen); ok {
				out[i] = copyResult(v.res)
				continue
			}
		}
		missIdx = append(missIdx, i)
	}
	if len(missIdx) == 0 {
		return out, nil
	}
	p, err := s.planOn(snap)
	if err != nil {
		return nil, err
	}
	missQs := make([]query.Query, len(missIdx))
	for j, i := range missIdx {
		missQs[j] = queries[i]
	}
	ress, err := p.ExecuteBatch(ctx, eo.core(), missQs)
	if err != nil {
		return nil, fmt.Errorf("deepdb: %w", err)
	}
	for j, i := range missIdx {
		out[i] = wrapResult(snap.ens, queries[i], ress[j])
		if rc != nil {
			rc.put(string(keys[i]), snap.gen, cachedResult{res: copyResult(out[i])})
		}
	}
	return out, nil
}

// Estimate runs the statement's cardinality-estimation view (COUNT(*)
// over the join with the bound filters; aggregate and GROUP BY settings
// are ignored). Arguments follow the Exec convention.
func (s *Stmt) Estimate(ctx context.Context, params ...any) (Estimate, error) {
	vals, opts := splitArgs(params)
	snap := s.db.snapshotNow()
	q, err := s.bindOn(snap, vals)
	if err != nil {
		return Estimate{}, err
	}
	v, err := s.db.executeShaped(ctx, nsEstimate, snap, s, s.shape, q, resolveExec(opts))
	return v.est, err
}

// splitArgs separates ExecOption arguments from parameter values.
func splitArgs(args []any) ([]any, []ExecOption) {
	vals := make([]any, 0, len(args))
	var opts []ExecOption
	for _, a := range args {
		if o, ok := a.(ExecOption); ok {
			opts = append(opts, o)
			continue
		}
		vals = append(vals, a)
	}
	return vals, opts
}

// bindOn converts the parameter values and binds them into the template,
// resolving string parameters through the given snapshot's dictionaries.
func (s *Stmt) bindOn(snap *snapshot, vals []any) (query.Query, error) {
	if len(vals) != s.nparams {
		return query.Query{}, fmt.Errorf("deepdb: statement has %d placeholder(s), got %d parameter(s)", s.nparams, len(vals))
	}
	bound := make([]float64, len(vals))
	for i, v := range vals {
		f, err := s.paramValue(snap, i, v)
		if err != nil {
			return query.Query{}, err
		}
		bound[i] = f
	}
	return s.q.Bind(bound...)
}

// paramValue encodes one parameter: numbers pass through, strings resolve
// through the dictionary of the placeholder's column. NaN is rejected: no
// comparison against it is meaningful, and as a result-cache key it would
// never hit.
func (s *Stmt) paramValue(snap *snapshot, i int, v any) (float64, error) {
	switch x := v.(type) {
	case float64:
		if x != x {
			return 0, fmt.Errorf("deepdb: parameter %d is NaN", i+1)
		}
		return x, nil
	case float32:
		return s.paramValue(snap, i, float64(x))
	case int:
		return float64(x), nil
	case int8:
		return float64(x), nil
	case int16:
		return float64(x), nil
	case int32:
		return float64(x), nil
	case int64:
		return float64(x), nil
	case uint:
		return float64(x), nil
	case uint8:
		return float64(x), nil
	case uint16:
		return float64(x), nil
	case uint32:
		return float64(x), nil
	case uint64:
		return float64(x), nil
	case string:
		col := s.paramCols[i]
		code, found, known := snap.ens.ResolveLabel(col, x)
		if !known {
			return 0, fmt.Errorf("deepdb: parameter %d: unknown column %s", i+1, col)
		}
		if !found {
			return 0, fmt.Errorf("deepdb: parameter %d: value %q not found in column %s", i+1, x, col)
		}
		return code, nil
	default:
		return 0, fmt.Errorf("deepdb: parameter %d: unsupported type %T (use a number or string)", i+1, v)
	}
}
