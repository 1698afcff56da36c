package core

// plan_iter.go is the streaming consumer of the grouped pipeline
// (executeGroupChunk in plan_exec.go): GroupIter runs it over one bounded
// chunk of the key space at a time, so a GROUP BY over millions of keys
// executes in O(chunk + candidates) memory (the memo keeps the calls that
// read at most one group column for the whole execution, see keyMemo).
// Group keys are enumerated lazily in lexicographic order. ExecuteBatch is
// the other consumer — it drains the same chunks into one result — so
// streamed rows are ExecuteQuery's rows, bit for bit and in the same
// order.

import (
	"context"

	"repro/internal/query"
)

// DefaultGroupChunk is how many group keys are gated and aggregated per
// evaluation round: ExecuteBatch's step, and ExecuteGroupsIter's when the
// caller passes no explicit size.
const DefaultGroupChunk = 256

// GroupIter streams the result rows of one grouped execution. Use it as:
//
//	it, err := plan.ExecuteGroupsIter(ctx, opts, q, 0)
//	for it.Next() {
//		g := it.Group()
//		...
//	}
//	if err := it.Err(); err != nil { ... }
//
// A GroupIter is single-use and not safe for concurrent use.
type GroupIter struct {
	p     *Plan
	ctx   context.Context
	qs    []query.Query // the one bound query, in the pipeline's batch shape
	keys  []keySpace    // its candidate keys, in the same shape
	memo  *keyMemo      // shared by every chunk of the execution
	level float64
	chunk int

	pos int        // next group-key ordinal to execute
	buf []AQPGroup // rows of the current chunk
	bi  int        // index into buf of the current row (-1 before Next)
	err error
}

// ExecuteGroupsIter begins a streamed execution of the bound query q
// (which must share the plan's shape), emitting result rows in group-key
// order. chunkSize bounds how many group keys are gated and aggregated
// per evaluation round; values <= 0 use DefaultGroupChunk. Ungrouped
// queries yield their single row. Unlike ExecuteBatch, which holds every
// row it returns, the iterator puts no bound on the plan's group count.
func (p *Plan) ExecuteGroupsIter(ctx context.Context, opts ExecOpts, q query.Query, chunkSize int) (*GroupIter, error) {
	if err := p.checkBound(q); err != nil {
		return nil, err
	}
	if err := p.ensureExec(); err != nil {
		return nil, err
	}
	if chunkSize <= 0 {
		chunkSize = DefaultGroupChunk
	}
	it := &GroupIter{p: p, ctx: ctx, qs: []query.Query{q}, level: p.level(opts), chunk: chunkSize, bi: -1}
	if len(p.groupCols) == 0 {
		res, err := p.ExecuteQuery(ctx, opts, q)
		if err != nil {
			return nil, err
		}
		it.buf = res.Groups
	} else {
		it.keys = []keySpace{p.keySpace(q)}
		it.memo = newKeyMemo(len(p.groupCols))
	}
	return it, nil
}

// Next advances to the next result row, running the next key chunks as
// needed. It returns false when the rows are exhausted or an execution
// error occurred (check Err).
func (it *GroupIter) Next() bool {
	if it.err != nil {
		return false
	}
	it.bi++
	for it.bi >= len(it.buf) {
		if it.keys == nil || it.pos >= it.keys[0].n || it.err != nil {
			return false
		}
		it.fill()
	}
	return true
}

// Group returns the current row. Valid after a true Next; the returned
// group (and its key slice) remains valid after further Next calls.
func (it *GroupIter) Group() AQPGroup { return it.buf[it.bi] }

// Err returns the first execution error, if any.
func (it *GroupIter) Err() error { return it.err }

// fill executes key chunks until one yields at least one live group or
// the key space is exhausted.
func (it *GroupIter) fill() {
	it.buf, it.bi = it.buf[:0], 0
	for len(it.buf) == 0 && it.step() {
	}
}

// step executes the next key chunk into buf. It returns false when the key
// space is exhausted or the chunk failed (see Err).
func (it *GroupIter) step() bool {
	n := it.keys[0].n
	if it.pos >= n {
		return false
	}
	lo, hi := it.pos, min(it.pos+it.chunk, n)
	it.pos = hi
	rows, err := it.p.executeGroupChunk(it.ctx, it.qs, it.keys, it.memo, it.level, lo, hi)
	if err != nil {
		it.err = err
		return false
	}
	it.buf = rows[0]
	return true
}
