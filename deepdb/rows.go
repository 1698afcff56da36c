package deepdb

// rows.go is the streaming consumer of the grouped pipeline: QueryRows
// answers a GROUP BY query row by row through core's chunked group
// iterator, so a grouped result with millions of keys is served in
// O(chunk) memory. Query drains the same chunks into one Result, so the
// rows are Query's rows — same order, same bits; only the memory profile
// differs. Ungrouped queries yield their single row (and still benefit
// from the result cache; grouped streams bypass it — caching a
// million-row result would defeat the point of streaming it).

import (
	"context"

	"repro/internal/core"
	"repro/internal/ensemble"
	"repro/internal/query"
)

// Rows streams the result rows of one query execution:
//
//	rows, err := db.QueryRows(ctx, "SELECT COUNT(*) FROM orders GROUP BY o_channel")
//	for rows.Next() {
//		g := rows.Row()
//		...
//	}
//	if err := rows.Err(); err != nil { ... }
//
// The whole iteration runs against the snapshot published when QueryRows
// was called — a consistent view even while updates publish newer
// generations. A Rows is single-use and not safe for concurrent use.
type Rows struct {
	it   *core.GroupIter
	ens  *ensemble.Ensemble
	cols []string
	// pre holds the rows left of an eagerly executed (ungrouped) result
	// instead of it.
	pre []Group
	cur Group
}

// QueryRows answers an aggregate SQL query approximately like Query, but
// streams the result rows instead of collecting them: group keys are
// enumerated lazily and estimated in bounded chunks, so GROUP BY results of
// any size run in constant memory.
// Rows arrive in group-key order, bit-identical to Query's.
func (db *DB) QueryRows(ctx context.Context, sql string, opts ...ExecOption) (*Rows, error) {
	s := db.snapshotNow()
	q, err := query.Parse(sql, resolver(s.ens))
	if err != nil {
		return nil, err
	}
	return db.queryRowsOn(ctx, s, q, opts)
}

// ExecuteQueryRows is QueryRows for an already-parsed structured query.
func (db *DB) ExecuteQueryRows(ctx context.Context, q query.Query, opts ...ExecOption) (*Rows, error) {
	return db.queryRowsOn(ctx, db.snapshotNow(), q, opts)
}

// queryRowsOn builds the streaming iterator on one snapshot. Ungrouped
// queries route through the regular (result-cached) execution path and
// replay its single row; grouped queries get a live chunked iterator.
func (db *DB) queryRowsOn(ctx context.Context, s *snapshot, q query.Query, opts []ExecOption) (*Rows, error) {
	eo := resolveExec(opts)
	if len(q.GroupBy) == 0 {
		v, err := db.executeShaped(ctx, nsQuery, s, nil, "", q, eo)
		if err != nil {
			return nil, err
		}
		return &Rows{pre: v.res.Groups, ens: s.ens}, nil
	}
	p, err := db.planFor(s, "", q)
	if err != nil {
		return nil, err
	}
	it, err := p.ExecuteGroupsIter(ctx, eo.core(), q, core.DefaultGroupChunk)
	if err != nil {
		return nil, err
	}
	return &Rows{it: it, ens: s.ens, cols: q.GroupBy}, nil
}

// Next advances to the next result row, evaluating the next group-key
// chunk when the current one is drained. It returns false at the end of
// the result or on an execution error (check Err).
func (r *Rows) Next() bool {
	if r.it == nil {
		if len(r.pre) == 0 {
			return false
		}
		r.cur, r.pre = r.pre[0], r.pre[1:]
		return true
	}
	if !r.it.Next() {
		return false
	}
	r.cur = wrapGroup(r.ens, r.cols, r.it.Group())
	return true
}

// Row returns the current result row. Valid after a true Next; the row
// stays valid after further Next calls.
func (r *Rows) Row() Group { return r.cur }

// Err returns the first execution error, if any.
func (r *Rows) Err() error {
	if r.it == nil {
		return nil
	}
	return r.it.Err()
}

// Grouped reports whether the underlying query had a GROUP BY clause.
func (r *Rows) Grouped() bool { return r.it != nil }
