package deepdb

// export_test.go hands the external test package (deepdb_test) what only
// tests use:
//   - settings nothing that ships selects: production runs the default
//     queue and batch sizes, while the backpressure and chaos suites need a
//     one-slot queue and the group-atomicity and replay suites a small
//     batch cap, so they are Options only in the test build;
//   - a multi-row Update, whose single mutation group pins the write
//     path's all-or-nothing publish;
//   - a waited enqueue at a chosen WAL position, the seam of the
//     forward-only watermark test and of the write-history checker's
//     sequential reference;
//   - one loaded snapshot held by the caller, whose generation, apply
//     watermark and probe answers all come from the same published state
//     (the public API loads a fresh snapshot per call, so it cannot pair
//     an LSN with an answer);
//   - the two cache sizes the cache suites read.

import (
	"context"

	"repro/internal/ensemble"
	"repro/internal/query"
)

// WithUpdateQueueSize bounds the update queue (default
// 1024 operations; an Update(rows...) call occupies one slot). When the
// queue is full, Insert/Delete/Update block until the background applier
// catches up — backpressure instead of unbounded memory.
func WithUpdateQueueSize(n int) Option {
	return func(c *config) { c.queueSize = n }
}

// WithMaxApplyBatch caps the operations the applier coalesces into one
// batch, and WAL replay's batch size (default 256).
func WithMaxApplyBatch(n int) Option {
	return func(c *config) { c.maxBatch = n }
}

// Row is one base-table row for DB.Update: missing columns become NULL.
type Row struct {
	Table  string
	Values map[string]Value
}

// Update applies a batch of row inserts. The rows travel through the
// pipeline as one indivisible group: queries never observe a half-applied
// Update — every published snapshot contains the whole group or none of
// it. A failing row does not block the others and there is no rollback;
// Flush reports it with its position in the applied batch and the
// underlying cause — under WithSyncUpdates the batch is this group alone,
// so the returned error indexes the failing row; otherwise it may include
// coalesced neighbors.
func (db *DB) Update(rows ...Row) error {
	muts := make([]ensemble.Mutation, len(rows))
	for i, r := range rows {
		muts[i] = ensemble.Mutation{Op: ensemble.OpInsert, Table: r.Table, Values: r.Values}
	}
	return db.mutate(muts)
}

// PlanCacheLen reports how many compiled plans are currently cached.
func (db *DB) PlanCacheLen() int { return db.plans.size() }

// ResultCacheLen reports how many query results and cardinality estimates
// are currently cached (0 unless WithResultCacheSize enabled the cache).
func (db *DB) ResultCacheLen() int { return db.resCache.size() }

// EnqueueWaitedAt hands the applier one group as if the WAL had logged it
// at lsn, and returns the apply error of its batch. Production groups get
// their position from the WAL under the write lock; this seam lets a test
// break that order on purpose.
func (db *DB) EnqueueWaitedAt(muts []ensemble.Mutation, lsn uint64) error {
	return db.pipe.Enqueue(group{muts: muts, lsn: lsn}, true)
}

// Pinned is one published snapshot held by a test. Every method answers
// from that snapshot however many later ones the writer publishes.
type Pinned struct{ s *snapshot }

// Pin loads the current snapshot once.
func (db *DB) Pin() Pinned { return Pinned{db.snapshotNow()} }

// Generation is the pinned snapshot's publication counter.
func (p Pinned) Generation() uint64 { return p.s.gen }

// LSN is the pinned snapshot's apply watermark (0 without a WAL).
func (p Pinned) LSN() uint64 { return p.s.lsn }

// Query answers q from the pinned snapshot's models, compiling a fresh
// plan: no plan or result cache stands between the probe and the models.
func (p Pinned) Query(ctx context.Context, q query.Query) (Result, error) {
	res, err := p.s.eng.ExecuteContext(ctx, q)
	if err != nil {
		return Result{}, err
	}
	return wrapResult(p.s.ens, q, res), nil
}

// Data is the pinned snapshot's base tables (nil without attached data).
func (p Pinned) Data() Dataset { return p.s.ens.Tables }

// Exact answers q exactly from the pinned snapshot's base tables.
func (p Pinned) Exact(ctx context.Context, q query.Query) (Result, error) {
	return exactOn(ctx, p.s, q)
}
