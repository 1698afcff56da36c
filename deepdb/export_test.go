package deepdb

// export_test.go hands the external test package (deepdb_test) what only
// tests use:
//   - settings nothing that ships selects: production runs the default
//     queue and batch sizes, while the backpressure and chaos suites need a
//     one-slot queue and the group-atomicity and replay suites a small
//     batch cap, so they are Options only in the test build;
//   - a multi-row Update, whose single mutation group pins the write
//     path's all-or-nothing publish;
//   - a waited enqueue at a chosen WAL position and the watermark it
//     publishes, the seams of the forward-only watermark test;
//   - the two cache sizes the cache suites read.

import "repro/internal/ensemble"

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

// AppliedLSN reports the apply watermark of the current snapshot, with or
// without a WAL.
func (db *DB) AppliedLSN() uint64 { return db.snapshotNow().lsn }
