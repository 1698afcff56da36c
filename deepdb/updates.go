package deepdb

// updates.go is the DB's write half: one path from Insert/Delete through
// the WAL and the update queue into the applier, which applies each batch
// to a copy-on-write clone and publishes it; WAL replay; the fail-stop on
// WAL loss; and the lifecycle operations (Flush, Save, Reload, Close).
//
// Durability: every accepted group is appended to the WAL before it enters
// the update queue, so a crash — even kill -9 — loses nothing that was
// acknowledged under DurabilitySync (and at most the configured batching
// window otherwise). Open replays the unapplied suffix through the
// applier's own body; replay followed by Flush is bit-identical to a run
// that never crashed, because the applier's batch==sequential equivalence
// makes group boundaries irrelevant to the final state.

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/drift"
	"repro/internal/ensemble"
	"repro/internal/wal"
)

// ErrQueueFull is returned by Insert/Delete under
// WithNonBlockingUpdates when the update queue has no free slot: the
// mutation was NOT accepted — neither logged nor enqueued — and the caller
// should retry later. Serving front-ends map it to 429 +
// Retry-After. Test with errors.Is.
var ErrQueueFull = errors.New("deepdb: update queue full, retry later")

// ErrDurabilityLost is returned by Insert/Delete once the WAL has
// failed (disk full, I/O error): the mutation was NOT accepted
// and writes stay rejected until the process restarts on a healthy disk —
// no acknowledged write is ever less durable than the configured mode
// promises. Serving front-ends map it to 503; UpdateStats.DurabilityLost
// and a "degraded" /healthz carry the warning while reads keep serving.
// Test with errors.Is.
var ErrDurabilityLost = errors.New("deepdb: WAL durability lost, writes are not crash-safe")

// Insert absorbs one new base-table row into the model incrementally
// (Section 5.2 of the paper): no retraining happens. Missing columns
// become NULL. The mutation is logged (with a WAL) and submitted to the
// applier; it becomes visible to queries when its batch's snapshot
// is published, and apply errors are reported by the next Flush — or, under
// WithSyncUpdates, by the call itself, which then waits for the publish.
func (db *DB) Insert(table string, values map[string]Value) error {
	return db.mutate([]ensemble.Mutation{{Op: ensemble.OpInsert, Table: table, Values: values}})
}

// Delete removes the base-table row with the given primary key from the
// model incrementally. Submitted like Insert: a missing row is an apply
// error reported by the next Flush (the call's own under WithSyncUpdates).
func (db *DB) Delete(table string, pk float64) error {
	return db.mutate([]ensemble.Mutation{{Op: ensemble.OpDelete, Table: table, PK: pk}})
}

// group is one unit of the applier's input: the mutations of one
// caller-level operation, applied as one indivisible unit, plus the WAL
// position they were logged at (0 without a WAL).
type group struct {
	muts []ensemble.Mutation
	lsn  uint64
}

// closeTimeout bounds the drain on Close: past it Close reports a timeout
// instead of hanging a shutdown behind a stuck applier (with a WAL the
// undrained queue is recovered by the next Open).
const closeTimeout = 30 * time.Second

// mutate logs one mutation group and enqueues it for the applier.
func (db *DB) mutate(muts []ensemble.Mutation) error {
	if len(muts) == 0 {
		return nil
	}
	if db.snapshotNow().ens.Tables == nil {
		return errNoData()
	}
	db.mutMu.Lock()
	defer db.mutMu.Unlock()
	if db.closed {
		return errClosed()
	}
	// Admission comes BEFORE the append: a record logged but rejected with
	// ErrQueueFull would still replay after a restart, silently re-applying
	// a write the caller was told to retry. Under mutMu no other producer
	// can steal the checked slot; a concurrent Flush barrier can, which
	// makes the enqueue below block for at most one apply cycle — never shed.
	if db.cfg.nonBlocking && !db.pipe.HasCapacity() {
		return ErrQueueFull
	}
	// Under WithSyncUpdates the enqueue waits for the group's own result:
	// mutMu keeps every other producer out, so the batch is this group
	// alone and its error indexes the group's rows.
	if db.wal == nil {
		return db.pipe.Enqueue(group{muts: muts}, db.cfg.syncUpdates)
	}
	// A failed append rejects the group before the model sees it, and every
	// later write fails the same way.
	if cause := db.walErr.Load(); cause != nil {
		return fmt.Errorf("%w: %s", ErrDurabilityLost, *cause)
	}
	lsn, err := db.wal.Append(wal.EncodeMutations(muts))
	if err != nil {
		err = fmt.Errorf("wal %s: %w", db.cfg.walDir, err)
		cause := err.Error()
		db.walErr.Store(&cause) // first and only: the check above rejects every later write
		return fmt.Errorf("%w: %w", ErrDurabilityLost, err)
	}
	return db.pipe.Enqueue(group{muts: muts, lsn: lsn}, db.cfg.syncUpdates)
}

// applyGroups is the applier's body: it applies the groups as one
// copy-on-write batch — groups may share a snapshot but are never split
// across two — publishes the result with the watermark advanced to the
// last group's LSN, and checks the drift trigger when the ensemble
// changed. The first per-mutation failure is returned with its index in
// the concatenated batch.
func (db *DB) applyGroups(groups []group) error {
	db.applyMu.Lock()
	defer db.applyMu.Unlock()
	cur := db.snap.Load()
	next, err := db.applyLocked(cur.ens, groups)
	db.publishLocked(next, watermark(cur.lsn, groups))
	if next != cur.ens {
		db.maybeRelearn()
	}
	return err
}

// applyLocked is the only way mutations reach the model — the live applier
// and WAL replay both run it. It applies the groups to a clone of cur and
// returns the clone, or cur itself when nothing applied: the clone would
// be bit-identical, and the served ensemble — with every plan and result
// cached against it — stays in place. A partially failed batch keeps the
// mutations that succeeded. Callers hold applyMu or are the
// single-threaded constructor.
func (db *DB) applyLocked(cur *ensemble.Ensemble, groups []group) (*ensemble.Ensemble, error) {
	n := 0
	for _, g := range groups {
		n += len(g.muts)
	}
	muts := make([]ensemble.Mutation, 0, n)
	for _, g := range groups {
		muts = append(muts, g.muts...)
	}
	next := cur.CloneForUpdate(muts)
	applied, err := next.Apply(muts)
	if applied == 0 {
		return cur, err
	}
	for t := range next.TouchedTables(muts) {
		db.tableVer[t]++
	}
	return next, err
}

// watermark advances the apply watermark lsn past a batch. Groups arrive
// in LSN order (mutate appends and enqueues under one lock); should that
// ever break, the watermark still never moves back — a checkpoint below
// what a saved model contains would let replay apply those records twice.
func watermark(lsn uint64, groups []group) uint64 {
	if last := groups[len(groups)-1].lsn; last > lsn {
		return last
	}
	return lsn
}

// replay opens the WAL and applies every record past the checkpoint to
// ens through the applier's body, in the applier's batch size, returning
// the replayed ensemble and its watermark. Nothing is published or
// compiled per batch and the drift trigger does not run: the first
// serving view is published once, after replay. Per-mutation apply errors
// are dropped — on the live path they would only have surfaced through a
// Flush that never ran — but decode failures and replaying without
// attached base tables abort the open.
func (db *DB) replay(ens *ensemble.Ensemble) (*ensemble.Ensemble, uint64, error) {
	l, err := wal.Open(db.cfg.walDir, wal.Options{Durability: db.cfg.durability.wal()})
	if err != nil {
		return nil, 0, err
	}
	var lsn uint64
	batch := make([]group, 0, db.cfg.maxBatch)
	apply := func() {
		ens, _ = db.applyLocked(ens, batch) // deferred-error semantics, see above
		lsn = watermark(lsn, batch)
		batch = batch[:0]
	}
	rerr := l.Replay(func(at uint64, payload []byte) error {
		muts, err := wal.DecodeMutations(payload)
		if err != nil {
			return err
		}
		if ens.Tables == nil {
			return fmt.Errorf("deepdb: WAL %s has unapplied records but no base tables are attached (open with WithDataDir or WithDataset)", db.cfg.walDir)
		}
		if batch = append(batch, group{muts: muts, lsn: at}); len(batch) == db.cfg.maxBatch {
			apply()
		}
		return nil
	})
	if rerr != nil {
		l.Close() //nolint:errcheck // the open itself failed
		return nil, 0, rerr
	}
	if len(batch) > 0 {
		apply()
	}
	db.wal = l
	return ens, lsn, nil
}

// swap runs fn under the apply lock with the current ensemble and the
// per-table applied-batch counters (read-only, valid only inside fn), and
// publishes a non-nil result as a model swap (hot reload, re-learned
// member) at the current watermark. A swap does not check the drift
// trigger: it resets the baselines the trigger would read.
func (db *DB) swap(fn func(cur *ensemble.Ensemble, tableVer map[string]uint64) *ensemble.Ensemble) {
	db.applyMu.Lock()
	defer db.applyMu.Unlock()
	cur := db.snap.Load()
	if next := fn(cur.ens, db.tableVer); next != nil {
		db.publishLocked(next, cur.lsn)
	}
}

// Flush blocks until every mutation submitted before the call has been
// applied and published — after Flush returns, queries (and Save, Exact,
// Data) observe those writes, bit-identical however the applier happened
// to batch them. It returns the first apply error since the previous
// Flush. A no-op when nothing is pending.
func (db *DB) Flush(ctx context.Context) error { return db.pipe.Flush(ctx) }

// Save writes the model (ensemble, dependency and per-table statistics,
// schema) to path, atomically (temp file + rename). Pending updates are
// flushed first, so the file reflects every mutation accepted before the
// call; writers are never held off. The base tables are not serialized;
// the persisted statistics are enough to serve queries, and Open can
// reattach the data like a database reopening its files. With a WAL
// attached, a successful Save also checkpoints the log at the watermark
// published with the saved state: the file covers everything up to that
// LSN, so replay skips those records from now on and segments they fully
// occupy are deleted. Concurrent saves run one at a time, each from a
// snapshot no older than the previous one's, so the checkpoint never
// passes what the last file written contains.
func (db *DB) Save(path string) error {
	if err := db.Flush(context.Background()); err != nil {
		return err
	}
	db.saveMu.Lock()
	defer db.saveMu.Unlock()
	s := db.snapshotNow()
	if err := s.ens.SaveFile(path); err != nil {
		return err
	}
	if db.wal == nil {
		return nil
	}
	return db.wal.Checkpoint(s.lsn)
}

// Reload hot-swaps the serving model with the one in modelPath — e.g. a
// re-learned artifact produced offline — without any read downtime: the
// new model travels through the same snapshot-publication path as update
// batches, so in-flight queries finish on the old snapshot and later ones
// see the new generation atomically. Pending updates are flushed into the
// old model first (they were acked against it); the current base tables,
// if any, are carried over so updates and exact execution keep working,
// and a model whose dictionaries disagree with them is refused (see Open).
// Writers are held off only for the swap itself (attaching the tables and
// publishing), not while the model file is read or the queue drains. On
// any error the old model keeps serving.
//
// The new model is published at the current apply watermark: a model file
// does not carry the LSN it was saved at, so Reload cannot re-apply the
// logged writes the file lacks. A file saved before later acknowledged
// writes serves without them — the base tables keep them, so Exact still
// counts them — while a restart over the same WAL replays them from the
// checkpoint: the served state and crash recovery then disagree. Reload
// only a file that holds every write acknowledged so far.
func (db *DB) Reload(modelPath string) error {
	ens, err := ensemble.LoadFile(modelPath, nil)
	if err != nil {
		return err
	}
	// Drain the bulk of the queue before taking the write lock, so writers
	// wait only for what slipped in between and for the swap itself.
	ctx := context.Background()
	if err := db.Flush(ctx); err != nil {
		return err
	}
	db.mutMu.Lock()
	defer db.mutMu.Unlock()
	if err := db.Flush(ctx); err != nil {
		return err
	}
	if db.closed {
		return errClosed()
	}
	cur := db.snapshotNow().ens
	if cur.Tables != nil {
		if err := ens.AttachTables(cur.Tables); err != nil {
			return err
		}
	}
	if cur.Drift != nil {
		// Drift restarts from the fresh model's state: it IS the re-learned
		// baseline staleness is measured against.
		ens.EnableDrift()
	}
	db.swap(func(*ensemble.Ensemble, map[string]uint64) *ensemble.Ensemble { return ens })
	return nil
}

// Close drains and stops the update pipeline (waiting at most
// closeTimeout), syncs and closes the WAL, waits for an in-flight
// background re-learn, and returns the first undelivered apply error (or
// the drain-timeout error; with a WAL the undrained queue remains
// recoverable by the next Open). The DB remains queryable afterwards (the
// published snapshot stays valid); further updates fail. Close is
// idempotent — the second and later calls are no-ops returning nil.
func (db *DB) Close() error {
	db.mutMu.Lock()
	if db.closed {
		db.mutMu.Unlock()
		return nil
	}
	db.closed = true
	db.mutMu.Unlock()
	// Raise the re-learn barrier before draining: a trigger tripped by the
	// drain's own batches backs off instead of starting work Close would
	// then have to wait for.
	db.relearnMu.Lock()
	db.relearnClosed = true
	db.relearnMu.Unlock()
	err := db.pipe.CloseTimeout(closeTimeout)
	if db.wal != nil {
		if werr := db.wal.Close(); err == nil {
			err = werr
		}
	}
	db.relearnWG.Wait()
	return err
}

// UpdateStats is a point-in-time view of the update pipeline, for
// observability. The serve front-end marshals it as the "updates" object
// of /healthz: the JSON tags are that endpoint's wire contract.
type UpdateStats struct {
	// Generation is the current snapshot's publication counter.
	Generation uint64 `json:"generation"`
	// SyncUpdates reports whether writes wait for their own apply
	// (WithSyncUpdates). They cross the same queue, so the fields below
	// count them too — as batches of one operation.
	SyncUpdates bool `json:"sync_updates"`
	// QueueDepth is the number of update operations waiting in the queue.
	QueueDepth int `json:"queue_depth"`
	// Enqueued/Applied count update operations accepted/applied — each
	// Insert/Delete is one operation. Batches counts published update
	// batches (Applied/Batches = realized coalescing).
	Enqueued uint64 `json:"enqueued"`
	Applied  uint64 `json:"applied"`
	Batches  uint64 `json:"batches"`
	// Errors counts failed apply batches; LastError renders the most
	// recent failure.
	Errors    uint64 `json:"errors"`
	LastError string `json:"last_error,omitempty"`
	// LastBatch is the size of the most recently applied batch,
	// LastApplyDuration how long applying it took, and ApplyLag the
	// enqueue-to-publish latency of that batch's oldest mutation — both in
	// microseconds.
	LastBatch         int   `json:"last_batch"`
	LastApplyDuration int64 `json:"last_apply_us"`
	ApplyLag          int64 `json:"apply_lag_us"`
	// WAL describes the write-ahead log (nil without WithWAL).
	WAL *WALStats `json:"wal,omitempty"`
	// DurabilityLost reports that the WAL has failed and writes are being
	// rejected (ErrDurabilityLost). LastWALError renders the failure that
	// tripped it.
	DurabilityLost bool   `json:"durability_lost,omitempty"`
	LastWALError   string `json:"last_wal_error,omitempty"`
	// PlanCacheHits/PlanCacheMisses count plan-cache lookups (a
	// stale-generation entry counts as a miss); PlanCacheSize is the
	// current entry count. All zero with WithPlanCacheSize(0).
	PlanCacheHits   uint64 `json:"plan_cache_hits"`
	PlanCacheMisses uint64 `json:"plan_cache_misses"`
	PlanCacheSize   int    `json:"plan_cache_size"`
	// ResultCacheHits/ResultCacheMisses/ResultCacheEvictions count
	// result-cache lookups and LRU/stale-generation evictions;
	// ResultCacheSize is the current entry count. All zero unless
	// WithResultCacheSize enabled the cache.
	ResultCacheHits      uint64 `json:"result_cache_hits"`
	ResultCacheMisses    uint64 `json:"result_cache_misses"`
	ResultCacheEvictions uint64 `json:"result_cache_evictions"`
	ResultCacheSize      int    `json:"result_cache_size"`
	// Drift lists per-member staleness (nil when drift tracking is off —
	// i.e. no base tables attached); Relearns counts completed background
	// re-learn hot-swaps, RelearnErrors failed attempts (LastRelearnError
	// renders the most recent failure).
	Drift            []DriftStat `json:"drift,omitempty"`
	Relearns         uint64      `json:"relearns"`
	RelearnErrors    uint64      `json:"relearn_errors"`
	LastRelearnError string      `json:"last_relearn_error,omitempty"`
}

// WALStats describes the write-ahead log inside UpdateStats.
type WALStats struct {
	// Dir is the log directory, Durability the fsync policy.
	Dir        string `json:"dir"`
	Durability string `json:"durability"`
	// LastLSN is the highest logged position, AppliedLSN the highest
	// applied-and-published one (their gap is the recovery backlog), and
	// CheckpointLSN the persisted save watermark.
	LastLSN       uint64 `json:"last_lsn"`
	AppliedLSN    uint64 `json:"applied_lsn"`
	CheckpointLSN uint64 `json:"checkpoint_lsn"`
	// Appended/Synced/Replayed/TruncatedSegments count this session's log
	// activity; Segments and SizeBytes are the on-disk footprint.
	Appended          uint64 `json:"appended"`
	Synced            uint64 `json:"synced"`
	Replayed          uint64 `json:"replayed"`
	TruncatedSegments uint64 `json:"truncated_segments"`
	Segments          int    `json:"segments"`
	SizeBytes         int64  `json:"size_bytes"`
}

// DriftStat is one ensemble member's staleness reading inside UpdateStats:
// its table set, the mutations on those tables since its baseline (raw and
// as a fraction of the baseline row count), the largest σ-normalized
// column-mean shift and the column attaining it, and its completed
// re-learns.
type DriftStat = drift.Score

// UpdateStats reports the update pipeline's counters, plus the background
// re-learner's failure record.
func (db *DB) UpdateStats() UpdateStats {
	s := db.snapshotNow()
	out := UpdateStats{
		Generation:      s.gen,
		SyncUpdates:     db.cfg.syncUpdates,
		PlanCacheSize:   db.plans.size(),
		ResultCacheSize: db.resCache.size(),
	}
	if cause := db.walErr.Load(); cause != nil {
		out.DurabilityLost, out.LastWALError = true, *cause
	}
	if db.plans != nil {
		out.PlanCacheHits, out.PlanCacheMisses = db.plans.hits.Load(), db.plans.misses.Load()
	}
	if db.resCache != nil {
		out.ResultCacheHits, out.ResultCacheMisses = db.resCache.hits.Load(), db.resCache.misses.Load()
		out.ResultCacheEvictions = db.resCache.evictions.Load()
	}
	q := db.pipe.Stats()
	out.QueueDepth, out.Enqueued, out.Applied, out.Batches = q.QueueDepth, q.Enqueued, q.Applied, q.Batches
	out.Errors, out.LastError, out.LastBatch = q.Errors, q.LastError, q.LastBatch
	out.LastApplyDuration, out.ApplyLag = q.LastApplyDuration.Microseconds(), q.ApplyLag.Microseconds()
	if db.wal != nil {
		w := db.wal.Stats()
		out.WAL = &WALStats{
			Dir:               db.cfg.walDir,
			Durability:        db.cfg.durability.String(),
			LastLSN:           w.LastLSN,
			AppliedLSN:        s.lsn,
			CheckpointLSN:     w.CheckpointLSN,
			Appended:          w.Appended,
			Synced:            w.Synced,
			Replayed:          w.Replayed,
			TruncatedSegments: w.TruncatedSegments,
			Segments:          w.Segments,
			SizeBytes:         w.SizeBytes,
		}
	}
	if d := s.ens.Drift; d != nil {
		out.Drift = d.Scores()
		out.Relearns = d.Relearns()
	}
	out.RelearnErrors = db.relearnFails.Load()
	db.relearnMu.Lock()
	out.LastRelearnError = db.relearnErr
	db.relearnMu.Unlock()
	return out
}
