package deepdb

// updates.go is the DB's write half: one broadcast path from
// Insert/Delete into every shard (log everywhere, then Submit
// everywhere), the fail-stop on WAL loss, and the lifecycle operations
// (Flush, Save, Reload, Close) that fan out over the shards.
//
// Correctness model, in brief:
//
//   - Mutations are broadcast to every shard. A shard only serves the
//     members it owns, but incremental updates touch the base tables and
//     per-member structures of whichever members cover the mutated table —
//     and cross-shard FK tuple-factor bumps mean a write routed to "its"
//     shard only would desynchronize the others. Broadcast keeps every
//     shard's sub-ensemble bit-identical to the corresponding slice of a
//     one-shard DB fed the same stream.
//   - Durability: every accepted group is appended to each shard's WAL
//     before it enters that shard's queue, so a crash — even kill -9 —
//     loses nothing that was acknowledged under DurabilitySync (and at most
//     the configured batching window otherwise). Shards replay the
//     unapplied suffix on open; replay followed by Flush is bit-identical
//     to a run that never crashed, because the applier's batch==sequential
//     equivalence makes group boundaries irrelevant to the final state.
//   - Each shard snapshot carries an ops token: the cumulative count of
//     mutations it has processed (applied or deterministically failed).
//     The DB recomposes its serving view only when all shards agree on
//     it (see recomposeLocked).

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/drift"
	"repro/internal/ensemble"
	"repro/internal/shard"
)

// ErrQueueFull is returned by Insert/Delete under
// WithNonBlockingUpdates when some shard's update queue has no free slot:
// the mutation was NOT accepted — not logged, not enqueued, on any shard —
// and the caller should retry later. Serving front-ends map it to 429 +
// Retry-After. Test with errors.Is.
var ErrQueueFull = errors.New("deepdb: update queue full, retry later")

// ErrDurabilityLost is returned by Insert/Delete once the WAL has
// failed (disk full, I/O error): the mutation was NOT accepted anywhere
// and writes stay rejected until the process restarts on a healthy disk —
// no acknowledged write is ever less durable than the configured mode
// promises. Serving front-ends map it to 503; UpdateStats.DurabilityLost
// and a "degraded" /healthz carry the warning while reads keep serving.
// Test with errors.Is.
var ErrDurabilityLost = errors.New("deepdb: WAL durability lost, writes are not crash-safe")

// Insert absorbs one new base-table row into the model incrementally
// (Section 5.2 of the paper): no retraining happens. Missing columns
// become NULL. The mutation is logged (with a WAL) and submitted to every
// shard's applier; it becomes visible to queries when its batch's snapshot
// is published, and apply errors are reported by the next Flush — or, under
// WithSyncUpdates, by the call itself, which then waits for the publish.
func (db *DB) Insert(table string, values map[string]Value) error {
	return db.mutateAll([]ensemble.Mutation{{Op: ensemble.OpInsert, Table: table, Values: values}})
}

// Delete removes the base-table row with the given primary key from the
// model incrementally. Submitted like Insert: a missing row is an apply
// error reported by the next Flush (the call's own under WithSyncUpdates).
func (db *DB) Delete(table string, pk float64) error {
	return db.mutateAll([]ensemble.Mutation{{Op: ensemble.OpDelete, Table: table, PK: pk}})
}

// mutateAll broadcasts one mutation group to every shard.
func (db *DB) mutateAll(muts []ensemble.Mutation) error {
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
	if db.cfg.nonBlocking {
		// Admission is all-or-nothing and comes BEFORE the append: a record
		// logged but rejected with ErrQueueFull would still replay after a
		// restart, silently re-applying a write the caller was told to
		// retry. Under mutMu no other producer can steal the checked slots;
		// a concurrent Flush barrier can, which makes the submit below block
		// for at most one apply cycle — never shed.
		for _, sh := range db.shards {
			if !sh.HasCapacity() {
				return ErrQueueFull
			}
		}
	}
	// The broadcast is split into a log-everywhere phase and a
	// submit-everywhere phase so a WAL failure on shard k surfaces before
	// ANY shard has been mutated: the group is rejected with no shard
	// applying it (shards 0..k-1 carry a logged-but-never-acked tail record,
	// which the compose-or-refuse check catches on the next open — see the
	// runbook), and every later write fails the same way.
	if cause := db.walErr.Load(); cause != nil {
		return fmt.Errorf("%w: %s", ErrDurabilityLost, *cause)
	}
	lsns := make([]uint64, len(db.shards))
	for i, sh := range db.shards {
		lsn, err := sh.Log(muts)
		if err != nil {
			cause := err.Error()
			db.walErr.Store(&cause) // first and only: the check above rejects every later write
			return fmt.Errorf("%w: %w", ErrDurabilityLost, err)
		}
		lsns[i] = lsn
	}
	// Every shard gets the group even if one reports a failure: apply
	// failures are deterministic across shards, and skipping the rest would
	// misalign them. Under WithSyncUpdates each Submit waits for the group's
	// own result: mutMu keeps every other producer out, so the batch is this
	// group alone and its error indexes the group's rows.
	var first error
	for i, sh := range db.shards {
		if err := sh.Submit(muts, lsns[i], db.cfg.syncUpdates); err != nil && first == nil {
			first = err
		}
	}
	if db.peers != nil {
		db.forwardPeers(muts)
	}
	return first
}

// Flush blocks until every mutation submitted before the call has been
// applied and published on every shard — after Flush returns, queries (and
// Save, Exact, Data) observe those writes, bit-identical however the
// applier happened to batch them. It returns the first apply error since
// the previous Flush. A no-op when nothing is pending.
func (db *DB) Flush(ctx context.Context) error {
	var first error
	for _, sh := range db.shards {
		if err := sh.Flush(ctx); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// quiesce drains the update queues and returns holding mutMu, with every
// shard caught up and aligned: the serving view is then exactly the state at
// the shards' apply watermarks. The bulk of the drain happens before the
// lock is taken, so writers wait only for what slipped in between — and for
// whatever the caller does before unlocking, which must stay short.
func (db *DB) quiesce() error {
	ctx := context.Background()
	if err := db.Flush(ctx); err != nil {
		return err
	}
	db.mutMu.Lock()
	if err := db.Flush(ctx); err != nil {
		db.mutMu.Unlock()
		return err
	}
	return nil
}

// Save writes the model (ensemble, dependency and per-table statistics,
// schema) to path, atomically (temp file + rename). Pending updates are
// flushed first, so the file reflects every mutation accepted
// before the call; writers are held off only while the view to save is
// picked, not while it is written. The base tables are not serialized; the
// persisted statistics are enough to serve queries, and Open can reattach
// the data like a database reopening its files. With a WAL attached, a
// successful Save also checkpoints every shard's log at its applied
// watermark: the save covers everything up to that LSN, so replay skips
// those records from now on and segments they fully occupy are deleted.
func (db *DB) Save(path string) error {
	// Pick the view and the watermarks at one quiescent point: with
	// broadcasts still running, some shard's watermark could be ahead of the
	// composed view, and checkpointing there would drop a record the file
	// does not contain. The snapshot is immutable, so it is serialized after
	// the writers have been let back in.
	if err := db.quiesce(); err != nil {
		return err
	}
	s := db.snapshotNow()
	lsns := make([]uint64, len(db.shards))
	for i, sh := range db.shards {
		lsns[i] = sh.AppliedLSN()
	}
	db.mutMu.Unlock()
	if err := s.ens.SaveFile(path); err != nil {
		return err
	}
	for i, sh := range db.shards {
		if err := sh.Checkpoint(lsns[i]); err != nil {
			return err
		}
	}
	return nil
}

// Reload hot-swaps the serving model with the one in modelPath — e.g. a
// re-learned artifact produced offline — without any read downtime: the
// new model travels through the same snapshot-publication path as update
// batches, so in-flight queries finish on the old snapshot and later ones
// see the new generation atomically, on every shard at once: each shard's
// part is published with its ops token preserved, and the DB recomposes
// only after the last one — all-old or all-new, never a mix. Pending
// updates are flushed into the old model first (they were acked against
// it); the current base tables, if any, are carried over so
// updates and exact execution keep working. Writers are held off only for
// the swap itself (attaching the tables and publishing), not while the
// model file is read or the queues drain. A partitioned DB keeps its
// partition, so the new model must have the serving one's member count.
// On any error the old model keeps serving.
func (db *DB) Reload(modelPath string) error {
	ens, err := ensemble.LoadFile(modelPath, nil)
	if err != nil {
		return err
	}
	if err := db.quiesce(); err != nil {
		return err
	}
	defer db.mutMu.Unlock()
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
	// Carve every part before publishing any: a failure here must leave
	// all shards on the old model, not some.
	parts := make([]*ensemble.Ensemble, len(db.shards))
	for i, sh := range db.shards {
		if parts[i], err = sh.Carve(ens); err != nil {
			return err
		}
	}
	for i, sh := range db.shards {
		sh.Publish(parts[i])
	}
	db.recompose()
	return nil
}

// Close stops the peer prober, drains and stops every shard's update
// pipeline (each waiting at most 30s), syncs and closes the WALs, waits for
// an in-flight background re-learn, and returns the first undelivered apply
// error (or the drain-timeout error; with a WAL the undrained queue remains
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
	if db.probeStop != nil {
		close(db.probeStop)
		db.probeWG.Wait()
	}
	// Raise the re-learn barrier before draining: a trigger tripped by the
	// drain's own batches backs off instead of starting work Close would
	// then have to wait for.
	db.relearnMu.Lock()
	db.relearnClosed = true
	db.relearnMu.Unlock()
	err := db.closeShards()
	db.relearnWG.Wait()
	return err
}

// closeShards closes every shard and returns the first error.
func (db *DB) closeShards() error {
	var first error
	for _, sh := range db.shards {
		if err := sh.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
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
	// The queue fields aggregate over the shards (per-shard detail is in
	// ShardStats): counters are summed — a broadcast counts once
	// per shard — and the last-batch readings are the maximum.
	//
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
	// WAL describes the write-ahead log (nil without WithWAL), aggregated
	// over the shards' logs: activity counters and footprint are summed,
	// LastLSN is the highest logged position and AppliedLSN/CheckpointLSN
	// the lowest watermarks.
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

// walStatsOf converts one shard's log counters (nil without a WAL).
func walStatsOf(st shard.Stats, durability Durability) *WALStats {
	if st.WAL == nil {
		return nil
	}
	return &WALStats{
		Dir:               st.WALDir,
		Durability:        durability.String(),
		LastLSN:           st.WAL.LastLSN,
		AppliedLSN:        st.WALAppliedLSN,
		CheckpointLSN:     st.WAL.CheckpointLSN,
		Appended:          st.WAL.Appended,
		Synced:            st.WAL.Synced,
		Replayed:          st.WAL.Replayed,
		TruncatedSegments: st.WAL.TruncatedSegments,
		Segments:          st.WAL.Segments,
		SizeBytes:         st.WAL.SizeBytes,
	}
}

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
	for _, sh := range db.shards {
		st := sh.Stats()
		out.QueueDepth += st.Queue.QueueDepth
		out.Enqueued += st.Queue.Enqueued
		out.Applied += st.Queue.Applied
		out.Batches += st.Queue.Batches
		out.Errors += st.Queue.Errors
		if out.LastError == "" {
			out.LastError = st.Queue.LastError
		}
		out.LastBatch = max(out.LastBatch, st.Queue.LastBatch)
		out.LastApplyDuration = max(out.LastApplyDuration, st.Queue.LastApplyDuration.Microseconds())
		out.ApplyLag = max(out.ApplyLag, st.Queue.ApplyLag.Microseconds())
		w := walStatsOf(st, db.cfg.durability)
		switch {
		case w == nil:
		case out.WAL == nil:
			w.Dir = db.cfg.walDir
			out.WAL = w
		default:
			a := out.WAL
			a.LastLSN = max(a.LastLSN, w.LastLSN)
			a.AppliedLSN = min(a.AppliedLSN, w.AppliedLSN)
			a.CheckpointLSN = min(a.CheckpointLSN, w.CheckpointLSN)
			a.Appended += w.Appended
			a.Synced += w.Synced
			a.Replayed += w.Replayed
			a.TruncatedSegments += w.TruncatedSegments
			a.Segments += w.Segments
			a.SizeBytes += w.SizeBytes
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
