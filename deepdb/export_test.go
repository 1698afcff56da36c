package deepdb

// export_test.go hands the external test package (deepdb_test) what only
// tests use:
//   - four settings nothing that ships selects: production runs the
//     defaults of internal/shard, while the backpressure and chaos suites
//     need a one-slot queue and millisecond retry/breaker/probe timing to
//     finish in test time, so they are Options only in the test build;
//   - a multi-row Update, whose single mutation group pins the write
//     path's all-or-nothing publish;
//   - the two cache sizes the cache suites read.

import (
	"time"

	"repro/internal/ensemble"
)

// WithUpdateQueueSize bounds the update queue (default
// 1024 operations; an Update(rows...) call occupies one slot). When the
// queue is full, Insert/Delete/Update block until the background applier
// catches up — backpressure instead of unbounded memory.
func WithUpdateQueueSize(n int) Option {
	return func(c *config) { c.queueSize = n }
}

// WithPeerRetries sets the per-request attempt budget and base backoff for
// replica /eval calls (defaults live in internal/shard: 3 attempts, 25ms
// jittered exponential backoff). Non-positive values keep the defaults.
func WithPeerRetries(attempts int, backoff time.Duration) Option {
	return func(c *config) {
		c.peerAttempts = attempts
		c.peerBackoff = backoff
	}
}

// WithPeerBreaker configures the per-peer circuit breaker: `threshold`
// consecutive failures open it for `cooldown`, during which requests to
// that replica fail fast to the local model; a health probe (or half-open
// trial) re-closes it after the peer heals. Non-positive values keep the
// defaults (5 failures, 2s cooldown).
func WithPeerBreaker(threshold int, cooldown time.Duration) Option {
	return func(c *config) {
		c.peerBreakThresh = threshold
		c.peerBreakCooldown = cooldown
	}
}

// WithPeerProbeInterval sets how often the router actively probes each
// replica's /healthz (default 2s), feeding the per-peer breaker and the
// health surfaces even when no query traffic flows. d <= 0 disables
// active probing (the breaker then relies on query traffic alone).
func WithPeerProbeInterval(d time.Duration) Option {
	return func(c *config) {
		if d <= 0 {
			c.peerProbeDisabled = true
			return
		}
		c.peerProbeDisabled = false
		c.peerProbeInterval = d
	}
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
	return db.mutateAll(muts)
}

// PlanCacheLen reports how many compiled plans are currently cached.
func (db *DB) PlanCacheLen() int { return db.plans.size() }

// ResultCacheLen reports how many query results and cardinality estimates
// are currently cached (0 unless WithResultCacheSize enabled the cache).
func (db *DB) ResultCacheLen() int { return db.resCache.size() }
