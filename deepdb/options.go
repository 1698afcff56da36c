package deepdb

import (
	"time"

	"repro/internal/core"
	"repro/internal/drift"
	"repro/internal/ensemble"
	"repro/internal/shard"
	"repro/internal/wal"
)

// Durability selects how eagerly WAL appends reach stable storage — see
// WithDurability.
type Durability int

const (
	// DurabilityBatched fsyncs the WAL every few appends or milliseconds
	// (group commit): bounded loss window, near-Off throughput. The default.
	DurabilityBatched Durability = iota
	// DurabilitySync fsyncs after every append: no acknowledged mutation is
	// ever lost, at per-append fsync cost.
	DurabilitySync
	// DurabilityOff never fsyncs from the append path; the OS decides when
	// pages reach disk. Torn or missing tail records are still detected and
	// truncated on recovery.
	DurabilityOff
)

// String renders the mode like the wal package does ("sync", "batched",
// "off").
func (d Durability) String() string { return d.wal().String() }

// wal maps to the internal WAL mode.
func (d Durability) wal() wal.Durability {
	switch d {
	case DurabilitySync:
		return wal.Sync
	case DurabilityOff:
		return wal.Off
	default:
		return wal.Batched
	}
}

// ParseDurability reads a mode name ("sync", "batched", "off"),
// case-sensitively; the CLI flags use it.
func ParseDurability(s string) (Durability, bool) {
	switch s {
	case "sync":
		return DurabilitySync, true
	case "batched":
		return DurabilityBatched, true
	case "off":
		return DurabilityOff, true
	}
	return DurabilityBatched, false
}

// defaultCloseTimeout bounds how long Close waits for the update pipeline
// to drain before giving up with an error.
const defaultCloseTimeout = 30 * time.Second

// WALErrorPolicy decides what happens to writes after the write-ahead log
// fails (disk full, I/O error on append or fsync) — see WithWALErrorPolicy.
type WALErrorPolicy int

const (
	// WALFailStop rejects every write once the WAL cannot persist it:
	// mutations return ErrDurabilityLost (the serving tier turns that into
	// 503) until the process is restarted against a healthy disk. No
	// acknowledged write is ever less durable than the configured mode
	// promises. The default.
	WALFailStop WALErrorPolicy = iota
	// WALDegradeVolatile keeps accepting writes into the in-memory pipeline
	// after a WAL failure, sacrificing crash-durability for availability.
	// The DB latches a loud health flag (UpdateStats.DurabilityLost, and
	// "degraded" on /healthz) so operators see the trade the moment it is
	// taken; a restart recovers only up to the last durable record.
	WALDegradeVolatile
)

func (p WALErrorPolicy) String() string {
	if p == WALDegradeVolatile {
		return "degrade-volatile"
	}
	return "fail-stop"
}

// Defaults for the sharded tier's peer hardening knobs. The zero values
// in config mean "use these"; the With* options override per DB.
const (
	defaultPeerProbeInterval = 2 * time.Second
)

// config is the resolved option set of one DB.
type config struct {
	ens          ensemble.Config
	parallelism  int
	dataDir      string
	dataset      Dataset
	planCache    int
	resultCache  int
	syncUpdates  bool
	queueSize    int
	maxBatch     int
	walDir       string
	durability   Durability
	closeTimeout time.Duration
	driftFrac    float64
	driftShift   float64
	shards       int
	shardPeers   []string
	nonBlocking  bool
	walPolicy    WALErrorPolicy

	// Peer hardening knobs (sharded tier with replicas). Zero = default.
	peerAttempts      int
	peerBackoff       time.Duration
	peerBreakThresh   int
	peerBreakCooldown time.Duration
	peerProbeInterval time.Duration
	peerProbeDisabled bool
}

// driftThresholds assembles the re-learn trigger configuration.
func (c *config) driftThresholds() drift.Thresholds {
	return drift.Thresholds{MutatedFraction: c.driftFrac, MeanShift: c.driftShift}
}

// shardConfig sizes one shard's update machinery; walDir is that shard's
// own log directory ("" runs it without a WAL).
func (c *config) shardConfig(walDir string) shard.Config {
	return shard.Config{
		QueueSize:    c.queueSize,
		MaxBatch:     c.maxBatch,
		WALDir:       walDir,
		Durability:   c.durability.wal(),
		CloseTimeout: c.closeTimeout,
	}
}

// defaultPlanCacheSize bounds the plan cache when WithPlanCacheSize is not
// given: generous for realistic workloads (shapes are per query template,
// not per literal), small enough to keep eviction cheap.
const defaultPlanCacheSize = 128

// Default bounds of the asynchronous update pipeline: the queue absorbs
// write bursts without blocking callers, the batch cap bounds how much
// work (and copy-on-write cloning) a single snapshot publication amortizes.
const (
	defaultUpdateQueueSize = 1024
	defaultUpdateBatchSize = 256
)

func defaultConfig() config {
	return config{
		ens:       ensemble.DefaultConfig(),
		planCache: defaultPlanCacheSize,
		queueSize: defaultUpdateQueueSize,
		maxBatch:  defaultUpdateBatchSize,

		closeTimeout: defaultCloseTimeout,
	}
}

func (c *config) apply(opts []Option) {
	for _, o := range opts {
		o(c)
	}
}

// Option customizes Learn/LearnDataset/Open.
type Option func(*config)

// WithBudget sets the ensemble budget factor B of Section 5.3: additional
// multi-table RSPNs are admitted until their accumulated relative cost
// exceeds B times the base ensemble's cost. 0 disables them.
func WithBudget(b float64) Option {
	return func(c *config) { c.ens.BudgetFactor = b }
}

// WithMaxSamples caps the training rows per RSPN.
func WithMaxSamples(n int) Option {
	return func(c *config) { c.ens.MaxSamples = n }
}

// WithParallelism bounds the worker count for learning ensemble members
// and for each fan-out of a query's independent sub-estimates: GROUP BY
// per-group estimates, Theorem-2 branch sub-estimates, and disjunction
// inclusion-exclusion terms. The bound applies per fan-out (nested
// fan-outs each get their own workers, so deeply compiled queries may run
// more goroutines in total). Values <= 1 run sequentially (the default).
// Results are identical either way; only wall-clock time changes.
func WithParallelism(n int) Option {
	return func(c *config) {
		c.parallelism = n
		c.ens.Parallelism = n
	}
}

// WithSingleTableOnly learns one RSPN per table and no join RSPNs — the
// paper's cheap fallback configuration.
func WithSingleTableOnly() Option {
	return func(c *config) { c.ens.SingleTableOnly = true }
}

// WithExactLearner builds memorizing models instead of running structure
// learning; intended for tiny data sets and tests.
func WithExactLearner() Option {
	return func(c *config) { c.ens.Exact = true }
}

// WithPlanCacheSize bounds the LRU cache of compiled query plans, keyed on
// normalized query shape (default 128 entries). Cached plans make repeated
// Query/EstimateCardinality calls of the same shape skip recompilation;
// prepared statements pin their plan regardless. 0 disables the cache
// (every unprepared call compiles from scratch).
func WithPlanCacheSize(n int) Option {
	return func(c *config) { c.planCache = n }
}

// WithResultCacheSize enables the cross-query result cache and bounds it
// to roughly n entries (LRU, hash-sharded; default 0 = disabled). The
// cache sits in front of plan execution: a repeated Query,
// EstimateCardinality or Stmt.Exec/ExecBatch/Estimate call with the same
// query shape, the same bound literal values and the same effective
// confidence level is answered from the cache, bit-identical to executing
// it. Entries are tagged with the snapshot generation, so any published
// snapshot — an update batch, Reload, a background re-learn hot-swap,
// CheckStaleness — invalidates them wholesale; a hit never serves an
// estimate computed against a superseded model state. Streaming reads
// (QueryRows) bypass the cache.
func WithResultCacheSize(n int) Option {
	return func(c *config) { c.resultCache = n }
}

// WithSyncUpdates makes Insert/Delete/Update apply and publish their
// mutations before returning — the pre-pipeline semantics: the caller sees
// its own write on the very next query without calling Flush, at the cost
// of paying the copy-on-write apply inline (writers wait on each other;
// readers still never block). The asynchronous default enqueues instead
// and applies in coalesced batches in the background. It means the same at
// every shard count: a sharded DB applies the group on every shard before
// returning.
func WithSyncUpdates() Option {
	return func(c *config) { c.syncUpdates = true }
}

// WithUpdateQueueSize bounds the asynchronous update queue (default
// 1024 operations; an Update(rows...) call occupies one slot). When the
// queue is full, Insert/Delete/Update block until the background applier
// catches up — backpressure instead of unbounded memory. Ignored under
// WithSyncUpdates.
func WithUpdateQueueSize(n int) Option {
	return func(c *config) { c.queueSize = n }
}

// WithUpdateBatchSize caps how many queued update operations the
// background applier coalesces into one copy-on-write batch and snapshot
// publication (default 256; the rows of one Update call count as one
// operation and are never split across snapshots). Larger batches
// amortize cloning and evaluator recompiles over more rows; smaller ones
// publish fresher snapshots.
func WithUpdateBatchSize(n int) Option {
	return func(c *config) { c.maxBatch = n }
}

// WithWAL enables the durable write-ahead log in dir (created if missing).
// Every Insert/Delete/Update call appends its mutation group to the log
// before it enters the pipeline queue, and opening a DB with the same WAL
// directory replays whatever a previous process accepted but had not saved
// — after a crash (even kill -9), replay followed by Flush reproduces the
// pre-crash state bit-identically. Save checkpoints the log (the applied
// watermark is persisted and fully-saved segments are deleted). Requires
// attached base tables when the log has records to replay.
func WithWAL(dir string) Option {
	return func(c *config) { c.walDir = dir }
}

// WithDurability selects the WAL fsync policy (default DurabilityBatched).
// Only meaningful together with WithWAL.
func WithDurability(d Durability) Option {
	return func(c *config) { c.durability = d }
}

// WithCloseTimeout bounds how long Close waits for the background pipeline
// to drain (default 30s). On timeout Close returns an error; the remaining
// queue keeps applying in the background but is not guaranteed durable in
// the model file (with a WAL it is still recoverable). d <= 0 waits
// without bound.
func WithCloseTimeout(d time.Duration) Option {
	return func(c *config) { c.closeTimeout = d }
}

// WithDriftThreshold arms background re-learning on update volume: when
// the fraction of an ensemble member's rows mutated since it was learned
// exceeds frac (e.g. 0.2 = 20%), the member is re-learned from the current
// base tables in the background and hot-swapped into the serving snapshot
// — readers never block, and the paper's incremental-update approximations
// are periodically squashed out. <= 0 (the default) disables the trigger.
// Re-learning needs the whole ensemble in one shard: the sharded
// constructors refuse an armed trigger instead of ignoring it.
func WithDriftThreshold(frac float64) Option {
	return func(c *config) { c.driftFrac = frac }
}

// WithDriftMeanShift arms background re-learning on distribution drift:
// re-learn a member when any of its attribute columns' mean moved more
// than sigma baseline standard deviations since it was learned. <= 0 (the
// default) disables the signal. Combines with WithDriftThreshold —
// whichever trips first wins.
func WithDriftMeanShift(sigma float64) Option {
	return func(c *config) { c.driftShift = sigma }
}

// WithDataDir tells Open where the base-table CSVs live; they are loaded
// with the schema persisted inside the model file. Learn ignores it (its
// data dir is a positional argument).
func WithDataDir(dir string) Option {
	return func(c *config) { c.dataDir = dir }
}

// WithDataset attaches already-loaded base tables to Open, instead of
// reading CSVs from a directory.
func WithDataset(ds Dataset) Option {
	return func(c *config) { c.dataset = ds }
}

// WithShards asks OpenSharded/LearnDatasetSharded for n partitions
// (default 1). The effective count may be lower when the ensemble has
// fewer members than n. Other constructors ignore it.
func WithShards(n int) Option {
	return func(c *config) { c.shards = n }
}

// WithShardPeers binds shard replica processes (one base URL per shard, in
// shard order — e.g. started with `deepdb shard -index i`) to a sharded
// DB: evaluation chunks of members owned by shard i are offloaded to
// peers[i], and mutations are forwarded so replicas stay in lockstep. Any
// replica failure falls back to the local model, so results are
// bit-identical with or without peers.
func WithShardPeers(urls ...string) Option {
	return func(c *config) { c.shardPeers = append([]string(nil), urls...) }
}

// WithWALErrorPolicy decides how the DB behaves once the WAL fails
// (default WALFailStop: reject writes with ErrDurabilityLost;
// WALDegradeVolatile: keep serving writes in memory under a loud health
// flag). Only meaningful together with WithWAL.
func WithWALErrorPolicy(p WALErrorPolicy) Option {
	return func(c *config) { c.walPolicy = p }
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

// WithNonBlockingUpdates makes Insert/Delete/Update shed with ErrQueueFull
// when the update queue is full, instead of blocking until the applier
// catches up. Serving front-ends use this to turn backpressure into
// 429 + Retry-After rather than pinning handler goroutines. Admission is
// all-or-nothing across shards: a shed group is logged and enqueued
// nowhere. Ignored under WithSyncUpdates.
func WithNonBlockingUpdates() Option {
	return func(c *config) { c.nonBlocking = true }
}

// ---- per-call execution options ----

// execOpts is the resolved per-call option set.
type execOpts struct {
	confidence float64 // 0 = DB default
}

// ExecOption customizes a single query execution (Query, ExecuteQuery,
// EstimateCardinality, Stmt.Exec/ExecBatch/Estimate) without touching the
// DB-wide configuration.
type ExecOption func(*execOpts)

// AtConfidence sets the confidence-interval level (default 0.95) for one
// call.
func AtConfidence(level float64) ExecOption {
	return func(o *execOpts) { o.confidence = level }
}

// resolveExec folds the per-call options into one set.
func resolveExec(opts []ExecOption) execOpts {
	var o execOpts
	for _, f := range opts {
		f(&o)
	}
	return o
}

// core converts to the engine's per-execution options.
func (o execOpts) core() core.ExecOpts {
	return core.ExecOpts{ConfidenceLevel: o.confidence}
}

// levelOr resolves the effective confidence level for facade-side interval
// computation and result-cache keys, falling back to the engine's default.
func (o execOpts) levelOr(def float64) float64 {
	if o.confidence > 0 && o.confidence < 1 {
		return o.confidence
	}
	if def <= 0 || def >= 1 {
		def = 0.95
	}
	return def
}
