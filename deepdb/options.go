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

// Defaults for the sharded tier's peer hardening knobs. The zero values
// in config mean "use these"; the With* options override per DB.
const (
	defaultPeerProbeInterval = 2 * time.Second
)

// config is the resolved option set of one DB.
type config struct {
	ens         ensemble.Config
	parallelism int
	dataDir     string
	dataset     Dataset
	planCache   int
	resultCache int
	syncUpdates bool
	queueSize   int
	walDir      string
	durability  Durability
	driftFrac   float64
	driftShift  float64
	shards      int
	shardPeers  []string
	nonBlocking bool

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
		QueueSize:  c.queueSize,
		WALDir:     walDir,
		Durability: c.durability.wal(),
	}
}

// defaultPlanCacheSize bounds the plan cache when WithPlanCacheSize is not
// given: generous for realistic workloads (shapes are per query template,
// not per literal), small enough to keep eviction cheap.
const defaultPlanCacheSize = 128

// defaultConfig leaves the update machinery's sizes to internal/shard: a
// 1024-slot queue, 256 operations per applied batch and a 30s drain on
// Close. The zero queue size and peer settings mean "the layer's default";
// only tests set them, to test-scale values (export_test.go).
func defaultConfig() config {
	return config{ens: ensemble.DefaultConfig(), planCache: defaultPlanCacheSize}
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
// and for evaluating a query: an execution collects every SPN request it
// needs (all group keys, Theorem-2 sides and inclusion-exclusion terms)
// into batches and evaluates about n chunks of them concurrently. Values
// <= 1 run sequentially (the default). Results are identical either way;
// only wall-clock time changes.
func WithParallelism(n int) Option {
	return func(c *config) {
		c.parallelism = n
		c.ens.Parallelism = n
	}
}

// WithSingleTableOnly learns one RSPN per table and no join RSPNs — the
// paper's cheap fallback configuration.
//
//deepdb:testonly the paper's cheap fallback configuration, not tuning
func WithSingleTableOnly() Option {
	return func(c *config) { c.ens.SingleTableOnly = true }
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
// snapshot — an update batch, Reload, a background re-learn hot-swap —
// invalidates them wholesale; a hit never serves an
// estimate computed against a superseded model state. Streaming reads
// (QueryRows) bypass the cache.
func WithResultCacheSize(n int) Option {
	return func(c *config) { c.resultCache = n }
}

// WithSyncUpdates makes Insert/Delete wait, inside the broadcast
// lock, until their group is applied and published on every shard: the
// caller sees its own write on the very next query and gets the group's
// apply error (with the failing row's index) from the call itself — never
// a concurrent Flush or Save in its place — at the cost of one
// copy-on-write apply and one snapshot per call (writers wait on each
// other; readers still never block). The default returns once the group is
// queued and lets the applier coalesce. Same write path, same final state
// — the equivalence suites' batch-of-one reference.
//
//deepdb:testonly reference path of the sync == async equivalence suites
func WithSyncUpdates() Option {
	return func(c *config) { c.syncUpdates = true }
}

// WithWAL enables the durable write-ahead log in dir (created if missing).
// Every Insert/Delete call appends its mutation group to the log
// before it enters the update queue, and opening a DB with the same WAL
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

// WithDriftThreshold arms background re-learning on update volume: when
// the fraction of an ensemble member's rows mutated since it was learned
// exceeds frac (e.g. 0.2 = 20%), the member is re-learned from the current
// base tables in the background and hot-swapped into the serving snapshot
// — readers never block, and the paper's incremental-update approximations
// are periodically squashed out. <= 0 (the default) disables the trigger.
// Re-learning needs the whole ensemble in one shard: together with
// WithShards(n > 1) or WithShardPeers the constructor refuses an armed
// trigger instead of ignoring it.
func WithDriftThreshold(frac float64) Option {
	return func(c *config) { c.driftFrac = frac }
}

// WithDriftMeanShift arms background re-learning on distribution drift:
// re-learn a member when any of its attribute columns' mean moved more
// than sigma baseline standard deviations since it was learned. <= 0 (the
// default) disables the signal. Combines with WithDriftThreshold —
// whichever trips first wins.
//
//deepdb:testonly a distinct drift signal, not a tuning of WithDriftThreshold
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
// reading CSVs from a directory. The tables are augmented in place with
// synthetic tuple-factor (__fk_*) columns, like LearnDataset's.
//
//deepdb:testonly input (already-loaded tables), not tuning
func WithDataset(ds Dataset) Option {
	return func(c *config) { c.dataset = ds }
}

// WithShards partitions the ensemble's members over n shards, each with its
// own update queue and — with WithWAL — its own log in subdirectory
// shard-<i> of the WAL dir (default 1: one shard holds the whole ensemble
// and logs into the WAL dir itself). The effective count, reported by
// Shards, may be lower when the ensemble has fewer members than n. Answers
// are bit-identical at every n; what needs the whole ensemble in one shard
// — the drift triggers — is refused for n > 1.
func WithShards(n int) Option {
	return func(c *config) { c.shards = n }
}

// WithShardPeers binds shard replica processes (one base URL per shard, in
// shard order — e.g. started with `deepdb shard -index i`): evaluation
// chunks of members owned by shard i are offloaded to peers[i], and
// mutations are forwarded so replicas stay in lockstep. Any replica failure
// falls back to the local model, so results are bit-identical with or
// without peers. Replicas compute the partition themselves, so a DB with
// peers is partitioned like WithShards(n > 1) — even for n = 1 — with the
// same per-shard WAL layout and the same refusals.
func WithShardPeers(urls ...string) Option {
	return func(c *config) { c.shardPeers = append([]string(nil), urls...) }
}

// WithNonBlockingUpdates makes Insert/Delete shed with ErrQueueFull
// when the update queue is full, instead of blocking until the applier
// catches up. Serving front-ends use this to turn backpressure into
// 429 + Retry-After rather than pinning handler goroutines. Admission is
// all-or-nothing across shards: a shed group is logged and enqueued
// nowhere.
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
