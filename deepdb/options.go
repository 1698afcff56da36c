package deepdb

import (
	"repro/internal/core"
	"repro/internal/drift"
	"repro/internal/ensemble"
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

// config is the resolved option set of one DB.
type config struct {
	ens         ensemble.Config
	dataDir     string
	dataset     Dataset
	planCache   int
	resultCache int
	syncUpdates bool
	queueSize   int
	maxBatch    int
	walDir      string
	durability  Durability
	driftFrac   float64
	driftShift  float64
	nonBlocking bool
}

// driftThresholds assembles the re-learn trigger configuration.
func (c *config) driftThresholds() drift.Thresholds {
	return drift.Thresholds{MutatedFraction: c.driftFrac, MeanShift: c.driftShift}
}

// defaultPlanCacheSize bounds the plan cache when WithPlanCacheSize is not
// given: generous for realistic workloads (shapes are per query template,
// not per literal), small enough to keep eviction cheap.
const defaultPlanCacheSize = 128

// defaultQueueSize bounds the update queue (operations) and
// defaultMaxBatch the operations the applier coalesces into one batch.
const (
	defaultQueueSize = 1024
	defaultMaxBatch  = 256
)

// defaultConfig sizes the update machinery with the defaults above; only
// tests choose other sizes, through test-build options (export_test.go).
func defaultConfig() config {
	return config{
		ens:       ensemble.DefaultConfig(),
		planCache: defaultPlanCacheSize,
		queueSize: defaultQueueSize,
		maxBatch:  defaultMaxBatch,
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

// WithSyncUpdates makes Insert/Delete wait, inside the write
// lock, until their group is applied and published: the
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
// attached base tables when the log has records to replay. A directory
// holding shard-<i> subdirectories (the per-shard logs of a partitioned
// deployment) is refused with the steps that fold them into one log.
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

// WithNonBlockingUpdates makes Insert/Delete shed with ErrQueueFull
// when the update queue is full, instead of blocking until the applier
// catches up. Serving front-ends use this to turn backpressure into
// 429 + Retry-After rather than pinning handler goroutines. A shed group
// is neither logged nor enqueued.
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
