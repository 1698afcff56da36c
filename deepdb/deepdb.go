// Package deepdb is the public facade of this DeepDB reproduction
// (Hilprecht et al., PVLDB 13(7): DeepDB — Learn from Data, not from
// Queries!). It is the one package consumers import: learn an RSPN
// ensemble once over relational data, then serve cardinality estimates and
// approximate aggregate queries from the model — without touching the data
// again — and absorb inserts/deletes incrementally without retraining.
//
//	db, err := deepdb.Learn(ctx, schema, "data/", deepdb.WithBudget(0.5))
//	res, err := db.Query(ctx, "SELECT AVG(price) FROM orders WHERE region = 'EU'")
//	est, err := db.EstimateCardinality(ctx, "SELECT COUNT(*) FROM orders JOIN customers")
//	err = db.Save("model.deepdb")
//	db, err = deepdb.Open(ctx, "model.deepdb", deepdb.WithDataDir("data/"))
//
// Queries run through a compile/execute split: every call compiles (or
// fetches from a bounded LRU plan cache, keyed on normalized query shape)
// a plan that is then executed with the call's literal values. For
// high-QPS serving of a repeated query template, prepare it once:
//
//	stmt, err := db.Prepare("SELECT COUNT(*) FROM orders WHERE o_amount >= ?")
//	res, err := stmt.Exec(ctx, 100)                       // binds ? = 100
//	batch, err := stmt.ExecBatch(ctx, [][]any{{50}, {90}}) // many bindings, one snapshot
//
// # Snapshot isolation and updates
//
// A database handle serves queries from immutable published snapshots:
// every Query/EstimateCardinality/Prepare/Exec loads the current snapshot
// with one atomic pointer read and runs entirely against it, so reads never
// block — not on each other and not on writes. Insert/Delete/Update
// submit their mutation group to a background applier, which coalesces
// whatever has queued up into batches, applies each batch to a private
// copy-on-write clone (only the touched tables and models are copied) and
// atomically publishes the result as the next snapshot. Mutations are
// applied in submission order; Flush blocks until everything submitted
// before it is published (read-your-writes) and reports apply errors.
// WithSyncUpdates makes every write call wait for its own group and return
// its apply error; the final state is bit-identical either way.
// UpdateStats exposes queue depth, apply lag and batch counters; Close
// drains the pipeline.
//
// # One host, N shards
//
// All of the above is one implementation: a host over N >= 1 shards
// (internal/shard), each of which owns the write machinery — WAL, update
// queue, copy-on-write apply, publish, replay, checkpoint — for its part
// of the ensemble. Every mutation is broadcast to every shard, and the host
// recomposes its serving view whenever the shards publish a common point
// of the stream. *DB is the host over one shard that holds the whole
// ensemble; *ShardedDB is the same host over a partition of the members
// (WithShards), plus replica offload (WithShardPeers). Answers are
// bit-identical at every shard count.
package deepdb

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/ensemble"
	"repro/internal/exact"
	"repro/internal/query"
	"repro/internal/rspn"
	"repro/internal/shard"
)

// snapshot is one immutable published serving view: an ensemble state, the
// engine compiled against it, and the generation it was published at.
// Snapshots are never mutated after publication — updates clone and
// publish a successor — so any number of readers can use one concurrently
// without coordination, and a reader holding an old snapshot keeps a
// consistent view while newer generations are published.
type snapshot struct {
	ens *ensemble.Ensemble
	eng *core.Engine
	// gen counts publications of a changed ensemble (update batches in
	// which something applied, Reload, re-learn hot-swaps, CheckStaleness);
	// cached plans, cached results and prepared statements are tagged with
	// it and recompiled or dropped when it moves.
	gen uint64
}

// host is the one database implementation behind *DB and *ShardedDB: the
// composed serving view of N >= 1 shards, the plan and result caches in
// front of it, and the broadcast write path into the shards. The shards
// own everything below the broadcast (log, queue, apply, publish, replay,
// checkpoint); the host owns what must be decided once for all of them —
// admission, the fail-stop on WAL loss, and when the shards' snapshots form
// a consistent view. All methods are safe for concurrent use; queries never
// block on updates.
type host struct {
	cfg    config
	shards []*shard.Shard
	// total is the member count of the ensemble the shards partition.
	total int

	// snap is the current composed serving view; the read path loads it
	// once per call and never takes a lock. Stored only by publishLocked.
	snap atomic.Pointer[snapshot]
	// viewMu serializes recomposition. viewOps is the shards' common ops
	// token the view was last composed at; dirty records that some shard
	// has published a changed ensemble since then.
	viewMu  sync.Mutex
	viewOps uint64
	dirty   bool

	// plans caches compiled query plans by normalized shape
	// (query.ShapeKey; nil when disabled via WithPlanCacheSize(0)); resCache
	// caches finished query results and cardinality estimates across calls
	// (nil unless WithResultCacheSize enabled it), keyed on (shape, bound
	// literal values, confidence level). Both are tagged with the snapshot
	// generation.
	plans    *genLRU[*core.Plan]
	resCache *genLRU[cachedResult]

	// mutMu serializes broadcasts so every shard — and every replica —
	// observes the identical mutation stream in the identical order, and
	// every shard's LSN order equals its apply order.
	mutMu  sync.Mutex
	closed bool

	// walErr latches the first WAL append or fsync failure on any shard:
	// non-nil means durability is lost and writes are rejected from then
	// on; the text is the cause UpdateStats and /healthz report.
	walErr atomic.Pointer[string]

	// wire, when set, binds an engine to the replica tier at the given ops
	// token: the fresh engine of a view about to be published (prev is the
	// outgoing view, nil at construction), or the current view's own engine
	// when the stream advanced without changing the view. replicate, when
	// set, forwards an accepted mutation group under mutMu. The sharded
	// tier's replica offload hangs off these two. advanced, when set, runs
	// after every update batch that moved the serving view (on the applier,
	// under the shard's apply lock) — never for a model swap; the one-shard
	// host's drift trigger hangs off it.
	wire      func(prev *snapshot, eng *core.Engine, ens *ensemble.Ensemble, ops uint64)
	replicate func(muts []ensemble.Mutation)
	advanced  func()
}

// DB is a learned DeepDB instance: an RSPN ensemble, the probabilistic
// query engine compiled against it, and (when attached) the live base
// tables that power incremental updates and exact ground-truth execution.
// It is the host over one shard holding the whole ensemble, so its serving
// view IS that shard's state — which is what lets drift tracking,
// background re-learning and CheckStaleness work on it. All methods are
// safe for concurrent use; queries never block on updates.
type DB struct {
	host

	// relearnBusy admits one background re-learn at a time. relearnMu
	// guards the close barrier (relearnClosed + relearnWG, which lets Close
	// wait for an in-flight re-learn) and relearnErr; relearnFails and
	// relearnErr record failed attempts for UpdateStats.
	relearnBusy   atomic.Bool
	relearnMu     sync.Mutex
	relearnClosed bool
	relearnWG     sync.WaitGroup
	relearnFails  atomic.Uint64
	relearnErr    string
}

// Learn builds a DB over the schema's CSV files in dataDir (one
// <table>.csv per schema table, with a header row). Cancelling ctx aborts
// learning — including mid-RSPN — with ctx.Err().
func Learn(ctx context.Context, s *Schema, dataDir string, opts ...Option) (*DB, error) {
	data, err := LoadCSVDir(s, dataDir)
	if err != nil {
		return nil, err
	}
	return LearnDataset(ctx, s, data, opts...)
}

// LearnDataset is Learn over already-loaded base tables. The tables are
// augmented in place with synthetic tuple-factor columns.
func LearnDataset(ctx context.Context, s *Schema, data Dataset, opts ...Option) (*DB, error) {
	cfg := defaultConfig()
	cfg.apply(opts)
	ens, err := ensemble.Build(ctx, s, data, cfg.ens)
	if err != nil {
		return nil, err
	}
	return newDB(ens, cfg)
}

// Open reads a model written by Save. The model file is a self-contained
// serving artifact: it carries per-table cardinalities, column metadata
// and categorical dictionaries captured at learning time, so without any
// data attached the DB answers every query class — single-RSPN cases,
// multi-RSPN Theorem-2 combination, GROUP BY (with decoded labels),
// disjunctions, outer joins, string-literal predicates — entirely from the
// model. Base tables may still be reattached from WithDataDir (CSVs
// located with the schema persisted in the model) or WithDataset; they are
// needed only for updates and exact execution. Model files written in an
// older format version are rejected with a clear error; re-learn and
// re-save them.
func Open(ctx context.Context, modelPath string, opts ...Option) (*DB, error) {
	cfg := defaultConfig()
	cfg.apply(opts)
	ens, err := loadModel(ctx, modelPath, cfg)
	if err != nil {
		return nil, err
	}
	return newDB(ens, cfg)
}

// loadModel reads the model file and attaches the configured base tables.
func loadModel(ctx context.Context, modelPath string, cfg config) (*ensemble.Ensemble, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ens, err := ensemble.LoadFile(modelPath, nil)
	if err != nil {
		return nil, err
	}
	data := cfg.dataset
	if data == nil && cfg.dataDir != "" {
		data, err = LoadCSVDir(ens.Schema, cfg.dataDir)
		if err != nil {
			return nil, err
		}
	}
	if data != nil {
		if err := ens.AttachTables(data); err != nil {
			return nil, err
		}
	}
	return ens, nil
}

func newDB(ens *ensemble.Ensemble, cfg config) (*DB, error) {
	if cfg.shards > 1 || len(cfg.shardPeers) > 0 {
		return nil, fmt.Errorf("deepdb: WithShards/WithShardPeers need a sharded constructor (OpenSharded or LearnDatasetSharded); Open/Learn/LearnDataset serve the whole ensemble from one shard")
	}
	// Drift tracking baselines against the pre-replay state, so mutations
	// recovered from the WAL count toward staleness exactly like they did
	// before the crash. A no-op without attached tables.
	ens.EnableDrift()
	sh, err := shard.New(0, nil, ens, cfg.shardConfig(cfg.walDir))
	if err != nil {
		return nil, err
	}
	db := &DB{}
	// The applier checks the drift trigger after every published batch.
	db.advanced = db.maybeRelearn
	if err := db.start(cfg, []*shard.Shard{sh}, len(ens.RSPNs)); err != nil {
		return nil, err
	}
	return db, nil
}

// start wires the host over freshly built shards (WALs already replayed):
// it composes and publishes the first serving view and subscribes to the
// shards' publications. On failure the shards are closed.
func (h *host) start(cfg config, shards []*shard.Shard, total int) error {
	h.cfg, h.shards, h.total = cfg, shards, total
	h.plans = newGenLRU[*core.Plan](cfg.planCache, 1)
	h.resCache = newGenLRU[cachedResult](cfg.resultCache, resultCacheWays)
	ens, ops, ok := shard.Compose(shards, total)
	if !ok {
		// Shards disagree on stream progress straight out of construction.
		// That means their WALs recorded different prefixes of the same
		// broadcast stream — a crash landed between the per-shard appends of
		// one group. The divergence is at most the unacknowledged tail, but
		// composing across it would serve a torn state, so refuse and let
		// the operator reconcile (see the sharded-serving runbook in the
		// README: keep the longest log, reset the others' directories).
		for _, sh := range shards {
			sh.Close() //nolint:errcheck // construction already failed
		}
		return fmt.Errorf("deepdb: shard WALs replay to different positions (crash between per-shard appends); reconcile the shard-<i> WAL directories before reopening")
	}
	h.viewOps = ops
	h.publishLocked(ens, ops)
	for _, sh := range shards {
		sh.OnPublish(h.shardPublished)
	}
	return nil
}

// snapshotNow returns the current published serving view: one atomic load
// at every shard count — composition happens on the publish side.
func (h *host) snapshotNow() *snapshot { return h.snap.Load() }

// publishLocked atomically publishes ens, composed at the shards' common
// ops token, as the next snapshot generation. Callers are single-threaded
// at construction or hold viewMu.
func (h *host) publishLocked(ens *ensemble.Ensemble, ops uint64) {
	eng := core.New(ens)
	eng.Parallelism = h.cfg.parallelism
	cur := h.snap.Load()
	var gen uint64
	if cur != nil {
		gen = cur.gen + 1
	}
	if h.wire != nil {
		h.wire(cur, eng, ens, ops)
	}
	h.snap.Store(&snapshot{ens: ens, eng: eng, gen: gen})
}

// shardPublished is every shard's publication hook (it runs on the shard's
// applier, under that shard's apply lock): note whether the served state
// changed and recompose if the shards now agree on a new point of the
// stream.
func (h *host) shardPublished(changed bool) {
	h.viewMu.Lock()
	h.dirty = h.dirty || changed
	moved := h.recomposeLocked(false)
	h.viewMu.Unlock()
	if moved && h.advanced != nil {
		h.advanced()
	}
}

// recompose publishes the composed view after a model swap (Reload, a
// re-learned member, CheckStaleness), which — unlike an update batch —
// leaves the shards' ops tokens where they were.
func (h *host) recompose() {
	h.viewMu.Lock()
	defer h.viewMu.Unlock()
	h.recomposeLocked(true)
}

// recomposeLocked publishes a new composed view when every shard has
// reached a common ops token and some shard's ensemble changed since the
// last composition. Unaligned shards keep the previous consistent view
// serving, so queries always see a state a one-shard host fed the same
// stream could have been in — never a torn mix. Equal ops mean a swap is
// in progress across the shards; only the swapper (swapped = true), once
// it is done with all of them, may publish then. The generation moves iff
// the served ensemble changed: a batch in which nothing applied advances
// viewOps and leaves the snapshot — and every cached plan and result — in
// place, only re-wiring the current engine to the new token. It reports
// whether a new snapshot was published.
func (h *host) recomposeLocked(swapped bool) bool {
	ens, ops, ok := shard.Compose(h.shards, h.total)
	if !ok || (ops == h.viewOps && !swapped) {
		return false
	}
	h.viewOps = ops
	if h.dirty {
		h.dirty = false
		h.publishLocked(ens, ops)
		return true
	}
	if h.wire != nil {
		cur := h.snap.Load()
		h.wire(cur, cur.eng, cur.ens, ops)
	}
	return false
}

// planFor returns the compiled plan for the query against the given
// snapshot, consulting the plan cache under the snapshot's generation.
// shape may be "" (computed on demand); prepared statements pass their
// precomputed key.
func (h *host) planFor(s *snapshot, shape string, q query.Query) (*core.Plan, error) {
	if h.plans == nil {
		return s.eng.Compile(q)
	}
	if shape == "" {
		shape = q.ShapeKey()
	}
	if p, ok := lruGet(h.plans, shape, s.gen); ok {
		return p, nil
	}
	p, err := s.eng.Compile(q)
	if err != nil {
		return nil, err
	}
	h.plans.put(shape, s.gen, p)
	return p, nil
}

// PlanCacheLen reports how many compiled plans are currently cached.
func (h *host) PlanCacheLen() int { return h.plans.size() }

// ResultCacheLen reports how many query results and cardinality estimates
// are currently cached (0 unless WithResultCacheSize enabled the cache).
func (h *host) ResultCacheLen() int { return h.resCache.size() }

// Schema returns the relational metadata the DB was learned over.
func (h *host) Schema() *Schema { return h.snapshotNow().ens.Schema }

// Data returns the base tables of the current snapshot (nil when the DB
// was opened without data). The returned tables are shared with the
// serving path and must be treated as read-only: mutate the database only
// through Insert/Delete/Update.
func (h *host) Data() Dataset { return h.snapshotNow().ens.Tables }

// Describe returns a human-readable summary of the ensemble, including
// the per-table statistics persisted with the model.
func (h *host) Describe() string {
	return h.snapshotNow().ens.Describe()
}

// Models returns the current snapshot's ensemble members. Read-only
// companions like the internal/ml regressors consume these directly; they
// are immutable (updates publish fresh members instead of mutating).
func (h *host) Models() []*rspn.RSPN { return h.snapshotNow().ens.RSPNs }

// Model returns some RSPN covering the named table (preferring the
// smallest), or nil.
func (h *host) Model(table string) *rspn.RSPN { return h.snapshotNow().ens.RSPNFor(table) }

// Generation returns the current snapshot's publication counter. It moves
// once per update batch in which something applied (not per row), and on
// Reload, a re-learn hot-swap and CheckStaleness.
func (h *host) Generation() uint64 { return h.snapshotNow().gen }

// Parse compiles the SQL subset DeepDB supports into a structured query,
// resolving string literals through the dictionaries (live base tables
// when attached, the dictionaries persisted in the model otherwise). `?`
// placeholders parse into parameter markers — see Prepare.
func (h *host) Parse(sql string) (query.Query, error) {
	return query.Parse(sql, resolver(h.snapshotNow().ens))
}

// ResolveLabel maps a string literal to its dictionary code on the given
// column — the encoding Insert values and bound string parameters use.
func (h *host) ResolveLabel(column, literal string) (float64, error) {
	return resolver(h.snapshotNow().ens)(column, literal)
}

// Query answers an aggregate SQL query approximately, from the model only.
// Plans are transparently reused across calls sharing a query shape (same
// tables, filter columns and operators — literal values may differ); pay
// the parse too only once by preparing the statement with Prepare.
func (h *host) Query(ctx context.Context, sql string, opts ...ExecOption) (Result, error) {
	s := h.snapshotNow()
	q, err := query.Parse(sql, resolver(s.ens))
	if err != nil {
		return Result{}, err
	}
	return h.executeQueryShaped(ctx, s, nil, "", q, resolveExec(opts))
}

// ExecuteQuery is Query for an already-parsed (or programmatically built)
// structured query.
func (h *host) ExecuteQuery(ctx context.Context, q query.Query, opts ...ExecOption) (Result, error) {
	return h.executeQueryShaped(ctx, h.snapshotNow(), nil, "", q, resolveExec(opts))
}

// executeQueryShaped is the one execution path of Query/ExecuteQuery,
// ungrouped QueryRows and Stmt.Exec: result-cache lookup, plan lookup,
// execution, store. A prepared statement passes itself (its pinned plan is
// used) and its precomputed shape key; ad-hoc calls pass nil and "" (the
// key is computed on demand). Cache hits return without touching the
// models and are bit-identical to executing (the cached value IS an
// execution's value).
func (h *host) executeQueryShaped(ctx context.Context, s *snapshot, st *Stmt, shape string, q query.Query, eo execOpts) (Result, error) {
	var key []byte
	if h.resCache != nil {
		if shape == "" {
			shape = q.ShapeKey()
		}
		key = resultKey(nsQuery, shape, q, eo.levelOr(s.eng.ConfidenceLevel))
		if res, ok := getResult(h.resCache, key, s.gen); ok {
			return res, nil
		}
	}
	p, err := h.planOf(s, st, shape, q)
	if err != nil {
		return Result{}, err
	}
	res, err := p.ExecuteQuery(ctx, eo.core(), q)
	if err != nil {
		return Result{}, err
	}
	out := wrapResult(s.ens, q, res)
	if h.resCache != nil {
		putResult(h.resCache, key, s.gen, out)
	}
	return out, nil
}

// planOf resolves the plan an execution runs: the statement's pinned plan
// when a prepared statement is executing, the plan cache's otherwise.
func (h *host) planOf(s *snapshot, st *Stmt, shape string, q query.Query) (*core.Plan, error) {
	if st != nil {
		return st.planOn(s)
	}
	return h.planFor(s, shape, q)
}

// EstimateCardinality estimates COUNT(*) over the query's join with its
// filters — the paper's cardinality-estimation task. Aggregate and
// group-by clauses in the SQL are ignored. Plans are reused like in Query.
func (h *host) EstimateCardinality(ctx context.Context, sql string, opts ...ExecOption) (Estimate, error) {
	s := h.snapshotNow()
	q, err := query.Parse(sql, resolver(s.ens))
	if err != nil {
		return Estimate{}, err
	}
	return h.estimateCardinalityShaped(ctx, s, nil, "", q, resolveExec(opts))
}

// EstimateCardinalityQuery is EstimateCardinality for a structured query.
func (h *host) EstimateCardinalityQuery(ctx context.Context, q query.Query, opts ...ExecOption) (Estimate, error) {
	return h.estimateCardinalityShaped(ctx, h.snapshotNow(), nil, "", q, resolveExec(opts))
}

// estimateCardinalityShaped is the one cardinality path of
// EstimateCardinality and Stmt.Estimate, with the same result-cache
// protocol as executeQueryShaped under the estimate namespace.
func (h *host) estimateCardinalityShaped(ctx context.Context, s *snapshot, st *Stmt, shape string, q query.Query, eo execOpts) (Estimate, error) {
	level := eo.levelOr(s.eng.ConfidenceLevel)
	var key []byte
	if h.resCache != nil {
		if shape == "" {
			shape = q.ShapeKey()
		}
		key = resultKey(nsEstimate, shape, q, level)
		if v, ok := lruGet(h.resCache, key, s.gen); ok {
			return v.est, nil
		}
	}
	p, err := h.planOf(s, st, shape, q)
	if err != nil {
		return Estimate{}, err
	}
	est, err := p.EstimateCardinalityQuery(ctx, q)
	if err != nil {
		return Estimate{}, err
	}
	out := wrapEstimate(est, level)
	if h.resCache != nil {
		h.resCache.put(string(key), s.gen, cachedResult{est: out})
	}
	return out, nil
}

// Explain renders the execution plan for the SQL query — which compilation
// case applies and which ensemble members answer each part — without
// evaluating it. The output is produced from the same compiled (and
// cached) plan that Query/EstimateCardinality execute.
func (h *host) Explain(ctx context.Context, sql string) (string, error) {
	if err := ctx.Err(); err != nil {
		return "", err
	}
	s := h.snapshotNow()
	q, err := query.Parse(sql, resolver(s.ens))
	if err != nil {
		return "", err
	}
	p, err := h.planFor(s, "", q)
	if err != nil {
		return "", err
	}
	return p.Explain(), nil
}

// Exact executes the SQL query exactly against the attached base tables
// (materializing the join), for ground-truth comparison. It sees the
// current snapshot's tables; Flush first for read-your-writes.
func (h *host) Exact(ctx context.Context, sql string) (Result, error) {
	s := h.snapshotNow()
	q, err := query.Parse(sql, resolver(s.ens))
	if err != nil {
		return Result{}, err
	}
	return exactOn(ctx, s, q)
}

// ExactQuery is Exact for a structured query.
func (h *host) ExactQuery(ctx context.Context, q query.Query) (Result, error) {
	return exactOn(ctx, h.snapshotNow(), q)
}

func exactOn(ctx context.Context, s *snapshot, q query.Query) (Result, error) {
	if s.ens.Tables == nil {
		return Result{}, errNoData()
	}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	res, err := exact.New(s.ens.Schema, s.ens.Tables).ExecuteContext(ctx, q)
	if err != nil {
		return Result{}, err
	}
	out := Result{}
	for _, g := range res.Groups {
		out.Groups = append(out.Groups, Group{
			Key:      g.Key,
			Labels:   decodeKey(s.ens, q.GroupBy, g.Key),
			Estimate: Estimate{Value: g.Value, CILow: g.Value, CIHigh: g.Value},
		})
	}
	return out, nil
}

func errNoData() error {
	return fmt.Errorf("deepdb: no base tables attached (open with WithDataDir or WithDataset)")
}

func errClosed() error {
	return fmt.Errorf("deepdb: database closed")
}

// resolver maps string literals in predicates to dictionary codes —
// through the live base tables when attached, through the dictionaries
// persisted in the model (format v3) otherwise, so string predicates work
// in model-only serving. Bound to one snapshot's ensemble: safe without
// locks.
func resolver(ens *ensemble.Ensemble) query.Resolver {
	return func(column, literal string) (float64, error) {
		code, found, known := ens.ResolveLabel(column, literal)
		if !known {
			return 0, fmt.Errorf("deepdb: unknown column %s", column)
		}
		if !found {
			return 0, fmt.Errorf("deepdb: value %q not found in column %s", literal, column)
		}
		return code, nil
	}
}

// wrapResult converts an engine result, decoding group keys through the
// given snapshot ensemble.
func wrapResult(ens *ensemble.Ensemble, q query.Query, res core.AQPResult) Result {
	out := Result{}
	for _, g := range res.Groups {
		out.Groups = append(out.Groups, wrapGroup(ens, q.GroupBy, g))
	}
	return out
}

// wrapGroup converts one engine result row.
func wrapGroup(ens *ensemble.Ensemble, cols []string, g core.AQPGroup) Group {
	return Group{
		Key:    g.Key,
		Labels: decodeKey(ens, cols, g.Key),
		Estimate: Estimate{
			Value:    g.Estimate.Value,
			Variance: g.Estimate.Variance,
			CILow:    g.CILow,
			CIHigh:   g.CIHigh,
		},
	}
}

func wrapEstimate(est core.Estimate, level float64) Estimate {
	lo, hi := est.ConfidenceInterval(level)
	return Estimate{Value: est.Value, Variance: est.Variance, CILow: lo, CIHigh: hi}
}

// decodeKey renders each component of a group key, decoding categorical
// codes through the dictionaries (live base tables when attached, the
// model's persisted dictionaries otherwise).
func decodeKey(ens *ensemble.Ensemble, cols []string, key []float64) []string {
	if len(key) == 0 {
		return nil
	}
	out := make([]string, len(key))
	for i := range key {
		out[i] = fmt.Sprintf("%g", key[i])
		if i >= len(cols) {
			continue
		}
		if s := ens.DecodeLabel(cols[i], int(key[i])); s != "" {
			out[i] = s
		}
	}
	return out
}
