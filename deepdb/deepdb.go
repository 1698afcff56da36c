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
// block — not on each other and not on writes. Insert/Delete
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
// # One handle, N shards
//
// All of the above is one implementation: a *DB over N >= 1 shards
// (internal/shard), each of which owns the write machinery — WAL, update
// queue, copy-on-write apply, publish, replay, checkpoint — for its part
// of the ensemble. Every mutation is broadcast to every shard, and the DB
// recomposes its serving view whenever the shards publish a common point
// of the stream. By default that is one shard holding the whole ensemble;
// WithShards(n) partitions the members over n shards and WithShardPeers
// adds replica offload — options of the same Open/Learn/LearnDataset, not
// another type. Answers are bit-identical at every shard count. What needs
// the whole ensemble in one place — drift-triggered re-learning — is
// refused on a partitioned DB with an error that says so.
package deepdb

import (
	"context"
	"fmt"
	"path/filepath"
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
	// which something applied, Reload, re-learn hot-swaps);
	// cached plans, cached results and prepared statements are tagged with
	// it and recompiled or dropped when it moves.
	gen uint64
}

// DB is a learned DeepDB instance: an RSPN ensemble, the probabilistic
// query engine compiled against it, and (when attached) the live base
// tables that power incremental updates and exact ground-truth execution.
// It is the composed serving view of N >= 1 shards, the plan and result
// caches in front of it, and the broadcast write path into the shards. The
// shards own everything below the broadcast (log, queue, apply, publish,
// replay, checkpoint); the DB owns what must be decided once for all of
// them — admission, the fail-stop on WAL loss, and when the shards'
// snapshots form a consistent view. All methods are safe for concurrent
// use; queries never block on updates.
type DB struct {
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

	// The replica tier (sharded.go), all zero without WithShardPeers:
	// peers[i] is the client bound to shard i (nil when none), peerHits and
	// peerFalls the cumulative remote-evaluation counters folded in from
	// each retired view's evaluator, probeStop/probeWG the background health
	// prober.
	peers     []*shard.Client
	peerHits  atomic.Uint64
	peerFalls atomic.Uint64
	probeStop chan struct{}
	probeWG   sync.WaitGroup

	// The background re-learner (relearn.go), idle unless a drift trigger is
	// armed: relearnBusy admits one re-learn at a time. relearnMu guards the
	// close barrier (relearnClosed + relearnWG, which lets Close wait for an
	// in-flight re-learn) and relearnErr; relearnFails and relearnErr record
	// failed attempts for UpdateStats.
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

// newDB is the one constructor body: it builds the shards over ens (WALs
// replayed), composes and publishes the first serving view and subscribes
// to the shards' publications.
func newDB(ens *ensemble.Ensemble, cfg config) (*DB, error) {
	db := &DB{
		cfg:      cfg,
		total:    len(ens.RSPNs),
		plans:    newGenLRU[*core.Plan](cfg.planCache, 1),
		resCache: newGenLRU[cachedResult](cfg.resultCache, resultCacheWays),
	}
	parts := [][]int{nil} // one shard serving ens itself
	partitioned := cfg.shards > 1 || len(cfg.shardPeers) > 0
	if partitioned {
		if cfg.driftThresholds().Enabled() {
			return nil, fmt.Errorf("deepdb: drift-triggered re-learning (WithDriftThreshold/WithDriftMeanShift) needs the whole ensemble in one shard; drop the trigger or serve unsharded")
		}
		parts = shard.Partition(ens, cfg.shards)
	} else {
		// Drift tracking baselines against the pre-replay state, so mutations
		// recovered from the WAL count toward staleness exactly like they did
		// before the crash. A no-op without attached tables.
		ens.EnableDrift()
	}
	for i, members := range parts {
		walDir := cfg.walDir
		if walDir != "" && partitioned {
			walDir = filepath.Join(walDir, fmt.Sprintf("shard-%d", i))
		}
		sh, err := shard.New(i, members, ens, cfg.shardConfig(walDir))
		if err != nil {
			db.closeShards() //nolint:errcheck // construction already failed
			return nil, err
		}
		db.shards = append(db.shards, sh)
	}
	db.dialPeers()
	view, ops, ok := shard.Compose(db.shards, db.total)
	if !ok {
		// Shards disagree on stream progress straight out of construction.
		// That means their WALs recorded different prefixes of the same
		// broadcast stream — a crash landed between the per-shard appends of
		// one group. The divergence is at most the unacknowledged tail, but
		// composing across it would serve a torn state, so refuse and let
		// the operator reconcile (see the sharded-serving runbook in the
		// README: keep the longest log, reset the others' directories).
		db.closeShards() //nolint:errcheck // construction already failed
		return nil, fmt.Errorf("deepdb: shard WALs replay to different positions (crash between per-shard appends); reconcile the shard-<i> WAL directories before reopening")
	}
	db.viewOps = ops
	db.publishLocked(view, ops)
	for _, sh := range db.shards {
		sh.OnPublish(db.shardPublished)
	}
	db.startProber()
	return db, nil
}

// snapshotNow returns the current published serving view: one atomic load
// at every shard count — composition happens on the publish side.
func (db *DB) snapshotNow() *snapshot { return db.snap.Load() }

// publishLocked atomically publishes ens, composed at the shards' common
// ops token, as the next snapshot generation. Callers are single-threaded
// at construction or hold viewMu.
func (db *DB) publishLocked(ens *ensemble.Ensemble, ops uint64) {
	eng := core.New(ens)
	eng.Parallelism = db.cfg.parallelism
	cur := db.snap.Load()
	var gen uint64
	if cur != nil {
		gen = cur.gen + 1
	}
	if db.peers != nil {
		db.bindPeers(cur, eng, ens, ops)
	}
	db.snap.Store(&snapshot{ens: ens, eng: eng, gen: gen})
}

// shardPublished is every shard's publication hook (it runs on the shard's
// applier, under that shard's apply lock): note whether the served state
// changed and recompose if the shards now agree on a new point of the
// stream.
func (db *DB) shardPublished(changed bool) {
	db.viewMu.Lock()
	db.dirty = db.dirty || changed
	moved := db.recomposeLocked(false)
	db.viewMu.Unlock()
	if moved {
		// Only an update batch that moved the serving view gets here — never a
		// model swap — so this is where the drift trigger is checked.
		db.maybeRelearn()
	}
}

// recompose publishes the composed view after a model swap (Reload, a
// re-learned member), which — unlike an update batch —
// leaves the shards' ops tokens where they were.
func (db *DB) recompose() {
	db.viewMu.Lock()
	defer db.viewMu.Unlock()
	db.recomposeLocked(true)
}

// recomposeLocked publishes a new composed view when every shard has
// reached a common ops token and some shard's ensemble changed since the
// last composition. Unaligned shards keep the previous consistent view
// serving, so queries always see a state a one-shard DB fed the same
// stream could have been in — never a torn mix. Equal ops mean a swap is
// in progress across the shards; only the swapper (swapped = true), once
// it is done with all of them, may publish then. The generation moves iff
// the served ensemble changed: a batch in which nothing applied advances
// viewOps and leaves the snapshot — and every cached plan and result — in
// place, only re-wiring the current engine to the new token. It reports
// whether a new snapshot was published.
func (db *DB) recomposeLocked(swapped bool) bool {
	ens, ops, ok := shard.Compose(db.shards, db.total)
	if !ok || (ops == db.viewOps && !swapped) {
		return false
	}
	db.viewOps = ops
	if db.dirty {
		db.dirty = false
		db.publishLocked(ens, ops)
		return true
	}
	if db.peers != nil {
		cur := db.snap.Load()
		db.bindPeers(cur, cur.eng, cur.ens, ops)
	}
	return false
}

// planFor returns the compiled plan for the query against the given
// snapshot, consulting the plan cache under the snapshot's generation.
// shape may be "" (computed on demand); prepared statements pass their
// precomputed key.
func (db *DB) planFor(s *snapshot, shape string, q query.Query) (*core.Plan, error) {
	if db.plans == nil {
		return s.eng.Compile(q)
	}
	if shape == "" {
		shape = q.ShapeKey()
	}
	if p, ok := lruGet(db.plans, shape, s.gen); ok {
		return p, nil
	}
	p, err := s.eng.Compile(q)
	if err != nil {
		return nil, err
	}
	db.plans.put(shape, s.gen, p)
	return p, nil
}

// Schema returns the relational metadata the DB was learned over.
func (db *DB) Schema() *Schema { return db.snapshotNow().ens.Schema }

// Data returns the base tables of the current snapshot (nil when the DB
// was opened without data). The returned tables are shared with the
// serving path and must be treated as read-only: mutate the database only
// through Insert/Delete.
func (db *DB) Data() Dataset { return db.snapshotNow().ens.Tables }

// Describe returns a human-readable summary of the ensemble, including
// the per-table statistics persisted with the model.
func (db *DB) Describe() string {
	return db.snapshotNow().ens.Describe()
}

// Models returns the current snapshot's ensemble members. Read-only
// companions like the internal/ml regressors consume these directly; they
// are immutable (updates publish fresh members instead of mutating).
func (db *DB) Models() []*rspn.RSPN { return db.snapshotNow().ens.RSPNs }

// Model returns some RSPN covering the named table (preferring the
// smallest), or nil.
func (db *DB) Model(table string) *rspn.RSPN { return db.snapshotNow().ens.RSPNFor(table) }

// Generation returns the current snapshot's publication counter. It moves
// once per update batch in which something applied (not per row), and on
// Reload and a re-learn hot-swap.
func (db *DB) Generation() uint64 { return db.snapshotNow().gen }

// Parse compiles the SQL subset DeepDB supports into a structured query,
// resolving string literals through the dictionaries (live base tables
// when attached, the dictionaries persisted in the model otherwise). `?`
// placeholders parse into parameter markers — see Prepare.
func (db *DB) Parse(sql string) (query.Query, error) {
	return query.Parse(sql, resolver(db.snapshotNow().ens))
}

// ResolveLabel maps a string literal to its dictionary code on the given
// column — the encoding Insert values and bound string parameters use.
func (db *DB) ResolveLabel(column, literal string) (float64, error) {
	return resolver(db.snapshotNow().ens)(column, literal)
}

// Query answers an aggregate SQL query approximately, from the model only.
// Plans are transparently reused across calls sharing a query shape (same
// tables, filter columns and operators — literal values may differ); pay
// the parse too only once by preparing the statement with Prepare.
func (db *DB) Query(ctx context.Context, sql string, opts ...ExecOption) (Result, error) {
	s := db.snapshotNow()
	q, err := query.Parse(sql, resolver(s.ens))
	if err != nil {
		return Result{}, err
	}
	v, err := db.executeShaped(ctx, nsQuery, s, nil, "", q, resolveExec(opts))
	return v.res, err
}

// ExecuteQuery is Query for an already-parsed (or programmatically built)
// structured query.
func (db *DB) ExecuteQuery(ctx context.Context, q query.Query, opts ...ExecOption) (Result, error) {
	v, err := db.executeShaped(ctx, nsQuery, db.snapshotNow(), nil, "", q, resolveExec(opts))
	return v.res, err
}

// executeShaped is the one cached execution of a single query — behind
// Query/ExecuteQuery, ungrouped QueryRows and Stmt.Exec in the nsQuery
// namespace, behind EstimateCardinality and Stmt.Estimate in nsEstimate:
// result-cache lookup, plan lookup, execution, store. A prepared statement
// passes itself (its pinned plan is used) and its precomputed shape key;
// ad-hoc calls pass nil and "" (the key is computed on demand). Cache hits
// return without touching the models and are bit-identical to executing
// (the cached value IS an execution's value); the result handed out is
// always a private copy, so a caller mutating it cannot poison the cache.
func (db *DB) executeShaped(ctx context.Context, ns byte, s *snapshot, st *Stmt, shape string, q query.Query, eo execOpts) (cachedResult, error) {
	level := eo.levelOr(s.eng.ConfidenceLevel)
	var key []byte
	if db.resCache != nil {
		if shape == "" {
			shape = q.ShapeKey()
		}
		key = resultKey(ns, shape, q, level)
		if v, ok := lruGet(db.resCache, key, s.gen); ok {
			v.res = copyResult(v.res)
			return v, nil
		}
	}
	p, err := db.planOf(s, st, shape, q)
	if err != nil {
		return cachedResult{}, err
	}
	var out cachedResult
	if ns == nsEstimate {
		est, err := p.EstimateCardinalityQuery(ctx, q)
		if err != nil {
			return cachedResult{}, err
		}
		out.est = wrapEstimate(est, level)
	} else {
		res, err := p.ExecuteQuery(ctx, eo.core(), q)
		if err != nil {
			return cachedResult{}, err
		}
		out.res = wrapResult(s.ens, q, res)
	}
	if db.resCache != nil {
		db.resCache.put(string(key), s.gen, cachedResult{res: copyResult(out.res), est: out.est})
	}
	return out, nil
}

// planOf resolves the plan an execution runs: the statement's pinned plan
// when a prepared statement is executing, the plan cache's otherwise.
func (db *DB) planOf(s *snapshot, st *Stmt, shape string, q query.Query) (*core.Plan, error) {
	if st != nil {
		return st.planOn(s)
	}
	return db.planFor(s, shape, q)
}

// EstimateCardinality estimates COUNT(*) over the query's join with its
// filters — the paper's cardinality-estimation task. Aggregate and
// group-by clauses in the SQL are ignored. Plans are reused like in Query.
func (db *DB) EstimateCardinality(ctx context.Context, sql string, opts ...ExecOption) (Estimate, error) {
	s := db.snapshotNow()
	q, err := query.Parse(sql, resolver(s.ens))
	if err != nil {
		return Estimate{}, err
	}
	v, err := db.executeShaped(ctx, nsEstimate, s, nil, "", q, resolveExec(opts))
	return v.est, err
}

// EstimateCardinalityQuery is EstimateCardinality for a structured query.
func (db *DB) EstimateCardinalityQuery(ctx context.Context, q query.Query, opts ...ExecOption) (Estimate, error) {
	v, err := db.executeShaped(ctx, nsEstimate, db.snapshotNow(), nil, "", q, resolveExec(opts))
	return v.est, err
}

// Explain renders the execution plan for the SQL query — which compilation
// case applies and which ensemble members answer each part — without
// evaluating it. The output is produced from the same compiled (and
// cached) plan that Query/EstimateCardinality execute.
func (db *DB) Explain(ctx context.Context, sql string) (string, error) {
	if err := ctx.Err(); err != nil {
		return "", err
	}
	s := db.snapshotNow()
	q, err := query.Parse(sql, resolver(s.ens))
	if err != nil {
		return "", err
	}
	p, err := db.planFor(s, "", q)
	if err != nil {
		return "", err
	}
	return p.Explain(), nil
}

// Exact executes the SQL query exactly against the attached base tables
// (materializing the join), for ground-truth comparison. It sees the
// current snapshot's tables; Flush first for read-your-writes.
func (db *DB) Exact(ctx context.Context, sql string) (Result, error) {
	s := db.snapshotNow()
	q, err := query.Parse(sql, resolver(s.ens))
	if err != nil {
		return Result{}, err
	}
	return exactOn(ctx, s, q)
}

// ExactQuery is Exact for a structured query.
func (db *DB) ExactQuery(ctx context.Context, q query.Query) (Result, error) {
	return exactOn(ctx, db.snapshotNow(), q)
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
