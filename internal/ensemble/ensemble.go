// Package ensemble constructs and maintains DeepDB's ensembles of RSPNs
// (Sections 3.3 and 5.3 of the paper). The base ensemble learns one RSPN
// over the full outer join of every FK-connected table pair whose maximum
// pairwise attribute RDC exceeds a threshold, and single-table RSPNs for
// the remaining tables. A budget factor then admits additional RSPNs over
// three or more tables, chosen greedily by mean pairwise dependency value
// and relative creation cost.
package ensemble

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"repro/internal/drift"
	"repro/internal/parallel"
	"repro/internal/rspn"
	"repro/internal/schema"
	"repro/internal/spn"
	"repro/internal/stats"
	"repro/internal/table"
)

// Config controls ensemble construction. Zero values fall back to the
// paper's hyperparameters (Section 6: RDC threshold 0.3, budget factor 0.5).
type Config struct {
	// RDCThreshold decides when two tables are correlated enough to learn
	// a joint RSPN.
	RDCThreshold float64
	// BudgetFactor B admits additional multi-table RSPNs until their
	// accumulated relative cost exceeds B times the base ensemble's cost.
	BudgetFactor float64
	// MaxSamples caps the training rows per RSPN.
	MaxSamples int
	// RDCSampleRows caps the rows used for pairwise dependency tests.
	RDCSampleRows int
	// MaxRSPNTables caps the table count of budget-selected RSPNs.
	MaxRSPNTables int
	// SPN holds structure-learning hyperparameters.
	SPN spn.LearnConfig
	// Seed drives sampling and learning.
	Seed int64
	// Exact uses the memorizing learner (tiny data sets / tests).
	Exact bool
	// SingleTableOnly learns one RSPN per table and no joins at all — the
	// paper's cheap fallback strategy evaluated at the end of Section 6.1.
	SingleTableOnly bool
	// Parallelism caps the number of base-ensemble RSPNs learned
	// concurrently. Values <= 1 learn sequentially.
	Parallelism int
}

// DefaultConfig mirrors the paper's evaluation setup.
func DefaultConfig() Config {
	return Config{
		RDCThreshold:  0.3,
		BudgetFactor:  0.5,
		MaxSamples:    100000,
		RDCSampleRows: 1000,
		MaxRSPNTables: 4,
		SPN:           spn.DefaultLearnConfig(),
		Seed:          1,
	}
}

// TableStats is the per-table statistics snapshot captured at Build time
// and persisted with the model, so query serving (column ownership and
// Theorem-2 branch denominators) never needs the live base tables. Rows is
// maintained exactly under Insert/Delete.
type TableStats struct {
	// Rows is the table's cardinality, including the synthetic
	// tuple-factor columns' host rows; unlike the live table's NumRows it
	// shrinks on Delete (deleted rows are only tombstoned in the table).
	Rows float64
	// Columns lists every column the table owns, including the synthetic
	// tuple-factor columns added during construction.
	Columns []string
	// Dicts maps each categorical column to its dictionary (strings
	// indexed by code), so string-literal predicates resolve and group-by
	// labels decode without the base tables attached. Refreshed from the
	// live dictionaries on every Save (inserts can extend them).
	Dicts map[string][]string
}

// HasColumn reports whether the snapshot lists the named column.
func (st TableStats) HasColumn(col string) bool {
	for _, c := range st.Columns {
		if c == col {
			return true
		}
	}
	return false
}

// Ensemble is a set of RSPNs plus the dependency statistics used both for
// construction and for the runtime execution strategy (Section 4.1).
type Ensemble struct {
	Schema *schema.Schema
	RSPNs  []*rspn.RSPN
	// AttrRDC maps "colA|colB" (sorted) to the measured RDC between the
	// two attributes. The greedy execution strategy scores candidate
	// RSPNs with it.
	AttrRDC map[string]float64
	// PairDep maps "tableA|tableB" (sorted) to the dependency value (max
	// attribute RDC) between the two tables.
	PairDep map[string]float64
	// Stats holds per-table cardinalities and column sets, captured at
	// construction, persisted with the model and maintained under
	// updates. It is the query engine's source of truth for table sizes
	// and column ownership, so serving works without base tables.
	Stats map[string]TableStats
	// BuildTime records how long construction took.
	BuildTime time.Duration

	// Tables holds the live base tables (with tuple-factor columns),
	// needed for updates. Not serialized.
	Tables map[string]*table.Table

	// Drift tracks per-member staleness for background re-learning when
	// enabled via EnableDrift. Shared by pointer across copy-on-write
	// clones, like the write index. Not serialized.
	Drift *drift.Set

	cfg Config
	rng *rand.Rand
	// idx is the write-path primary-key index plus delete tombstones
	// (update.go). Shared by pointer across copy-on-write clones; the
	// query path never reads it.
	idx *writeIndex
}

// NewManual assembles an ensemble from pre-learned RSPNs, bypassing
// construction. Dependency statistics may be nil; the execution strategy
// then treats all attribute pairs as uncorrelated.
//
//deepdb:testonly core and shard tests pin a hand-picked member set that construction would not choose
func NewManual(s *schema.Schema, tables map[string]*table.Table, rspns []*rspn.RSPN, cfg Config) *Ensemble {
	if cfg.RDCThreshold == 0 {
		cfg = DefaultConfig()
	}
	e := &Ensemble{
		Schema:  s,
		RSPNs:   rspns,
		AttrRDC: make(map[string]float64),
		PairDep: make(map[string]float64),
		Tables:  tables,
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		idx:     newWriteIndex(),
	}
	e.captureStats()
	return e
}

// AttrKey builds the canonical sorted key for an attribute pair; the same
// canonical form keys table pairs in PairDep.
func AttrKey(a, b string) string {
	if a > b {
		a, b = b, a
	}
	return a + "|" + b
}

// Build constructs an ensemble for the schema over the given base tables.
// The tables are augmented in place with tuple-factor columns. Cancelling
// ctx aborts construction (including mid-RSPN) with ctx.Err().
func Build(ctx context.Context, s *schema.Schema, tables map[string]*table.Table, cfg Config) (*Ensemble, error) {
	start := time.Now()
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if cfg.RDCThreshold == 0 {
		cfg.RDCThreshold = 0.3
	}
	if cfg.MaxSamples == 0 {
		cfg.MaxSamples = 100000
	}
	if cfg.RDCSampleRows == 0 {
		cfg.RDCSampleRows = 1000
	}
	if cfg.MaxRSPNTables == 0 {
		cfg.MaxRSPNTables = 4
	}
	if cfg.SPN.RDCThreshold == 0 {
		cfg.SPN = spn.DefaultLearnConfig()
	}
	e := &Ensemble{
		Schema:  s,
		AttrRDC: make(map[string]float64),
		PairDep: make(map[string]float64),
		Tables:  tables,
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		idx:     newWriteIndex(),
	}
	// Tuple factors for every relationship (idempotent).
	for _, rel := range s.Relationships() {
		one, many := tables[rel.One], tables[rel.Many]
		if one == nil || many == nil {
			return nil, fmt.Errorf("ensemble: missing data for relationship %s", rel.ID())
		}
		if one.Column(table.TupleFactorColumn(rel)) == nil {
			if err := table.AddTupleFactor(one, many, rel); err != nil {
				return nil, err
			}
		}
	}
	// Snapshot per-table statistics now that every synthetic column
	// exists; from here on query serving never needs the tables again.
	e.captureStats()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := e.computeDependencies(); err != nil {
		return nil, err
	}
	if err := e.buildBase(ctx); err != nil {
		return nil, err
	}
	if !cfg.SingleTableOnly && cfg.BudgetFactor > 0 {
		if err := e.optimize(ctx); err != nil {
			return nil, err
		}
	}
	e.BuildTime = time.Since(start)
	return e, nil
}

// fds builds dictionaries for the declared FDs of one table.
func (e *Ensemble) fds(tableName string) ([]rspn.FD, error) {
	meta := e.Schema.Table(tableName)
	t := e.Tables[tableName]
	var out []rspn.FD
	for _, fd := range meta.FDs {
		d, err := rspn.BuildFD(t, fd)
		if err != nil {
			return nil, err
		}
		out = append(out, d)
	}
	return out, nil
}

// fdsFor concatenates the dictionaries of multiple tables.
func (e *Ensemble) fdsFor(tables []string) ([]rspn.FD, error) {
	var out []rspn.FD
	for _, tn := range tables {
		f, err := e.fds(tn)
		if err != nil {
			return nil, err
		}
		out = append(out, f...)
	}
	return out, nil
}

// attributeColumns lists the learnable (non-key, non-synthetic) attribute
// columns of a base table, the inputs to dependency testing.
func (e *Ensemble) attributeColumns(tableName string) []string {
	meta := e.Schema.Table(tableName)
	t := e.Tables[tableName]
	skip := map[string]bool{}
	if meta.PrimaryKey != "" {
		skip[meta.PrimaryKey] = true
	}
	for _, fk := range meta.ForeignKeys {
		skip[fk.Column] = true
	}
	var out []string
	for _, name := range t.ColumnNames() {
		if skip[name] || strings.HasPrefix(name, "__") {
			continue
		}
		out = append(out, name)
	}
	return out
}

// computeDependencies measures (a) RDC between attribute pairs within each
// table and (b) across every FK-adjacent table pair on a sample of the
// inner join, populating AttrRDC and PairDep.
func (e *Ensemble) computeDependencies() error {
	rdcCfg := stats.RDCConfig{K: 10, Scale: 1.0 / 6.0, Seed: e.cfg.Seed}
	// Within-table pairs.
	for _, meta := range e.Schema.Tables {
		t := e.Tables[meta.Name]
		cols := e.attributeColumns(meta.Name)
		rows := t.SampleRows(e.cfg.RDCSampleRows, e.rng)
		data, err := t.Matrix(cols, rows)
		if err != nil {
			return err
		}
		for i := 0; i < len(cols); i++ {
			for j := i + 1; j < len(cols); j++ {
				xi, xj := columnOf(data, i), columnOf(data, j)
				e.AttrRDC[AttrKey(cols[i], cols[j])] = stats.RDC(xi, xj, rdcCfg)
			}
		}
	}
	// Cross-table pairs for adjacent tables.
	for _, rel := range e.Schema.Relationships() {
		dep, err := e.crossTableDependency([]string{rel.One, rel.Many}, rel.One, rel.Many, rdcCfg)
		if err != nil {
			return err
		}
		e.PairDep[AttrKey(rel.One, rel.Many)] = dep
	}
	return nil
}

// crossTableDependency computes the dependency value (max attribute-pair
// RDC) between attributes of tables a and b over a sample of the inner join
// of joinTables, caching the individual attribute RDCs.
func (e *Ensemble) crossTableDependency(joinTables []string, a, b string, rdcCfg stats.RDCConfig) (float64, error) {
	edges, err := e.Schema.JoinTree(joinTables)
	if err != nil {
		return 0, err
	}
	j, err := table.InnerJoin(e.Tables, table.JoinSpec{Tables: joinTables, Edges: edges})
	if err != nil {
		return 0, err
	}
	if j.NumRows() == 0 {
		return 0, nil
	}
	rows := j.SampleRows(e.cfg.RDCSampleRows, e.rng)
	colsA := e.attributeColumns(a)
	colsB := e.attributeColumns(b)
	max := 0.0
	for _, ca := range colsA {
		da, err := j.Matrix([]string{ca}, rows)
		if err != nil {
			return 0, err
		}
		for _, cb := range colsB {
			db, err := j.Matrix([]string{cb}, rows)
			if err != nil {
				return 0, err
			}
			v := stats.RDC(columnOf(da, 0), columnOf(db, 0), rdcCfg)
			key := AttrKey(ca, cb)
			if v > e.AttrRDC[key] {
				e.AttrRDC[key] = v
			}
			if v > max {
				max = v
			}
		}
	}
	return max, nil
}

func columnOf(data [][]float64, j int) []float64 {
	out := make([]float64, len(data))
	for i := range data {
		out[i] = data[i][j]
	}
	return out
}

// buildBase learns the base ensemble: joint RSPNs for correlated adjacent
// pairs, single-table RSPNs elsewhere (every table ends up covered). With
// Parallelism > 1 the (independent) members are learned concurrently; the
// ensemble order stays deterministic regardless.
func (e *Ensemble) buildBase(ctx context.Context) error {
	var jobs [][]string
	covered := map[string]bool{}
	if !e.cfg.SingleTableOnly {
		for _, rel := range e.Schema.Relationships() {
			if e.PairDep[AttrKey(rel.One, rel.Many)] <= e.cfg.RDCThreshold {
				continue
			}
			jobs = append(jobs, []string{rel.One, rel.Many})
			covered[rel.One] = true
			covered[rel.Many] = true
		}
	}
	for _, meta := range e.Schema.Tables {
		if covered[meta.Name] {
			continue
		}
		jobs = append(jobs, []string{meta.Name})
	}
	members := make([]*rspn.RSPN, len(jobs))
	learn := func(i int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		if len(jobs[i]) == 1 {
			r, err := e.learnSingle(ctx, jobs[i][0])
			members[i] = r
			return err
		}
		r, err := e.learnJoin(ctx, jobs[i])
		members[i] = r
		return err
	}
	if err := parallel.ForEach(len(jobs), e.cfg.Parallelism, learn); err != nil {
		return err
	}
	e.RSPNs = append(e.RSPNs, members...)
	return nil
}

// learnSingle learns a single-table RSPN.
func (e *Ensemble) learnSingle(ctx context.Context, tableName string) (*rspn.RSPN, error) {
	t := e.Tables[tableName]
	fds, err := e.fdsFor([]string{tableName})
	if err != nil {
		return nil, err
	}
	cols := rspn.LearnColumns(e.Schema, t, []string{tableName}, fds)
	opts := e.learnOpts()
	return rspn.Learn(ctx, t, []string{tableName}, nil, cols, fds, opts)
}

// learnJoin materializes the full outer join of the tables and learns a
// joint RSPN over it.
func (e *Ensemble) learnJoin(ctx context.Context, tables []string) (*rspn.RSPN, error) {
	edges, err := e.Schema.JoinTree(tables)
	if err != nil {
		return nil, err
	}
	spec := table.JoinSpec{Tables: tables, Edges: edges}
	j, err := table.FullOuterJoin(e.Tables, spec)
	if err != nil {
		return nil, err
	}
	fds, err := e.fdsFor(tables)
	if err != nil {
		return nil, err
	}
	cols := rspn.LearnColumns(e.Schema, j, tables, fds)
	opts := e.learnOpts()
	return rspn.Learn(ctx, j, tables, edges, cols, fds, opts)
}

func (e *Ensemble) learnOpts() rspn.LearnOptions {
	return rspn.LearnOptions{
		SPN:        e.cfg.SPN,
		MaxSamples: e.cfg.MaxSamples,
		Seed:       e.cfg.Seed,
		Exact:      e.cfg.Exact,
	}
}

// Covering returns the RSPNs whose table set includes all given tables.
func (e *Ensemble) Covering(tables []string) []*rspn.RSPN {
	var out []*rspn.RSPN
	for _, r := range e.RSPNs {
		if r.CoversTables(tables) {
			out = append(out, r)
		}
	}
	return out
}

// RSPNFor returns some RSPN containing the table (preferring the smallest),
// used for Theorem 2 denominators.
func (e *Ensemble) RSPNFor(tableName string) *rspn.RSPN {
	var best *rspn.RSPN
	for _, r := range e.RSPNs {
		if !r.HasTable(tableName) {
			continue
		}
		if best == nil || len(r.Tables) < len(best.Tables) {
			best = r
		}
	}
	return best
}

// captureStats snapshots per-table cardinalities, column sets and
// categorical dictionaries from the live base tables (call after
// tuple-factor augmentation). A no-op without attached tables.
func (e *Ensemble) captureStats() {
	if e.Tables == nil {
		return
	}
	e.Stats = make(map[string]TableStats, len(e.Tables))
	//deepdb:orderinvariant builds independent per-table map entries; no cross-iteration state
	for name, t := range e.Tables {
		e.Stats[name] = TableStats{
			Rows:    float64(t.NumRows()),
			Columns: append([]string(nil), t.ColumnNames()...),
			Dicts:   captureDicts(t),
		}
	}
}

// captureDicts copies the categorical dictionaries of one table.
func captureDicts(t *table.Table) map[string][]string {
	var out map[string][]string
	for _, c := range t.Cols {
		if c.DictSize() == 0 {
			continue
		}
		if out == nil {
			out = map[string][]string{}
		}
		out[c.Meta.Name] = append([]string(nil), c.Dict()...)
	}
	return out
}

// firstOwner returns the value under the smallest key of m that owns
// accepts — "the first table, in name order, owning the column", so when
// several qualify the answer is stable across runs. One pass, nothing
// allocated and nothing sorted: string literals and result cells are
// resolved through it one at a time.
func firstOwner[V any](m map[string]V, owns func(V) bool) (best V, ok bool) {
	var bestName string
	//deepdb:orderinvariant a minimum over the keys is the same in every visit order
	for name, v := range m {
		if (!ok || name < bestName) && owns(v) {
			best, bestName, ok = v, name, true
		}
	}
	return best, ok
}

// ResolveLabel maps a string literal on a column to its dictionary code —
// through the live base table when attached, through the persisted
// dictionaries otherwise. known reports whether any table owns the column;
// found whether the literal exists in its dictionary. When several tables
// own the column the first in name order decides.
//
//deepdb:nocancel scans one categorical dictionary per lookup, bounded by the distinct labels of a single column
func (e *Ensemble) ResolveLabel(column, literal string) (code float64, found, known bool) {
	if e.Tables != nil {
		t, known := firstOwner(e.Tables, func(t *table.Table) bool { return t.Column(column) != nil })
		if !known {
			return 0, false, false
		}
		if code := t.Column(column).Lookup(literal); code >= 0 {
			return float64(code), true, true
		}
		return 0, false, true
	}
	st, known := firstOwner(e.Stats, func(st TableStats) bool { return st.HasColumn(column) })
	for code, s := range st.Dicts[column] {
		if s == literal {
			return float64(code), true, true
		}
	}
	return 0, false, known
}

// DecodeLabel renders a dictionary code of a categorical column as its
// string, preferring the live base table and falling back to the
// persisted dictionaries. Returns "" when the column has no dictionary or
// the code is out of range.
func (e *Ensemble) DecodeLabel(column string, code int) string {
	if e.Tables != nil {
		t, ok := firstOwner(e.Tables, func(t *table.Table) bool {
			c := t.Column(column)
			return c != nil && c.DictSize() > 0
		})
		if !ok {
			return ""
		}
		return t.Column(column).Decode(code)
	}
	st, _ := firstOwner(e.Stats, func(st TableStats) bool { return len(st.Dicts[column]) > 0 })
	if dict := st.Dicts[column]; code >= 0 && code < len(dict) {
		return dict[code]
	}
	return ""
}

// statsRowDelta adjusts the maintained cardinality of one table by d rows.
func (e *Ensemble) statsRowDelta(tableName string, d float64) {
	if st, ok := e.Stats[tableName]; ok {
		st.Rows += d
		e.Stats[tableName] = st
	}
}

// TableRows returns the table's current cardinality: the persisted
// statistic (maintained exactly under Insert/Delete) when present, falling
// back to the live table's row count for ensembles without a snapshot.
func (e *Ensemble) TableRows(tableName string) (float64, bool) {
	if st, ok := e.Stats[tableName]; ok {
		return st.Rows, true
	}
	if t := e.Tables[tableName]; t != nil {
		return float64(t.NumRows()), true
	}
	return 0, false
}

// TableHasColumn reports whether the named base table owns the column.
// Resolution order: the persisted statistics snapshot (complete, includes
// synthetic tuple-factor columns), then the live table, then the schema —
// declared columns plus the tuple-factor columns of relationships the
// table is the One side of. The fallbacks keep pre-stats ensembles
// (NewManual without tables) working.
func (e *Ensemble) TableHasColumn(tableName, col string) bool {
	if st, ok := e.Stats[tableName]; ok {
		return st.HasColumn(col)
	}
	if t := e.Tables[tableName]; t != nil {
		return t.Column(col) != nil
	}
	meta := e.Schema.Table(tableName)
	if meta == nil {
		return false
	}
	if _, ok := meta.Column(col); ok {
		return true
	}
	for _, rel := range e.Schema.Relationships() {
		if rel.One == tableName && table.TupleFactorColumn(rel) == col {
			return true
		}
	}
	return false
}

// Describe returns a human-readable ensemble summary, including the
// persisted per-table statistics the model serves from.
func (e *Ensemble) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "ensemble: %d RSPNs (built in %v)\n", len(e.RSPNs), e.BuildTime.Round(time.Millisecond))
	for _, r := range e.RSPNs {
		fmt.Fprintf(&b, "  [%s] rows=%.0f sample=%.3f nodes=%d\n",
			strings.Join(r.Tables, " |x| "), r.FullSize, r.SampleRate, r.Model.Root.NumNodes())
	}
	if len(e.Stats) > 0 {
		fmt.Fprintf(&b, "table statistics (persisted with the model):\n")
		names := make([]string, 0, len(e.Stats))
		for name := range e.Stats {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			st := e.Stats[name]
			fmt.Fprintf(&b, "  %s: rows=%.0f columns=%d\n", name, st.Rows, len(st.Columns))
		}
	}
	return b.String()
}

// ---- Section 5.3: budget-constrained ensemble optimization ----

// candidate is one potential additional multi-table RSPN.
type candidate struct {
	tables  []string
	meanDep float64
	cost    float64
}

// optimize admits additional RSPNs over >2 tables by the paper's greedy
// rule: highest mean pairwise dependency first, relative cost
// cols(r)^2 * rows(r) as tie-breaker and budget meter, until the accumulated
// cost exceeds BudgetFactor times the base ensemble cost.
func (e *Ensemble) optimize(ctx context.Context) error {
	baseCost := 0.0
	for _, r := range e.RSPNs {
		baseCost += relativeCost(len(r.Model.Columns), r.FullSize)
	}
	budget := e.cfg.BudgetFactor * baseCost
	cands, err := e.candidates()
	if err != nil {
		return err
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].meanDep != cands[j].meanDep {
			return cands[i].meanDep > cands[j].meanDep
		}
		return cands[i].cost < cands[j].cost
	})
	spent := 0.0
	for _, c := range cands {
		if spent+c.cost > budget {
			continue
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		r, err := e.learnJoin(ctx, c.tables)
		if err != nil {
			return err
		}
		e.RSPNs = append(e.RSPNs, r)
		spent += c.cost
	}
	return nil
}

// candidates enumerates connected table subsets of size 3..MaxRSPNTables
// that are not already covered by an ensemble member, with their mean
// pairwise dependency and estimated relative cost.
func (e *Ensemble) candidates() ([]candidate, error) {
	existing := map[string]bool{}
	for _, r := range e.RSPNs {
		existing[tableSetKey(r.Tables)] = true
	}
	subsets := e.connectedSubsets(e.cfg.MaxRSPNTables)
	var out []candidate
	for _, sub := range subsets {
		if len(sub) < 3 || existing[tableSetKey(sub)] {
			continue
		}
		dep, err := e.meanDependency(sub)
		if err != nil {
			return nil, err
		}
		cols := 0
		rows := 0.0
		for _, tn := range sub {
			cols += len(e.attributeColumns(tn))
			if r := float64(e.Tables[tn].NumRows()); r > rows {
				rows = r
			}
		}
		out = append(out, candidate{tables: sub, meanDep: dep, cost: relativeCost(cols, rows)})
	}
	return out, nil
}

// meanDependency averages the pairwise dependency values over all table
// pairs of the subset (the paper's objective). Missing pair values are
// computed on demand over the join path.
func (e *Ensemble) meanDependency(tables []string) (float64, error) {
	rdcCfg := stats.RDCConfig{K: 10, Scale: 1.0 / 6.0, Seed: e.cfg.Seed}
	total, n := 0.0, 0
	for i := 0; i < len(tables); i++ {
		for j := i + 1; j < len(tables); j++ {
			key := AttrKey(tables[i], tables[j])
			dep, ok := e.PairDep[key]
			if !ok {
				var err error
				dep, err = e.crossTableDependency(tables, tables[i], tables[j], rdcCfg)
				if err != nil {
					return 0, err
				}
				e.PairDep[key] = dep
			}
			total += dep
			n++
		}
	}
	if n == 0 {
		return 0, nil
	}
	return total / float64(n), nil
}

// connectedSubsets enumerates connected subsets of the FK graph up to the
// given size.
func (e *Ensemble) connectedSubsets(maxSize int) [][]string {
	adj := map[string][]string{}
	for _, rel := range e.Schema.Relationships() {
		adj[rel.One] = append(adj[rel.One], rel.Many)
		adj[rel.Many] = append(adj[rel.Many], rel.One)
	}
	seen := map[string]bool{}
	var out [][]string
	var grow func(set []string)
	grow = func(set []string) {
		key := tableSetKey(set)
		if seen[key] {
			return
		}
		seen[key] = true
		out = append(out, append([]string(nil), set...))
		if len(set) >= maxSize {
			return
		}
		inSet := map[string]bool{}
		for _, t := range set {
			inSet[t] = true
		}
		for _, t := range set {
			for _, nb := range adj[t] {
				if inSet[nb] {
					continue
				}
				grow(append(append([]string(nil), set...), nb))
			}
		}
	}
	for _, meta := range e.Schema.Tables {
		grow([]string{meta.Name})
	}
	return out
}

func tableSetKey(tables []string) string {
	s := append([]string(nil), tables...)
	sort.Strings(s)
	return strings.Join(s, ",")
}

// relativeCost models RSPN creation cost as quadratic in columns and linear
// in rows (Section 5.3).
func relativeCost(cols int, rows float64) float64 {
	return float64(cols*cols) * rows
}
