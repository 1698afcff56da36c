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
	"runtime"
	"slices"
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

	// workers caps how many members learn concurrently, and how many
	// goroutines each member's column-split tests and large KMeans passes
	// run on; 0 means one per core (GOMAXPROCS). Above one, the budget's
	// candidates are scored while the base members learn. The members are
	// independent and each learns from its own seed, a split test's pairs
	// and a KMeans pass's points are independent too, and candidate
	// scoring shares no state with base learning, so the count changes
	// only wall-clock time.
	workers int
}

// workerCount resolves workers' 0 to GOMAXPROCS.
func (c Config) workerCount() int {
	if c.workers == 0 {
		return runtime.GOMAXPROCS(0)
	}
	return c.workers
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
	// indexed by code). It is the model's only dictionary: string-literal
	// predicates resolve and group-by labels decode through it whether or
	// not base tables are attached, AttachTables refuses tables whose
	// dictionaries disagree with it, and updates never extend it (a
	// Mutation carries codes).
	Dicts map[string][]string

	// codes indexes Dicts, label to code per column. It is built once
	// where the statistics are made (captureStats, Load) and shared by
	// every copy-on-write clone; gob skips it.
	codes map[string]map[string]int
}

// indexDicts builds the label-to-code index of the snapshot's
// dictionaries. A label listed twice resolves to its first code.
func (st *TableStats) indexDicts() {
	st.codes = make(map[string]map[string]int, len(st.Dicts))
	//deepdb:orderinvariant builds independent per-column index entries; no cross-iteration state
	for col, dict := range st.Dicts {
		idx := make(map[string]int, len(dict))
		for code, label := range dict {
			if _, dup := idx[label]; !dup {
				idx[label] = code
			}
		}
		st.codes[col] = idx
	}
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
	// Stats holds per-table cardinalities, column sets and dictionaries,
	// captured at construction, persisted with the model and maintained
	// under updates. It is the only source of table sizes, column
	// ownership and labels, so serving never reads the base tables.
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
	// idx is the write-path primary-key index (update.go). Shared by
	// pointer across copy-on-write clones; the query path never reads it.
	// at is the index head this state was derived at: Apply writes only
	// while it is still the head.
	idx *writeIndex
	at  uint64
}

// NewManual assembles an ensemble from pre-learned RSPNs, bypassing
// construction. Dependency statistics may be nil; the execution strategy
// then treats all attribute pairs as uncorrelated.
//
//deepdb:testonly core tests pin a hand-picked member set that construction would not choose
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
	base := e.baseJobs()
	if cfg.SingleTableOnly || cfg.BudgetFactor <= 0 {
		if err := e.learnMembers(ctx, base); err != nil {
			return nil, err
		}
	} else {
		// Scoring the budget's candidates reads and writes only the
		// dependency maps and e.rng, which base learning never touches, so
		// it runs beside the base members; with one worker, after them.
		var cands []candidate
		err := parallel.ForEach(2, cfg.workerCount(), func(i int) error {
			if i == 0 {
				return e.learnMembers(ctx, base)
			}
			var err error
			cands, err = e.candidates(ctx, base)
			return err
		})
		if err != nil {
			return nil, err
		}
		if err := e.optimize(ctx, cands); err != nil {
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
	rdcCfg := stats.LearnRDCConfig(e.cfg.Seed)
	// Within-table pairs, each column prepared once for its roles.
	for _, meta := range e.Schema.Tables {
		t := e.Tables[meta.Name]
		cols := e.attributeColumns(meta.Name)
		rows := t.SampleRows(e.cfg.RDCSampleRows, e.rng)
		data, err := t.Matrix(cols, rows)
		if err != nil {
			return err
		}
		prepared := make([]*stats.RDCColumn, len(cols))
		for i := range cols {
			prepared[i] = stats.PrepareRDC(columnOf(data, i), stats.PairRoles(i, len(cols)), rdcCfg)
		}
		for i := 0; i < len(cols); i++ {
			for j := i + 1; j < len(cols); j++ {
				e.AttrRDC[AttrKey(cols[i], cols[j])] = stats.RDCPair(prepared[i], prepared[j])
			}
		}
	}
	// Cross-table pairs for adjacent tables.
	for _, rel := range e.Schema.Relationships() {
		j, err := e.innerJoin([]string{rel.One, rel.Many})
		if err != nil {
			return err
		}
		dep, err := e.crossTableDependency(j, rel.One, rel.Many)
		if err != nil {
			return err
		}
		e.PairDep[AttrKey(rel.One, rel.Many)] = dep
	}
	return nil
}

// innerJoin numbers the inner join's tuples without building it.
func (e *Ensemble) innerJoin(tables []string) (*table.JoinRanks, error) {
	edges, err := e.Schema.JoinTree(tables)
	if err != nil {
		return nil, err
	}
	return table.InnerJoinRanks(e.Tables, table.JoinSpec{Tables: tables, Edges: edges})
}

// crossTableDependency computes the dependency value (max attribute-pair
// RDC) between attributes of tables a and b over a sample of the inner join
// j, caching the individual attribute RDCs. Only the sampled tuples are
// decoded, and only the two tables' attribute columns gathered.
func (e *Ensemble) crossTableDependency(j *table.JoinRanks, a, b string) (float64, error) {
	if j.NumRows() == 0 {
		return 0, nil
	}
	rdcCfg := stats.LearnRDCConfig(e.cfg.Seed)
	sample := j.Sample(e.cfg.RDCSampleRows, e.rng)
	colsA := e.attributeColumns(a)
	colsB := e.attributeColumns(b)
	data, err := sample.Matrix(slices.Concat(colsB, colsA), nil)
	if err != nil {
		return 0, err
	}
	ys := make([]*stats.RDCColumn, len(colsB))
	for i := range colsB {
		ys[i] = stats.PrepareRDC(columnOf(data, i), stats.RoleY, rdcCfg)
	}
	max := 0.0
	for k, ca := range colsA {
		x := stats.PrepareRDC(columnOf(data, len(colsB)+k), stats.RoleX, rdcCfg)
		for i, cb := range colsB {
			v := stats.RDCPair(x, ys[i])
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

// baseJobs lists the table sets of the base ensemble: joint RSPNs for
// correlated adjacent pairs, single-table RSPNs elsewhere (every table
// ends up covered).
func (e *Ensemble) baseJobs() [][]string {
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
	return jobs
}

// learnMembers learns one member per table set, concurrently (the members
// are independent), and appends them in the order of jobs.
func (e *Ensemble) learnMembers(ctx context.Context, jobs [][]string) error {
	members := make([]*rspn.RSPN, len(jobs))
	learn := func(i int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		var err error
		if len(jobs[i]) == 1 {
			members[i], err = e.learnSingle(ctx, jobs[i][0])
		} else {
			members[i], err = e.learnJoin(ctx, jobs[i])
		}
		return err
	}
	if err := parallel.ForEach(len(jobs), e.cfg.workerCount(), learn); err != nil {
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

// learnJoin computes the full outer join of the tables as row indices and
// learns a joint RSPN over it, gathering only the sampled tuples.
func (e *Ensemble) learnJoin(ctx context.Context, tables []string) (*rspn.RSPN, error) {
	edges, err := e.Schema.JoinTree(tables)
	if err != nil {
		return nil, err
	}
	j, err := table.IndexJoin(e.Tables, table.JoinSpec{Tables: tables, Edges: edges}, false)
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
		Workers:    e.cfg.workerCount(),
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
// categorical dictionaries from the base tables (call after tuple-factor
// augmentation). A no-op without tables.
func (e *Ensemble) captureStats() {
	if e.Tables == nil {
		return
	}
	e.Stats = make(map[string]TableStats, len(e.Tables))
	//deepdb:orderinvariant builds independent per-table map entries; no cross-iteration state
	for name, t := range e.Tables {
		st := TableStats{
			Rows:    float64(t.NumRows()),
			Columns: append([]string(nil), t.ColumnNames()...),
			Dicts:   captureDicts(t),
		}
		st.indexDicts()
		e.Stats[name] = st
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

// firstOwner returns the statistics of the first table, in name order,
// that owns accepts, so when several qualify the answer is stable across
// runs. One pass, nothing allocated and nothing sorted: string literals
// and result cells are resolved through it one at a time.
func firstOwner(stats map[string]TableStats, owns func(TableStats) bool) (best TableStats, ok bool) {
	var bestName string
	//deepdb:orderinvariant a minimum over the keys is the same in every visit order
	for name, st := range stats {
		if (!ok || name < bestName) && owns(st) {
			best, bestName, ok = st, name, true
		}
	}
	return best, ok
}

// ResolveLabel maps a string literal on a column to its code in the
// model's dictionary. known reports whether any table owns the column;
// found whether the literal is in its dictionary. When several tables own
// the column the first in name order decides.
//
//deepdb:nocancel one map probe per table of the schema, plus one into the owner's label index
func (e *Ensemble) ResolveLabel(column, literal string) (code float64, found, known bool) {
	st, known := firstOwner(e.Stats, func(st TableStats) bool { return st.HasColumn(column) })
	c, found := st.codes[column][literal]
	return float64(c), found, known
}

// DecodeLabel renders a code of a categorical column as its label in the
// model's dictionary. Returns "" when the column has no dictionary or the
// code is out of range.
func (e *Ensemble) DecodeLabel(column string, code int) string {
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

// TableRows returns the table's current cardinality, as maintained
// exactly under Insert/Delete.
func (e *Ensemble) TableRows(tableName string) (float64, bool) {
	st, ok := e.Stats[tableName]
	return st.Rows, ok
}

// TableHasColumn reports whether the named base table owns the column,
// synthetic tuple-factor columns included.
func (e *Ensemble) TableHasColumn(tableName, col string) bool {
	return e.Stats[tableName].HasColumn(col)
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

// optimize admits additional RSPNs over >2 tables, from the scored
// candidates, by the paper's greedy rule: highest mean pairwise dependency
// first, relative cost cols(r)^2 * rows(r) as tie-breaker and budget
// meter, until the accumulated cost exceeds BudgetFactor times the cost of
// the base ensemble (e.RSPNs). Selection reads only the candidates'
// estimated costs, so every pick is made before the picked members learn,
// concurrently.
func (e *Ensemble) optimize(ctx context.Context, cands []candidate) error {
	baseCost := 0.0
	for _, r := range e.RSPNs {
		baseCost += relativeCost(len(r.Model.Columns), r.FullSize)
	}
	budget := e.cfg.BudgetFactor * baseCost
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].meanDep != cands[j].meanDep {
			return cands[i].meanDep > cands[j].meanDep
		}
		return cands[i].cost < cands[j].cost
	})
	spent := 0.0
	var picked [][]string
	for _, c := range cands {
		if spent+c.cost > budget {
			continue
		}
		picked = append(picked, c.tables)
		spent += c.cost
	}
	return e.learnMembers(ctx, picked)
}

// candidates enumerates connected table subsets of size 3..MaxRSPNTables
// that are not already the table set of a base member, with their mean
// pairwise dependency and estimated relative cost. It checks ctx between
// subsets.
func (e *Ensemble) candidates(ctx context.Context, base [][]string) ([]candidate, error) {
	existing := map[string]bool{}
	for _, tables := range base {
		existing[tableSetKey(tables)] = true
	}
	subsets := e.connectedSubsets(e.cfg.MaxRSPNTables)
	var out []candidate
	for _, sub := range subsets {
		if len(sub) < 3 || existing[tableSetKey(sub)] {
			continue
		}
		if err := ctx.Err(); err != nil {
			return nil, err
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
// computed on demand over the subset's inner join, computed once.
func (e *Ensemble) meanDependency(tables []string) (float64, error) {
	var joined *table.JoinRanks
	total, n := 0.0, 0
	for i := 0; i < len(tables); i++ {
		for j := i + 1; j < len(tables); j++ {
			key := AttrKey(tables[i], tables[j])
			dep, ok := e.PairDep[key]
			if !ok {
				var err error
				if joined == nil {
					if joined, err = e.innerJoin(tables); err != nil {
						return 0, err
					}
				}
				dep, err = e.crossTableDependency(joined, tables[i], tables[j])
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
			for _, edge := range e.Schema.NeighborEdges(t) {
				nb := edge.Other(t)
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
