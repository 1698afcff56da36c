package ensemble

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/rspn"
	"repro/internal/schema"
	"repro/internal/table"
)

// MutationOp discriminates the mutation kinds of a batch.
type MutationOp int

const (
	// OpInsert appends a new base-table row.
	OpInsert MutationOp = iota
	// OpDelete removes the base-table row with the given primary key.
	OpDelete
)

// Mutation is one base-table change for Apply: an insert carrying the new
// row's values, or a delete locating its victim by primary key.
type Mutation struct {
	Op    MutationOp
	Table string
	// Values holds the inserted row (OpInsert); missing columns become
	// NULL. Cells arrive already encoded (categoricals as dictionary
	// codes), so applying a mutation never extends a dictionary.
	Values map[string]table.Value
	// PK locates the deleted row (OpDelete).
	PK float64
}

// Insert absorbs a new base-table row into the ensemble (Section 5.2): the
// base table and its tuple factors are updated exactly, and every RSPN
// covering the table receives the corresponding join rows through
// Algorithm 1, subsampled at the RSPN's training sample rate. values maps
// column names to cell values; missing columns become NULL.
func (e *Ensemble) Insert(tableName string, values map[string]table.Value) error {
	_, err := e.Apply([]Mutation{{Op: OpInsert, Table: tableName, Values: values}})
	return err
}

// TouchedTables returns the set of base tables a mutation batch writes:
// each mutation's target table plus the One-side tables whose tuple
// factors the target's foreign keys bump. Tables the batch merely reads
// (One-ward join partners beyond one FK hop) are not included — applying
// the batch never writes them.
//
//deepdb:nocancel bounded by one mutation batch times the schema FK count; touches no row data
func (e *Ensemble) TouchedTables(muts []Mutation) map[string]bool {
	out := targetTables(muts)
	for i := range muts {
		if meta := e.Schema.Table(muts[i].Table); meta != nil {
			for _, fk := range meta.ForeignKeys {
				out[fk.RefTable] = true
			}
		}
	}
	return out
}

// targetTables is the set of tables the batch's mutations name directly —
// the only tables whose covering RSPNs receive model updates (applyRow
// routes join rows through RSPNs with HasTable(target); a One-side table's
// factor bump only writes its base table, the covering models absorb it
// on the target side).
func targetTables(muts []Mutation) map[string]bool {
	out := make(map[string]bool)
	for i := range muts {
		out[muts[i].Table] = true
	}
	return out
}

// rspnTouches reports whether the RSPN covers any table of the set.
func rspnTouches(r *rspn.RSPN, touched map[string]bool) bool {
	for _, t := range r.Tables {
		if touched[t] {
			return true
		}
	}
	return false
}

// Apply absorbs a batch of mutations in order, each as one signed update
// of its row (applyRow), and re-weights each touched RSPN's flattened
// evaluator once per batch instead of once per row (Insert is a
// one-element batch). A failing mutation is reported (the first failure,
// naming its batch index) but does not stop the batch: the remaining
// mutations still apply, exactly as they would have one batch each — so a
// coalesced batch ends in the same state as the same stream applied one
// mutation at a time, which is the pipeline's equivalence contract. There
// is no rollback; applied counts the mutations that succeeded.
//
// History must be linear (see CloneForUpdate): Apply to a state the shared
// write index has moved past — a second clone of one base, or a base after
// its clone applied — returns an error and mutates nothing. A batch in
// which something applied makes the receiver the index's head; one in
// which nothing did leaves the head where it was, so its base may still be
// cloned and applied.
func (e *Ensemble) Apply(muts []Mutation) (applied int, err error) {
	if e.at != e.idx.head {
		return 0, fmt.Errorf("ensemble: apply to a stale state (write index at batch %d, this state at %d): history must be linear — clone the latest state", e.idx.head, e.at)
	}
	// Only RSPNs covering a mutation's target table receive model updates;
	// batching those is enough (One-side factor bumps write base tables,
	// not models).
	targets := targetTables(muts)
	for _, r := range e.RSPNs {
		if rspnTouches(r, targets) {
			r.BeginBatch()
			defer r.EndBatch()
		}
	}
	for i := range muts {
		var merr error
		switch muts[i].Op {
		case OpInsert:
			merr = e.insertRow(muts[i].Table, muts[i].Values)
		case OpDelete:
			merr = e.deleteRow(muts[i].Table, muts[i].PK)
		default:
			merr = fmt.Errorf("ensemble: unknown mutation op %d", muts[i].Op)
		}
		if merr != nil {
			if err == nil {
				err = fmt.Errorf("ensemble: mutation %d: %w", i, merr)
			}
			continue
		}
		applied++
	}
	if applied > 0 {
		e.idx.head++
		e.at = e.idx.head
	}
	return applied, err
}

// CloneForUpdate returns a copy-on-write clone prepared for the given
// mutation batch: mutating the clone leaves the receiver — a published,
// concurrently-read snapshot — bit-for-bit untouched. The base tables the
// batch writes (TouchedTables — the targets plus FK-bumped One-side
// tables) get their own headers over the receiver's column arrays
// (table.CloneData): the batch's rows and tombstones are appended past the
// receiver's length, and only a column the batch writes in place — the
// One-side tuple factor — is copied. The RSPNs the batch model-updates
// (those covering a target table) are deep-cloned. Everything else is
// shared by pointer: unwritten tables, unmutated RSPNs (including those
// covering only FK-bumped One-side tables, whose models never absorb the
// bump), the schema, the dependency statistics, the rng (drawn from only
// by the serialized update path, keeping sampling decisions on one
// sequence regardless of batching), and the write-path PK index, which
// readers never consult and which therefore stays incrementally maintained
// across batches instead of being rebuilt per clone.
//
// Because the clones share that one write index (and the rng), history
// must be linear: clone the latest state, apply, and make the clone the
// next state. Apply enforces it — applying to two clones of the same base,
// or to a clone and then to its base, fails on the second with nothing
// mutated. The tables themselves would survive branching (their tail word
// sends a second branch to private arrays); the index, which maps each
// primary key to one row, would not.
func (e *Ensemble) CloneForUpdate(muts []Mutation) *Ensemble {
	touched := e.TouchedTables(muts)
	targets := targetTables(muts)
	out := &Ensemble{
		Schema:    e.Schema,
		RSPNs:     make([]*rspn.RSPN, len(e.RSPNs)),
		AttrRDC:   e.AttrRDC,
		PairDep:   e.PairDep,
		BuildTime: e.BuildTime,
		Drift:     e.Drift,
		cfg:       e.cfg,
		rng:       e.rng,
		idx:       e.idx,
		at:        e.at,
	}
	if e.Stats != nil {
		out.Stats = make(map[string]TableStats, len(e.Stats))
		//deepdb:orderinvariant map-to-map copy; the result is independent of visit order
		for name, st := range e.Stats {
			out.Stats[name] = st
		}
	}
	if e.Tables != nil {
		out.Tables = make(map[string]*table.Table, len(e.Tables))
		//deepdb:orderinvariant per-key clone-or-share decision; independent of visit order
		for name, t := range e.Tables {
			if touched[name] {
				out.Tables[name] = t.CloneData()
			} else {
				out.Tables[name] = t
			}
		}
	}
	for i, r := range e.RSPNs {
		if rspnTouches(r, targets) {
			out.RSPNs[i] = r.Clone()
		} else {
			out.RSPNs[i] = r
		}
	}
	return out
}

// insertRow appends a new base-table row (its tuple factors are 0),
// indexes it, counts it in the statistics and drift moments, and applies
// it with weight +1.
func (e *Ensemble) insertRow(tableName string, values map[string]table.Value) error {
	t, ok := e.Tables[tableName]
	if !ok {
		return fmt.Errorf("ensemble: unknown table %s", tableName)
	}
	row := make([]table.Value, len(t.Cols))
	for i, c := range t.Cols {
		if v, ok := values[c.Meta.Name]; ok {
			row[i] = v
		} else if strings.HasPrefix(c.Meta.Name, "__fk_") {
			row[i] = table.Int(0)
		} else {
			row[i] = table.Null()
		}
	}
	t.AppendRow(row...)
	rowIdx := t.NumRows() - 1
	e.indexInsert(tableName, rowIdx)
	e.statsRowDelta(tableName, +1)
	if e.Drift != nil {
		e.Drift.RecordRow(tableName, t, rowIdx, +1)
	}
	return e.applyRow(tableName, rowIdx, +1)
}

// deleteRow locates a base-table row by primary key, applies it with
// weight -1, and then tombstones it: the base table keeps the row, the
// index and the statistics drop it.
func (e *Ensemble) deleteRow(tableName string, pk float64) error {
	t, ok := e.Tables[tableName]
	if !ok {
		return fmt.Errorf("ensemble: unknown table %s", tableName)
	}
	if e.Schema.Table(tableName).PrimaryKey == "" {
		return fmt.Errorf("ensemble: table %s has no primary key", tableName)
	}
	rowIdx, ok := e.lookupPK(tableName, pk)
	if !ok {
		return fmt.Errorf("ensemble: %s: no row with pk %v", tableName, pk)
	}
	if err := e.applyRow(tableName, rowIdx, -1); err != nil {
		return err
	}
	// Fold the row out of the drift moments while its values are still
	// addressable, then tombstone it.
	if e.Drift != nil {
		e.Drift.RecordRow(tableName, t, rowIdx, -1)
	}
	e.indexDelete(tableName, rowIdx)
	// The base row is only tombstoned, so the physical NumRows() no longer
	// reflects the cardinality; the maintained statistic does.
	e.statsRowDelta(tableName, -1)
	return nil
}

// factorBump records the tuple-factor change a Many-side row makes on the
// One-side row its foreign key references.
type factorBump struct {
	rel schema.Relationship
	row int // row index in the One table
	// with is the One-side row's factor while the Many-side row exists:
	// the new factor on insert, the old one on delete.
	with float64
}

// applyRow is Section 5.2's update of one base row with weight w: +1 for
// a row that starts existing, -1 for one that stops. The row moves the
// tuple factor of every One-side row its foreign keys reference by w, and
// every RSPN covering its table absorbs, through Algorithm 1 and
// subsampled at the RSPN's training sample rate, the join rows that start
// or stop existing with it:
//
//   - its own join row: the row extended One-ward across the RSPN's join
//     tree, with every Many-ward side padded. A fresh row has no
//     referencing rows; a deleted row's are not enumerated (the
//     single-row approximation, exact in a single table and on the Many
//     side of a two-table join). On each bumped edge the row carries the
//     factor its One-side partner has while the row exists, so a delete
//     removes exactly the vector the insert added;
//   - the padded join row of each referenced One-side row whose only
//     partner on an edge of the RSPN is this row: it exists exactly while
//     this row does not, so it moves by -w.
//
// In each RSPN the rows that stop existing leave before the rows that
// start existing arrive.
func (e *Ensemble) applyRow(tableName string, rowIdx int, w float64) error {
	t := e.Tables[tableName]
	var bumps []factorBump
	for _, fk := range e.Schema.Table(tableName).ForeignKeys {
		fkCol := t.Column(fk.Column)
		if fkCol.IsNull(rowIdx) {
			continue
		}
		oneRow, ok := e.lookupPK(fk.RefTable, fkCol.Data[rowIdx])
		if !ok {
			continue // dangling: no One-side row to bump
		}
		rel := schema.Relationship{Many: tableName, ManyColumn: fk.Column, One: fk.RefTable, OneColumn: fk.RefColumn}
		fCol := e.Tables[fk.RefTable].Column(table.TupleFactorColumn(rel))
		old := fCol.Data[oneRow]
		fCol.Set(oneRow, old+w)
		bumps = append(bumps, factorBump{rel: rel, row: oneRow, with: max(old, old+w)})
	}
	for _, r := range e.RSPNs {
		if !r.HasTable(tableName) {
			continue
		}
		apply := r.SampleRate >= 1 || e.rng.Float64() < r.SampleRate
		present := map[string]int{tableName: rowIdx}
		if len(r.Tables) > 1 {
			e.extendOneWard(r, tableName, rowIdx, present)
		}
		vec := e.modelRow(r, present)
		for _, b := range bumps {
			if i := r.Model.ColumnIndex(table.TupleFactorColumn(b.rel)); i >= 0 && edgeInRSPN(r, b.rel) {
				vec[i] = max(1, b.with)
			}
		}
		if w < 0 {
			if err := r.Update(vec, w, apply); err != nil {
				return err
			}
		}
		for _, b := range bumps {
			if b.with != 1 || !edgeInRSPN(r, b.rel) {
				continue
			}
			padded := map[string]int{b.rel.One: b.row}
			e.extendOneWard(r, b.rel.One, b.row, padded)
			if err := r.Update(e.modelRow(r, padded), -w, apply); err != nil {
				return err
			}
		}
		if w > 0 {
			if err := r.Update(vec, w, apply); err != nil {
				return err
			}
		}
	}
	return nil
}

// extendOneWard walks the RSPN's join edges from the given table toward
// referenced (One-side) tables, resolving the concrete partner rows.
func (e *Ensemble) extendOneWard(r *rspn.RSPN, from string, rowIdx int, present map[string]int) {
	for _, edge := range r.Edges {
		if edge.Many != from {
			continue
		}
		if _, done := present[edge.One]; done {
			continue
		}
		fkCol := e.Tables[from].Column(edge.ManyColumn)
		if fkCol == nil || fkCol.IsNull(rowIdx) {
			continue
		}
		oneRow, ok := e.lookupPK(edge.One, fkCol.Data[rowIdx])
		if !ok {
			continue
		}
		present[edge.One] = oneRow
		e.extendOneWard(r, edge.One, oneRow, present)
	}
}

// modelRow assembles the model-column vector for a join row in which the
// given tables are present (others padded NULL with indicator 0). Tuple-
// factor columns of present tables are clamped to >= 1 for join RSPNs,
// matching the training-data convention.
func (e *Ensemble) modelRow(r *rspn.RSPN, present map[string]int) []float64 {
	vec := make([]float64, len(r.Model.Columns))
	isJoin := len(r.Tables) > 1
	for i, colName := range r.Model.Columns {
		switch {
		case strings.HasPrefix(colName, "__nt_"):
			tn := strings.TrimPrefix(colName, "__nt_")
			if _, ok := present[tn]; ok {
				vec[i] = 1
			} else {
				vec[i] = 0
			}
		default:
			owner, rowIdx, ok := e.findOwner(r, colName, present)
			if !ok {
				vec[i] = math.NaN()
				if isJoin && strings.HasPrefix(colName, "__fk_") {
					vec[i] = 1 // padded rows count themselves once
				}
				continue
			}
			col := e.Tables[owner].Column(colName)
			if col.IsNull(rowIdx) {
				vec[i] = math.NaN()
				continue
			}
			v := col.Data[rowIdx]
			if isJoin && strings.HasPrefix(colName, "__fk_") && v < 1 {
				v = 1
			}
			vec[i] = v
		}
	}
	return vec
}

// findOwner locates which present table owns the named column. Tables are
// consulted in the RSPN's declared order so a column owned by several
// present tables resolves the same way on every run.
func (e *Ensemble) findOwner(r *rspn.RSPN, colName string, present map[string]int) (string, int, bool) {
	for _, tn := range r.Tables {
		rowIdx, ok := present[tn]
		if !ok {
			continue
		}
		if e.Tables[tn].Column(colName) != nil {
			return tn, rowIdx, true
		}
	}
	return "", 0, false
}

func edgeInRSPN(r *rspn.RSPN, rel schema.Relationship) bool {
	for _, edge := range r.Edges {
		if edge.ID() == rel.ID() {
			return true
		}
	}
	return false
}

// ---- primary-key indexes (write path) ----

// writeIndex is the write-path lookup state: per-table primary-key indexes
// over the live (untombstoned) rows. It is shared by pointer across
// copy-on-write ensemble clones — the query path never consults it, and
// the update path is serialized — so a sustained insert/delete stream
// maintains one index incrementally across batches instead of rebuilding
// it on every clone.
type writeIndex struct {
	// pk maps table -> primary-key value -> row index.
	pk map[string]map[float64]int
	// head counts the batches in which something applied. The index
	// describes the state whose Ensemble.at equals it; Apply refuses any
	// other.
	head uint64
}

func newWriteIndex() *writeIndex {
	return &writeIndex{pk: make(map[string]map[float64]int)}
}

func (e *Ensemble) lookupPK(tableName string, pk float64) (int, bool) {
	idx, ok := e.idx.pk[tableName]
	if !ok {
		idx = e.buildPKIndex(tableName)
	}
	row, ok := idx[pk]
	return row, ok
}

// buildPKIndex scans the base table once, skipping the rows it records as
// tombstoned — so an index rebuilt after a reopen or a Reload never
// resurrects a deleted key. It runs at most once per table per ensemble
// lifetime (attach/load); from then on indexInsert/indexDelete maintain
// the map incrementally.
func (e *Ensemble) buildPKIndex(tableName string) map[float64]int {
	t := e.Tables[tableName]
	meta := e.Schema.Table(tableName)
	idx := make(map[float64]int, t.NumRows())
	if meta.PrimaryKey != "" {
		pkCol := t.Column(meta.PrimaryKey)
		dead := make([]bool, t.NumRows())
		for _, r := range t.Dead() {
			dead[r] = true
		}
		for i := 0; i < t.NumRows(); i++ {
			if !pkCol.IsNull(i) && !dead[i] {
				idx[pkCol.Data[i]] = i
			}
		}
	}
	e.idx.pk[tableName] = idx
	return idx
}

func (e *Ensemble) indexInsert(tableName string, rowIdx int) {
	meta := e.Schema.Table(tableName)
	if meta.PrimaryKey == "" {
		return
	}
	idx, ok := e.idx.pk[tableName]
	if !ok {
		e.buildPKIndex(tableName)
		return
	}
	pkCol := e.Tables[tableName].Column(meta.PrimaryKey)
	if !pkCol.IsNull(rowIdx) {
		idx[pkCol.Data[rowIdx]] = rowIdx
	}
}

// indexDelete tombstones the row in its table and drops its key.
func (e *Ensemble) indexDelete(tableName string, rowIdx int) {
	t := e.Tables[tableName]
	t.Tombstone(rowIdx)
	if idx, ok := e.idx.pk[tableName]; ok {
		pkCol := t.Column(e.Schema.Table(tableName).PrimaryKey)
		if !pkCol.IsNull(rowIdx) {
			delete(idx, pkCol.Data[rowIdx])
		}
	}
}
