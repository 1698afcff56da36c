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
// the only tables whose covering RSPNs receive model updates
// (insertRow/deleteRow route join rows through RSPNs with
// HasTable(target); a One-side table's factor bump only writes its base
// table, the covering models absorb it on the target side).
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

// Apply absorbs a batch of mutations in order, rebuilding each touched
// RSPN's flattened evaluator once per batch instead of once per tuple
// (the per-row Insert/Delete entry points are one-element batches, so even
// the synchronous path pays one recompile per call). A failing mutation is
// reported (the first failure, naming its batch index) but does not stop
// the batch: the remaining mutations still apply, exactly as they would
// have under per-call application — so a coalesced batch ends in the same
// state as the same stream applied one call at a time, which is the
// pipeline's equivalence contract. There is no rollback; applied counts
// the mutations that succeeded.
func (e *Ensemble) Apply(muts []Mutation) (applied int, err error) {
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
	return applied, err
}

// CloneForUpdate returns a copy-on-write clone prepared for the given
// mutation batch: the base tables the batch writes (TouchedTables — the
// targets plus FK-bumped One-side tables) and the RSPNs it model-updates
// (those covering a target table) are deep-cloned, so mutating the clone
// leaves the receiver — a published, concurrently-read snapshot —
// bit-for-bit untouched. Everything else is shared by pointer: unwritten
// tables, unmutated RSPNs (including those covering only FK-bumped
// One-side tables, whose models never absorb the bump), the schema, the
// dependency statistics, the rng (drawn from only by the serialized
// update path, keeping sampling decisions on one sequence regardless of
// batching), and the write-path PK index, which readers never consult
// and which therefore stays incrementally maintained across batches
// instead of being rebuilt per clone.
//
// Because the clones share that one write index (and the rng), history
// must be linear: clone the latest state, apply, and make the clone the
// next state. Applying to two clones of the same base — or to a clone and
// then to its base — feeds both branches' keys and tombstones into the
// shared index, and the second branch then resolves primary keys against
// rows its own tables do not hold. Nothing checks this; the shard's apply
// lock is what keeps the one writer per ensemble linear.
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

// insertRow is the per-row insert body shared by Insert and Apply.
func (e *Ensemble) insertRow(tableName string, values map[string]table.Value) error {
	t, ok := e.Tables[tableName]
	if !ok {
		return fmt.Errorf("ensemble: unknown table %s", tableName)
	}
	meta := e.Schema.Table(tableName)

	// 1. Append to the base table (tuple factors of a brand-new row are 0).
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
	newIdx := t.NumRows() - 1
	e.indexInsert(tableName, newIdx)
	e.statsRowDelta(tableName, +1)
	if e.Drift != nil {
		e.Drift.RecordRow(tableName, t, newIdx, +1)
	}

	// 2. Bump the tuple factor of every referenced One-side row.
	var bumps []factorBump
	for _, fk := range meta.ForeignKeys {
		rel := schema.Relationship{Many: tableName, ManyColumn: fk.Column, One: fk.RefTable, OneColumn: fk.RefColumn}
		fkCol := t.Column(fk.Column)
		if fkCol.IsNull(newIdx) {
			bumps = append(bumps, factorBump{rel: rel, row: -1})
			continue
		}
		oneRow, ok := e.lookupPK(fk.RefTable, fkCol.Data[newIdx])
		if !ok {
			bumps = append(bumps, factorBump{rel: rel, row: -1})
			continue
		}
		fCol := e.Tables[fk.RefTable].Column(table.TupleFactorColumn(rel))
		old := fCol.Data[oneRow]
		fCol.Data[oneRow] = old + 1
		bumps = append(bumps, factorBump{rel: rel, row: oneRow, oldF: old})
	}

	// 3. Update every RSPN containing the table.
	for _, r := range e.RSPNs {
		if !r.HasTable(tableName) {
			continue
		}
		if err := e.applyInsert(r, tableName, newIdx, bumps); err != nil {
			return err
		}
	}
	return nil
}

// applyInsert pushes the join rows created by the new base row into one
// RSPN. For a single-table RSPN this is the row itself. For a join RSPN the
// new row is extended across the join tree: One-ward lookups are exact;
// when the referenced One-side row previously had no partner on this edge,
// its padded row is removed and replaced by the now-complete row.
func (e *Ensemble) applyInsert(r *rspn.RSPN, tableName string, rowIdx int, bumps []factorBump) error {
	apply := r.SampleRate >= 1 || e.rng.Float64() < r.SampleRate
	if len(r.Tables) == 1 {
		vec, err := e.modelRow(r, map[string]int{tableName: rowIdx})
		if err != nil {
			return err
		}
		return r.Insert(vec, apply)
	}
	// Collect the rows of every RSPN table reachable One-ward from the
	// inserted row (Many-ward sides stay NULL: a fresh row has no
	// referencing partners yet, and partner enumeration for pre-existing
	// Many branches is approximated by the padded form — see DESIGN.md).
	present := map[string]int{tableName: rowIdx}
	if err := e.extendOneWard(r, tableName, rowIdx, present); err != nil {
		return err
	}
	vec, err := e.modelRow(r, present)
	if err != nil {
		return err
	}
	// If an edge of this RSPN connects the inserted table (Many side) to a
	// One-side row that previously had factor 0, the join used to contain a
	// padded row for it; replace it.
	for _, b := range bumps {
		if b.row < 0 || b.oldF != 0 || !r.HasTable(b.rel.One) || !edgeInRSPN(r, b.rel) {
			continue
		}
		padded := map[string]int{b.rel.One: b.row}
		if err := e.extendOneWard(r, b.rel.One, b.row, padded); err != nil {
			return err
		}
		padVec, err := e.modelRow(r, padded)
		if err != nil {
			return err
		}
		// The padded row carried the pre-bump factor (0 -> clamped 1).
		if i := r.Model.ColumnIndex(table.TupleFactorColumn(b.rel)); i >= 0 {
			padVec[i] = 1
		}
		if err := r.Delete(padVec, apply); err != nil {
			return err
		}
	}
	return r.Insert(vec, apply)
}

// factorBump records a tuple-factor change on a One-side row caused by
// inserting or deleting a Many-side row.
type factorBump struct {
	rel  schema.Relationship
	row  int // row index in the One table, -1 when dangling
	oldF float64
}

// extendOneWard walks the RSPN's join edges from the given table toward
// referenced (One-side) tables, resolving the concrete partner rows.
func (e *Ensemble) extendOneWard(r *rspn.RSPN, from string, rowIdx int, present map[string]int) error {
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
		if err := e.extendOneWard(r, edge.One, oneRow, present); err != nil {
			return err
		}
	}
	return nil
}

// modelRow assembles the model-column vector for a join row in which the
// given tables are present (others padded NULL with indicator 0). Tuple-
// factor columns of present tables are clamped to >= 1 for join RSPNs,
// matching the training-data convention.
func (e *Ensemble) modelRow(r *rspn.RSPN, present map[string]int) ([]float64, error) {
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
	return vec, nil
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

// deleteRow removes a base-table row (located by primary key) from the
// ensemble: base table rows are kept but tombstoned out of indexes, tuple
// factors are decremented, and covering RSPNs receive the inverse update.
// Only single-table RSPNs and 2-table join RSPNs delete their join rows
// exactly; larger joins apply the single-row approximation.
func (e *Ensemble) deleteRow(tableName string, pk float64) error {
	t, ok := e.Tables[tableName]
	if !ok {
		return fmt.Errorf("ensemble: unknown table %s", tableName)
	}
	meta := e.Schema.Table(tableName)
	if meta.PrimaryKey == "" {
		return fmt.Errorf("ensemble: table %s has no primary key", tableName)
	}
	rowIdx, ok := e.lookupPK(tableName, pk)
	if !ok {
		return fmt.Errorf("ensemble: %s: no row with pk %v", tableName, pk)
	}
	// Reverse the tuple-factor bumps.
	var bumps []factorBump
	for _, fk := range meta.ForeignKeys {
		rel := schema.Relationship{Many: tableName, ManyColumn: fk.Column, One: fk.RefTable, OneColumn: fk.RefColumn}
		fkCol := t.Column(fk.Column)
		if fkCol.IsNull(rowIdx) {
			continue
		}
		oneRow, ok := e.lookupPK(fk.RefTable, fkCol.Data[rowIdx])
		if !ok {
			continue
		}
		fCol := e.Tables[fk.RefTable].Column(table.TupleFactorColumn(rel))
		fCol.Data[oneRow]--
		bumps = append(bumps, factorBump{rel: rel, row: oneRow, oldF: fCol.Data[oneRow] + 1})
	}
	for _, r := range e.RSPNs {
		if !r.HasTable(tableName) {
			continue
		}
		apply := r.SampleRate >= 1 || e.rng.Float64() < r.SampleRate
		present := map[string]int{tableName: rowIdx}
		if len(r.Tables) > 1 {
			if err := e.extendOneWard(r, tableName, rowIdx, present); err != nil {
				return err
			}
		}
		vec, err := e.modelRow(r, present)
		if err != nil {
			return err
		}
		// The join row being deleted carried the pre-decrement factor.
		for _, b := range bumps {
			if r.HasTable(b.rel.One) && edgeInRSPN(r, b.rel) {
				if i := r.Model.ColumnIndex(table.TupleFactorColumn(b.rel)); i >= 0 {
					vec[i] = math.Max(1, b.oldF)
				}
			}
		}
		if err := r.Delete(vec, apply); err != nil {
			return err
		}
		// A One-side partner left without any Many partner regains its
		// padded row.
		for _, b := range bumps {
			if b.oldF != 1 || !r.HasTable(b.rel.One) || !edgeInRSPN(r, b.rel) {
				continue
			}
			padded := map[string]int{b.rel.One: b.row}
			if err := e.extendOneWard(r, b.rel.One, b.row, padded); err != nil {
				return err
			}
			padVec, err := e.modelRow(r, padded)
			if err != nil {
				return err
			}
			if err := r.Insert(padVec, apply); err != nil {
				return err
			}
		}
	}
	// Fold the row out of the drift moments while its values are still
	// addressable, then tombstone it.
	if e.Drift != nil {
		e.Drift.RecordRow(tableName, t, rowIdx, -1)
	}
	e.indexDelete(tableName, rowIdx)
	// The base row is only tombstoned, so the live NumRows() no longer
	// reflects the cardinality; the maintained statistic does.
	e.statsRowDelta(tableName, -1)
	return nil
}

// ---- primary-key indexes (write path) ----

// writeIndex is the write-path lookup state: per-table primary-key indexes
// plus the tombstone sets of deleted rows. It is shared by pointer across
// copy-on-write ensemble clones — the query path never consults it, and
// the update path is serialized — so a sustained insert/delete stream
// maintains one index incrementally across batches instead of rebuilding
// it on every clone.
type writeIndex struct {
	// pk maps table -> primary-key value -> row index.
	pk map[string]map[float64]int
	// dead maps table -> tombstoned row indexes. Deleted rows are kept in
	// the base table (only the model and statistics forget them), so an
	// index rebuild must skip them or deleted primary keys would
	// resurrect.
	dead map[string]map[int]bool
}

func newWriteIndex() *writeIndex {
	return &writeIndex{pk: make(map[string]map[float64]int), dead: make(map[string]map[int]bool)}
}

func (e *Ensemble) lookupPK(tableName string, pk float64) (int, bool) {
	idx, ok := e.idx.pk[tableName]
	if !ok {
		idx = e.buildPKIndex(tableName)
	}
	row, ok := idx[pk]
	return row, ok
}

// buildPKIndex scans the base table once, skipping tombstoned rows. It
// runs at most once per table per ensemble lifetime (attach/load); from
// then on indexInsert/indexDelete maintain the map incrementally.
func (e *Ensemble) buildPKIndex(tableName string) map[float64]int {
	t := e.Tables[tableName]
	meta := e.Schema.Table(tableName)
	idx := make(map[float64]int, t.NumRows())
	if meta.PrimaryKey != "" {
		pkCol := t.Column(meta.PrimaryKey)
		dead := e.idx.dead[tableName]
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

func (e *Ensemble) indexDelete(tableName string, rowIdx int) {
	meta := e.Schema.Table(tableName)
	if meta.PrimaryKey == "" {
		return
	}
	dead := e.idx.dead[tableName]
	if dead == nil {
		dead = make(map[int]bool)
		e.idx.dead[tableName] = dead
	}
	dead[rowIdx] = true
	if idx, ok := e.idx.pk[tableName]; ok {
		pkCol := e.Tables[tableName].Column(meta.PrimaryKey)
		if !pkCol.IsNull(rowIdx) {
			delete(idx, pkCol.Data[rowIdx])
		}
	}
}
