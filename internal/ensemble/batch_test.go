package ensemble

import (
	"context"
	"testing"

	"repro/internal/query"
	"repro/internal/rspn"
	"repro/internal/spn"
	"repro/internal/table"
)

// buildPair learns two bit-identical ensembles over the same generated
// data (construction is deterministic per seed).
func buildPair(t *testing.T) (*Ensemble, *Ensemble) {
	t.Helper()
	s := testSchema()
	cfg := testConfig()
	cfg.BudgetFactor = 0
	a, err := Build(context.Background(), s, genData(s, 400, true, 7), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(context.Background(), testSchema(), genData(testSchema(), 400, true, 7), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return a, b
}

// testMutations is a mixed stream over the 3-table chain: inserts on every
// table plus deletes of pre-existing rows.
func testMutations() []Mutation {
	var muts []Mutation
	for i := 0; i < 25; i++ {
		muts = append(muts,
			Mutation{Op: OpInsert, Table: "orders", Values: map[string]table.Value{
				"o_id": table.Int(500000 + i), "o_c_id": table.Int(i % 100), "o_channel": table.Int(i % 3),
			}},
			Mutation{Op: OpInsert, Table: "orderline", Values: map[string]table.Value{
				"l_id": table.Int(600000 + i), "l_o_id": table.Int(i % 50), "l_qty": table.Int(i % 7),
			}},
		)
		if i%5 == 0 {
			muts = append(muts, Mutation{Op: OpDelete, Table: "orderline", PK: float64(i)})
		}
	}
	return muts
}

// probes evaluates a set of expectations spanning filters and moments on
// every RSPN, for bitwise model-state comparison.
func probes(t *testing.T, e *Ensemble) []float64 {
	t.Helper()
	var out []float64
	for _, r := range e.RSPNs {
		out = append(out, r.FullSize, r.Model.RowCount)
		terms := []rspn.Term{
			{InnerTables: r.Tables},
			{InnerTables: r.Tables, Filters: []query.Predicate{{Column: "o_channel", Op: query.Le, Value: 1}}},
			{InnerTables: r.Tables, Fns: map[string]spn.Fn{"l_qty": spn.FnIdent}},
			// customer's columns, which TestCloneForUpdateIsolation writes.
			{InnerTables: r.Tables, Filters: []query.Predicate{{Column: "c_age", Op: query.Lt, Value: 40}}},
			{InnerTables: r.Tables, Filters: []query.Predicate{{Column: "c_region", Op: query.Eq, Value: 1}}},
			{InnerTables: r.Tables, Fns: map[string]spn.Fn{"c_age": spn.FnIdent}},
		}
		for _, term := range terms {
			req, err := r.BuildRequest(term)
			if err != nil {
				continue // RSPN does not resolve the probe's column
			}
			v, err := r.Model.Evaluate(req)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, v)
		}
	}
	return out
}

// TestApplyBatchMatchesSequential: one Apply of N mutations leaves the
// ensemble bit-identical to N per-row Insert/Delete calls — batching only
// defers the evaluator recompile.
func TestApplyBatchMatchesSequential(t *testing.T) {
	seq, bat := buildPair(t)
	muts := testMutations()
	for _, m := range muts {
		var err error
		switch m.Op {
		case OpInsert:
			err = seq.Insert(m.Table, m.Values)
		case OpDelete:
			err = seq.Delete(m.Table, m.PK)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if n, err := bat.Apply(muts); err != nil || n != len(muts) {
		t.Fatalf("Apply = %d, %v", n, err)
	}
	a, b := probes(t, seq), probes(t, bat)
	if len(a) != len(b) {
		t.Fatalf("probe count %d != %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("probe %d: sequential %v != batched %v", i, a[i], b[i])
		}
	}
}

// TestCloneForUpdateIsolation: applying a batch to a CloneForUpdate clone
// leaves the original — tables, models, statistics — bit-for-bit
// untouched, while untouched members stay shared by pointer.
func TestCloneForUpdateIsolation(t *testing.T) {
	orig, want := buildPair(t)
	muts := []Mutation{{Op: OpInsert, Table: "customer", Values: map[string]table.Value{
		"c_id": table.Int(900001), "c_age": table.Int(30), "c_region": table.Int(1),
	}}}
	touched := orig.TouchedTables(muts)
	if !touched["customer"] || touched["orderline"] {
		t.Fatalf("touched = %v", touched)
	}
	clone := orig.CloneForUpdate(muts)
	// Members not covering a touched table must be shared, covering ones
	// must be fresh copies.
	for i, r := range orig.RSPNs {
		covers := r.HasTable("customer")
		if covers && clone.RSPNs[i] == r {
			t.Fatalf("RSPN %d covers customer but is shared", i)
		}
		if !covers && clone.RSPNs[i] != r {
			t.Fatalf("RSPN %d does not cover customer but was cloned", i)
		}
	}
	if clone.Tables["orderline"] != orig.Tables["orderline"] {
		t.Fatal("untouched table was cloned")
	}
	if clone.Tables["customer"] == orig.Tables["customer"] {
		t.Fatal("touched table is shared")
	}
	if _, err := clone.Apply(muts); err != nil {
		t.Fatal(err)
	}
	// The original must still match its twin exactly.
	a, b := probes(t, orig), probes(t, want)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("probe %d: original drifted after clone mutation: %v != %v", i, a[i], b[i])
		}
	}
	if got, want := orig.Tables["customer"].NumRows()+1, clone.Tables["customer"].NumRows(); got != want {
		t.Fatalf("clone rows = %d, want %d", want, got)
	}
	// The clone must see its write through the maintained statistics.
	or, _ := orig.TableRows("customer")
	cr, _ := clone.TableRows("customer")
	if cr != or+1 {
		t.Fatalf("clone stats rows = %v, orig = %v", cr, or)
	}
}

// TestPKIndexAcrossClonesAndRebuild: the write-path PK index is shared
// across CoW clones (no rebuild per batch) and an index rebuild after
// deletes must not resurrect tombstoned rows.
func TestPKIndexAcrossClonesAndRebuild(t *testing.T) {
	e, _ := buildPair(t)
	// Prime the index, then delete a row through a clone chain.
	if _, ok := e.lookupPK("customer", 5); !ok {
		t.Fatal("pk 5 missing before delete")
	}
	c1 := e.CloneForUpdate([]Mutation{{Op: OpDelete, Table: "customer", PK: 5}})
	if c1.idx != e.idx {
		t.Fatal("write index not shared across clones")
	}
	if err := c1.Delete("customer", 5); err != nil {
		t.Fatal(err)
	}
	// The shared index reflects the delete without any rebuild.
	if _, ok := c1.lookupPK("customer", 5); ok {
		t.Fatal("deleted pk still indexed")
	}
	// Force a rebuild (as AttachTables after a reopen would): the
	// tombstoned row must stay gone even though it is physically present.
	delete(c1.idx.pk, "customer")
	if _, ok := c1.lookupPK("customer", 5); ok {
		t.Fatal("index rebuild resurrected a deleted row")
	}
	if _, ok := c1.lookupPK("customer", 6); !ok {
		t.Fatal("rebuild lost a live row")
	}
	// Deleting an already-deleted pk fails cleanly post-rebuild.
	if err := c1.Delete("customer", 5); err == nil {
		t.Fatal("double delete succeeded")
	}
}

// TestCloneForUpdateSharesFKOnlyRSPNs: a fact-table insert bumps the
// One-side table's tuple factor (that table is cloned) but never mutates
// models that do not cover the fact table — those RSPNs must be shared,
// not deep-copied, or a sustained insert stream clones the whole
// dimension model on every batch.
func TestCloneForUpdateSharesFKOnlyRSPNs(t *testing.T) {
	s := testSchema()
	cfg := testConfig()
	cfg.BudgetFactor = 0
	cfg.SingleTableOnly = true // one RSPN per table: clean target/FK split
	e, err := Build(context.Background(), s, genData(s, 300, true, 9), cfg)
	if err != nil {
		t.Fatal(err)
	}
	muts := []Mutation{{Op: OpInsert, Table: "orderline", Values: map[string]table.Value{
		"l_id": table.Int(700001), "l_o_id": table.Int(3), "l_qty": table.Int(2),
	}}}
	touched := e.TouchedTables(muts)
	if !touched["orderline"] || !touched["orders"] {
		t.Fatalf("touched = %v", touched)
	}
	clone := e.CloneForUpdate(muts)
	for i, r := range e.RSPNs {
		isTarget := r.HasTable("orderline")
		if isTarget && clone.RSPNs[i] == r {
			t.Fatalf("RSPN %d (%v) is the mutation target but shared", i, r.Tables)
		}
		if !isTarget && clone.RSPNs[i] != r {
			t.Fatalf("RSPN %d (%v) is never model-mutated but was cloned", i, r.Tables)
		}
	}
	// The FK-bumped orders table itself is cloned (its factor column is
	// written), the unrelated customer table shared.
	if clone.Tables["orders"] == e.Tables["orders"] {
		t.Fatal("FK-bumped table shared")
	}
	if clone.Tables["customer"] != e.Tables["customer"] {
		t.Fatal("unrelated table cloned")
	}
	if _, err := clone.Apply(muts); err != nil {
		t.Fatal(err)
	}
}
