package ensemble

import (
	"context"
	"testing"

	"repro/internal/drift"
	"repro/internal/table"
)

// singleTableEnsemble builds a one-RSPN-per-table ensemble (deterministic
// member order is irrelevant; members are located by table set).
func singleTableEnsemble(t *testing.T, nCust int, seed int64) *Ensemble {
	t.Helper()
	s := testSchema()
	cfg := testConfig()
	cfg.BudgetFactor = 0
	cfg.SingleTableOnly = true
	e, err := Build(context.Background(), s, genData(s, nCust, true, seed), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// memberFor finds the index of the member whose table set is exactly the
// given single table.
func memberFor(t *testing.T, e *Ensemble, name string) int {
	t.Helper()
	for i, r := range e.RSPNs {
		if len(r.Tables) == 1 && r.Tables[0] == name {
			return i
		}
	}
	t.Fatalf("no single-table member for %s", name)
	return -1
}

// TestRelearnReproducesMember: with no mutations since build, a re-learn
// regenerates each member with the same shape (learning is deterministic
// given the table state and seed).
func TestRelearnReproducesMember(t *testing.T) {
	e, _ := buildPair(t)
	for i, r := range e.RSPNs {
		nr, err := e.RelearnMember(context.Background(), i, nil)
		if err != nil {
			t.Fatalf("member %d (%v): %v", i, r.Tables, err)
		}
		if nr.FullSize != r.FullSize {
			t.Fatalf("member %d: relearned FullSize %v != %v", i, nr.FullSize, r.FullSize)
		}
		if got, want := len(nr.Model.Columns), len(r.Model.Columns); got != want {
			t.Fatalf("member %d: relearned columns %d != %d", i, got, want)
		}
		if nr.Model.RowCount != r.Model.RowCount {
			t.Fatalf("member %d: relearned RowCount %v != %v", i, nr.Model.RowCount, r.Model.RowCount)
		}
	}
}

// TestRelearnMemberCompactsTombstones: deleted rows are physically present
// in the base tables but must not reappear in a re-learned member.
func TestRelearnMemberCompactsTombstones(t *testing.T) {
	e := singleTableEnsemble(t, 300, 11)
	e.EnableDrift()
	for i := 0; i < 30; i++ {
		if err := e.Delete("customer", float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	ci := memberFor(t, e, "customer")
	dead := e.DeadRows()
	if len(dead["customer"]) != 30 {
		t.Fatalf("DeadRows customer = %d, want 30", len(dead["customer"]))
	}
	nr, err := e.RelearnMember(context.Background(), ci, dead)
	if err != nil {
		t.Fatal(err)
	}
	if nr.FullSize != 270 {
		t.Fatalf("relearned FullSize = %v, want 270 (tombstones resurrected?)", nr.FullSize)
	}
	// Without the dead-row set the deleted rows would come back.
	raw, err := e.RelearnMember(context.Background(), ci, nil)
	if err != nil {
		t.Fatal(err)
	}
	if raw.FullSize != 300 {
		t.Fatalf("uncompacted FullSize = %v, want 300", raw.FullSize)
	}
}

// TestSwapMemberSharesRest: SwapMember replaces exactly one member; the
// others, the base tables, statistics and drift set stay shared.
func TestSwapMemberSharesRest(t *testing.T) {
	e := singleTableEnsemble(t, 200, 13)
	e.EnableDrift()
	ci := memberFor(t, e, "customer")
	nr, err := e.RelearnMember(context.Background(), ci, nil)
	if err != nil {
		t.Fatal(err)
	}
	sw := e.SwapMember(ci, nr)
	if sw.RSPNs[ci] != nr {
		t.Fatal("swapped member not installed")
	}
	for i, r := range e.RSPNs {
		if i != ci && sw.RSPNs[i] != r {
			t.Fatalf("member %d was not shared", i)
		}
	}
	if e.RSPNs[ci] == nr {
		t.Fatal("SwapMember mutated the receiver")
	}
	if sw.Tables["orders"] != e.Tables["orders"] || sw.Drift != e.Drift || sw.idx != e.idx {
		t.Fatal("tables/drift/index not shared across swap")
	}
}

// TestDriftHooksAndTrip: applied mutations feed the drift set through the
// insert/delete hooks, the trigger picks the mutated member, and a reset
// re-baselines it.
func TestDriftHooksAndTrip(t *testing.T) {
	e := singleTableEnsemble(t, 100, 17)
	e.EnableDrift()
	th := drift.Thresholds{MutatedFraction: 0.1}
	if _, _, ok := e.Drift.Trip(th); ok {
		t.Fatal("Trip fired on a fresh ensemble")
	}
	// Mutations through a CoW clone hit the shared drift set.
	muts := make([]Mutation, 0, 20)
	for i := 0; i < 20; i++ {
		muts = append(muts, Mutation{Op: OpInsert, Table: "customer", Values: map[string]table.Value{
			"c_id": table.Int(800000 + i), "c_age": table.Int(95), "c_region": table.Int(1),
		}})
	}
	clone := e.CloneForUpdate(muts)
	if clone.Drift != e.Drift {
		t.Fatal("drift set not shared across CloneForUpdate")
	}
	if _, err := clone.Apply(muts); err != nil {
		t.Fatal(err)
	}
	ci := memberFor(t, e, "customer")
	i, sc, ok := e.Drift.Trip(th)
	if !ok || i != ci {
		t.Fatalf("Trip = (%d, %v, %v), want member %d", i, sc, ok, ci)
	}
	if sc.Mutated != 20 || sc.MutatedFraction < 0.19 {
		t.Fatalf("score = %+v", sc)
	}
	// Deletes count too, and the delete hook reads values pre-tombstone.
	if err := clone.Delete("customer", 800000); err != nil {
		t.Fatal(err)
	}
	if got := e.Drift.Scores()[ci].Mutated; got != 21 {
		t.Fatalf("Mutated = %d, want 21", got)
	}
	e.Drift.ResetMember(ci)
	if _, _, ok := e.Drift.Trip(th); ok {
		t.Fatal("Trip fired after reset")
	}
	if e.Drift.Relearns() != 1 {
		t.Fatalf("Relearns = %d, want 1", e.Drift.Relearns())
	}
}
