package deepdb_test

// writer_test.go pins the one writer's apply-and-publish contract: group
// atomicity at the smallest batch cap, replay through the applier's own
// body, waited-enqueue error delivery and the forward-only apply
// watermark.

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/deepdb"
	"repro/internal/ensemble"
)

// orderRows builds one group of n order inserts with ids from base.
func orderRows(base, n int) []deepdb.Row {
	rows := make([]deepdb.Row, n)
	for i := range rows {
		rows[i] = deepdb.Row{Table: "orders", Values: map[string]deepdb.Value{
			"o_id": deepdb.Int(base + i), "o_c_id": deepdb.Int(1 + i%3), "o_amount": deepdb.Float(float64(10 + i%80)),
		}}
	}
	return rows
}

// TestGroupsNeverSplitAtMaxBatchOne: with the applier capped at one
// operation per batch, a multi-row group is still one indivisible unit —
// every published snapshot adds exactly one whole group, never part of one
// (a reader never sees a row count between group boundaries) and never two
// (one generation and one batch per group).
func TestGroupsNeverSplitAtMaxBatchOne(t *testing.T) {
	ctx := context.Background()
	db := learnHost(t, deepdb.WithMaxApplyBatch(1))
	defer db.Close()
	base, gen0 := db.Data()["orders"].NumRows(), db.Generation()
	const groups, groupSize = 25, 4

	var torn atomic.Int64 // a row count seen between group boundaries, +1
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if n := db.Data()["orders"].NumRows() - base; n%groupSize != 0 {
				torn.CompareAndSwap(0, int64(n)+1)
			}
		}
	}()
	for g := 0; g < groups; g++ {
		if err := db.Update(orderRows(9_500_000+g*groupSize, groupSize)...); err != nil {
			t.Fatal(err)
		}
	}
	err := db.Flush(ctx)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if n := torn.Load(); n != 0 {
		t.Fatalf("a reader saw %d new rows: a group of %d was split across snapshots", n-1, groupSize)
	}
	if got := db.Generation() - gen0; got != groups {
		t.Fatalf("%d snapshots published for %d groups at a batch cap of one", got, groups)
	}
	if st := db.UpdateStats(); st.Batches != groups || st.Applied != groups || st.LastBatch != 1 {
		t.Fatalf("%d batches of %d operations (last %d) for %d groups at a batch cap of one", st.Batches, st.Applied, st.LastBatch, groups)
	}
	if got := db.Data()["orders"].NumRows() - base; got != groups*groupSize {
		t.Fatalf("%d new rows after %d groups of %d", got, groups, groupSize)
	}
}

// walState renders what replay must reproduce: the apply watermark, every
// table's row and tombstone count, and the workload's answers by their
// exact bits.
func walState(t *testing.T, db *deepdb.DB) []string {
	t.Helper()
	st := db.UpdateStats()
	if st.WAL == nil {
		t.Fatal("no WAL stats on a DB opened with a WAL")
	}
	out := []string{fmt.Sprintf("applied lsn %d", st.WAL.AppliedLSN)}
	for _, tn := range []string{"customer", "orders"} {
		tab := db.Data()[tn]
		out = append(out, fmt.Sprintf("%s: %d rows, %d dead", tn, tab.NumRows(), len(tab.Dead())))
	}
	return append(out, workloadBits(t, db, equivalenceWorkload)...)
}

// TestReplayMatchesLiveApply: groups applied live and the same groups
// replayed from the WAL by a fresh DB go through one applier body, so they
// reach the same apply watermark and bit-identical answers — with a batch
// cap of 2, a log length (5) that is not a multiple of it, and a last group
// that fails to apply yet still advances the watermark without publishing
// a new generation.
func TestReplayMatchesLiveApply(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	live := learnWAL(t, dir, 400, 53, deepdb.WithMaxApplyBatch(2))
	mixed := []deepdb.Row{
		{Table: "orders", Values: map[string]deepdb.Value{
			"o_id": deepdb.Int(9_600_000), "o_c_id": deepdb.Int(2), "o_amount": deepdb.Float(70)}},
		{Table: "customer", Values: map[string]deepdb.Value{
			"c_id": deepdb.Int(9_600_000), "c_age": deepdb.Int(33), "c_region": deepdb.Int(0)}},
	}
	for _, g := range [][]deepdb.Row{mixed, orderRows(9_610_000, 3), orderRows(9_620_000, 2)} {
		if err := live.Update(g...); err != nil {
			t.Fatal(err)
		}
	}
	if err := live.Delete("orders", 9_610_000); err != nil {
		t.Fatal(err)
	}
	if err := live.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	gen := live.Generation()
	if err := live.Delete("orders", 99_999_999); err != nil {
		t.Fatal(err)
	}
	if err := live.Flush(ctx); err == nil {
		t.Fatal("the missing-PK delete did not surface through Flush")
	}
	if got := live.Generation(); got != gen {
		t.Fatalf("a batch in which nothing applied moved the generation %d -> %d", gen, got)
	}
	const logged = 5
	want := walState(t, live)
	if want[0] != fmt.Sprintf("applied lsn %d", logged) {
		t.Fatalf("live %s after %d logged groups", want[0], logged)
	}
	if err := live.Close(); err != nil {
		t.Fatal(err)
	}

	replayed := learnWAL(t, dir, 400, 53, deepdb.WithMaxApplyBatch(2))
	defer replayed.Close()
	if st := replayed.UpdateStats(); st.WAL.Replayed != logged {
		t.Fatalf("replayed %d groups, want %d", st.WAL.Replayed, logged)
	}
	if got := walState(t, replayed); !reflect.DeepEqual(got, want) {
		for i := range want {
			if i < len(got) && got[i] != want[i] {
				t.Fatalf("replay diverges from live apply at %d:\n  live   %s\n  replay %s", i, want[i], got[i])
			}
		}
		t.Fatalf("replay state has %d entries, live %d", len(got), len(want))
	}
}

// TestWaitedSubmitAndWatermark: a waited enqueue returns its group's own
// apply error — a later Flush has nothing left to report — and the apply
// watermark only ever moves forward, even when groups arrive out of LSN
// order (5, then 3).
func TestWaitedSubmitAndWatermark(t *testing.T) {
	ctx := context.Background()
	db := learnHost(t)
	defer db.Close()
	orders := db.Data()["orders"].NumRows()
	inserts := make([]ensemble.Mutation, 2)
	for i, r := range orderRows(9_700_000, len(inserts)) {
		inserts[i] = ensemble.Mutation{Op: ensemble.OpInsert, Table: r.Table, Values: r.Values}
	}
	if err := db.EnqueueWaitedAt(inserts, 5); err != nil {
		t.Fatal(err)
	}
	missing := []ensemble.Mutation{{Op: ensemble.OpDelete, Table: "orders", PK: 99_999_999}}
	if err := db.EnqueueWaitedAt(missing, 3); err == nil {
		t.Fatal("waited enqueue of a missing-PK delete returned nil")
	}
	if err := db.Flush(ctx); err != nil {
		t.Fatalf("Flush after a waited failure = %v, want nothing deferred", err)
	}
	if got := db.Data()["orders"].NumRows(); got != orders+2 {
		t.Fatalf("%d order rows after a 2-row insert into %d and a failed delete", got, orders)
	}
	if got := db.Pin().LSN(); got != 5 {
		t.Fatalf("apply watermark = %d after groups at LSN 5 then 3, want 5", got)
	}
}
