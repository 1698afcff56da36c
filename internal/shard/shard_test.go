package shard_test

import (
	"context"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/ensemble"
	"repro/internal/query"
	"repro/internal/rspn"
	"repro/internal/schema"
	"repro/internal/shard"
	"repro/internal/table"
)

// fixture builds the paper's Customer/Order example with an exact
// (memorizing) three-member ensemble: the joint customer⋈orders RSPN plus
// one single-table RSPN per table.
func fixture(t *testing.T) *ensemble.Ensemble {
	t.Helper()
	s := &schema.Schema{Tables: []*schema.Table{
		{
			Name: "customer",
			Columns: []schema.Column{
				{Name: "c_id", Kind: schema.IntKind},
				{Name: "c_age", Kind: schema.IntKind},
			},
			PrimaryKey: "c_id",
		},
		{
			Name: "orders",
			Columns: []schema.Column{
				{Name: "o_id", Kind: schema.IntKind},
				{Name: "o_c_id", Kind: schema.IntKind},
				{Name: "o_amount", Kind: schema.FloatKind},
			},
			PrimaryKey: "o_id",
			ForeignKeys: []schema.ForeignKey{
				{Column: "o_c_id", RefTable: "customer", RefColumn: "c_id"},
			},
		},
	}}
	cust := table.New(s.Table("customer"))
	cust.AppendRow(table.Int(1), table.Int(20))
	cust.AppendRow(table.Int(2), table.Int(50))
	cust.AppendRow(table.Int(3), table.Int(80))
	ord := table.New(s.Table("orders"))
	ord.AppendRow(table.Int(1), table.Int(1), table.Float(10))
	ord.AppendRow(table.Int(2), table.Int(1), table.Float(60))
	ord.AppendRow(table.Int(3), table.Int(3), table.Float(30))
	ord.AppendRow(table.Int(4), table.Int(3), table.Float(90))
	tabs := map[string]*table.Table{"customer": cust, "orders": ord}
	rel := s.Relationships()[0]
	if err := table.AddTupleFactor(cust, ord, rel); err != nil {
		t.Fatal(err)
	}
	opts := rspn.DefaultLearnOptions()
	opts.Exact = true
	spec := table.JoinSpec{Tables: []string{"customer", "orders"}, Edges: []schema.Relationship{rel}}
	j, err := table.FullOuterJoin(tabs, spec)
	if err != nil {
		t.Fatal(err)
	}
	jcols := rspn.LearnColumns(s, j, spec.Tables, nil)
	joint, err := rspn.Learn(context.Background(), j, spec.Tables, spec.Edges, jcols, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	members := []*rspn.RSPN{joint}
	for _, tn := range []string{"customer", "orders"} {
		cols := rspn.LearnColumns(s, tabs[tn], []string{tn}, nil)
		r, err := rspn.Learn(context.Background(), tabs[tn], []string{tn}, nil, cols, nil, opts)
		if err != nil {
			t.Fatal(err)
		}
		members = append(members, r)
	}
	return ensemble.NewManual(s, tabs, members, ensemble.DefaultConfig())
}

func mixed(t *testing.T) []ensemble.Mutation {
	t.Helper()
	return []ensemble.Mutation{
		{Op: ensemble.OpInsert, Table: "orders", Values: map[string]table.Value{
			"o_id": table.Int(5), "o_c_id": table.Int(2), "o_amount": table.Float(70),
		}},
		{Op: ensemble.OpInsert, Table: "customer", Values: map[string]table.Value{
			"c_id": table.Int(4), "c_age": table.Int(33),
		}},
		{Op: ensemble.OpDelete, Table: "orders", PK: 1},
	}
}

// probes are the queries two ensembles must answer bit-identically to count
// as the same state.
var probes = []query.Query{
	{Aggregate: query.Count, Tables: []string{"orders"},
		Filters: []query.Predicate{{Column: "o_amount", Op: query.Ge, Value: 50}}},
	{Aggregate: query.Count, Tables: []string{"customer", "orders"},
		Filters: []query.Predicate{{Column: "c_age", Op: query.Lt, Value: 60}}},
	{Aggregate: query.Avg, AggColumn: "o_amount", Tables: []string{"orders"}},
}

// enqueue submits one group the way the host's write does: log, then
// submit under the logged position.
func enqueue(sh *shard.Shard, muts []ensemble.Mutation) error {
	lsn, err := sh.Log(muts)
	if err != nil {
		return err
	}
	return sh.Submit(muts, lsn, false)
}

func TestTryEnqueueShedsWhenFull(t *testing.T) {
	ens := fixture(t)
	orders := ens.Tables["orders"].NumRows()
	sh, err := shard.New(ens, shard.Config{QueueSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	mut := []ensemble.Mutation{{Op: ensemble.OpInsert, Table: "orders", Values: map[string]table.Value{
		"o_id": table.Int(100), "o_c_id": table.Int(1), "o_amount": table.Float(1),
	}}}
	accepted, shed := 0, 0
	for i := 0; i < 200; i++ {
		m := []ensemble.Mutation{{Op: mut[0].Op, Table: mut[0].Table, Values: map[string]table.Value{
			"o_id": table.Int(100 + i), "o_c_id": table.Int(1), "o_amount": table.Float(1),
		}}}
		// The host's non-blocking admission: check capacity first, so a
		// shed group is neither logged nor enqueued.
		if !sh.HasCapacity() {
			shed++
			continue
		}
		if err := enqueue(sh, m); err != nil {
			t.Fatal(err)
		}
		accepted++
	}
	if shed == 0 {
		t.Fatal("200 tight-loop enqueues against a 1-slot queue never shed")
	}
	if err := sh.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := sh.View().Tables["orders"].NumRows(); got != orders+accepted {
		t.Fatalf("%d order rows after %d accepted inserts into %d (shed writes must leave no trace)", got, accepted, orders)
	}
	st := sh.Stats()
	if st.Queue.Enqueued != uint64(accepted) || st.Queue.QueueDepth != 0 {
		t.Fatalf("stats disagree: %+v with %d accepted", st.Queue, accepted)
	}
}

// orderRows builds one group of n order inserts with ids from base.
func orderRows(base, n int) []ensemble.Mutation {
	muts := make([]ensemble.Mutation, n)
	for i := range muts {
		muts[i] = ensemble.Mutation{Op: ensemble.OpInsert, Table: "orders", Values: map[string]table.Value{
			"o_id": table.Int(base + i), "o_c_id": table.Int(1 + i%3), "o_amount": table.Float(float64(base + i)),
		}}
	}
	return muts
}

// TestGroupsNeverSplitAtMaxBatchOne: with the applier capped at one
// operation per batch, a multi-row group is still one indivisible unit —
// every published snapshot adds exactly one whole group, never part of one
// and never two.
func TestGroupsNeverSplitAtMaxBatchOne(t *testing.T) {
	ens := fixture(t)
	base := ens.Tables["orders"].NumRows()
	sh, err := shard.New(ens, shard.Config{MaxBatch: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	const groups, groupSize = 25, 4
	var published []int // written under the shard's apply lock, read after Flush
	sh.OnPublish(func(e *ensemble.Ensemble, batch bool) {
		if !batch {
			t.Error("an update batch published as a model swap")
		}
		published = append(published, e.Tables["orders"].NumRows()-base)
	})
	for g := 0; g < groups; g++ {
		if err := enqueue(sh, orderRows(1000+g*groupSize, groupSize)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sh.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(published) != groups {
		t.Fatalf("%d snapshots published for %d groups at MaxBatch 1", len(published), groups)
	}
	for i, rows := range published {
		if want := (i + 1) * groupSize; rows != want {
			t.Fatalf("snapshot %d published with %d new rows, want %d (a group was split or coalesced)", i, rows, want)
		}
	}
}

// TestReplayMatchesLiveApply: groups applied live through Submit and the
// same groups replayed from the WAL by a fresh shard go through one applier
// body, so they publish the same apply watermark and bit-identical
// estimates — including a group that fails to apply, and with the log
// length not a multiple of the replay batch.
func TestReplayMatchesLiveApply(t *testing.T) {
	dir := t.TempDir()
	cfg := shard.Config{WALDir: dir, MaxBatch: 2}
	live, err := shard.New(fixture(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	stream := [][]ensemble.Mutation{
		mixed(t),
		orderRows(2000, 3),
		{{Op: ensemble.OpDelete, Table: "orders", PK: 999}}, // fails to apply, still counts
		orderRows(3000, 2),
		{{Op: ensemble.OpDelete, Table: "orders", PK: 2000}},
	}
	for _, g := range stream {
		if err := enqueue(live, g); err != nil {
			t.Fatal(err)
		}
	}
	if err := live.Flush(context.Background()); err == nil {
		t.Fatal("the missing-PK delete did not surface through Flush")
	}
	liveEns := live.View()
	liveLSN := live.AppliedLSN()
	if liveLSN != uint64(len(stream)) {
		t.Fatalf("live apply watermark %d after %d logged groups", liveLSN, len(stream))
	}
	if err := live.Close(); err != nil {
		t.Fatal(err)
	}

	replayed, err := shard.New(fixture(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer replayed.Close()
	repEns := replayed.View()
	if replayed.AppliedLSN() != liveLSN {
		t.Fatalf("replay published LSN %d, live apply LSN %d", replayed.AppliedLSN(), liveLSN)
	}
	for _, tn := range []string{"customer", "orders"} {
		rep, lv := repEns.Tables[tn], liveEns.Tables[tn]
		if rep.NumRows() != lv.NumRows() || len(rep.Dead()) != len(lv.Dead()) {
			t.Fatalf("%s: replay left %d rows (%d dead), live apply %d (%d dead)", tn, rep.NumRows(), len(rep.Dead()), lv.NumRows(), len(lv.Dead()))
		}
	}
	if st := replayed.Stats(); st.WAL == nil || st.WAL.Replayed != uint64(len(stream)) {
		t.Fatalf("replay stats: %+v", st.WAL)
	}
	for _, q := range probes {
		want, err := core.New(liveEns).EstimateCardinality(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := core.New(repEns).EstimateCardinality(q)
		if err != nil {
			t.Fatal(err)
		}
		if want != got {
			t.Fatalf("replay diverges from live apply on %+v:\n  live   %+v\n  replay %+v", q, want, got)
		}
	}
}

// TestWaitedSubmitAndWatermark: a waited Submit returns its group's own
// apply error — a later Flush has nothing left to report — and the apply
// watermark only ever moves forward, even when a caller breaks the
// Log/Submit ordering contract.
func TestWaitedSubmitAndWatermark(t *testing.T) {
	ens := fixture(t)
	orders := ens.Tables["orders"].NumRows()
	sh, err := shard.New(ens, shard.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	if err := sh.Submit(orderRows(2000, 2), 5, true); err != nil {
		t.Fatal(err)
	}
	missing := []ensemble.Mutation{{Op: ensemble.OpDelete, Table: "orders", PK: 999}}
	if err := sh.Submit(missing, 3, true); err == nil {
		t.Fatal("waited Submit of a missing-PK delete returned nil")
	}
	if err := sh.Flush(context.Background()); err != nil {
		t.Fatalf("Flush after a waited failure = %v, want nothing deferred", err)
	}
	if got := sh.View().Tables["orders"].NumRows(); got != orders+2 {
		t.Fatalf("%d order rows after a 2-row insert into %d and a failed delete", got, orders)
	}
	if got := sh.AppliedLSN(); got != 5 {
		t.Fatalf("apply watermark = %d after groups at LSN 5 then 3, want 5", got)
	}
}

// sanity guard: the fixture's members must learn on the full join so
// replays and broadcasts are bit-reproducible.
func TestFixtureLearnsFullJoin(t *testing.T) {
	ens := fixture(t)
	for i, r := range ens.RSPNs {
		if r.SampleRate != 1 || math.IsNaN(r.SampleRate) {
			t.Fatalf("member %d sample rate %v, want 1", i, r.SampleRate)
		}
	}
}
