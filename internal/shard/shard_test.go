package shard_test

import (
	"context"
	"math"
	"reflect"
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
// one single-table RSPN per table. All three members touch the same table
// group, which exercises Partition's fall-back to singleton units.
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

func broadcast(t *testing.T) []ensemble.Mutation {
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

// shardsOf partitions the fixture into n in-process shards.
func shardsOf(t *testing.T, ens *ensemble.Ensemble, n int) []*shard.Shard {
	t.Helper()
	members := shard.Partition(ens, n)
	shards := make([]*shard.Shard, len(members))
	for i, m := range members {
		sh, err := shard.New(i, m, ens, shard.Config{})
		if err != nil {
			t.Fatal(err)
		}
		shards[i] = sh
		t.Cleanup(func() { sh.Close() })
	}
	return shards
}

// enqueue submits one group the way the host's broadcast does: log, then
// submit under the logged position.
func enqueue(sh *shard.Shard, muts []ensemble.Mutation) error {
	lsn, err := sh.Log(muts)
	if err != nil {
		return err
	}
	return sh.Submit(muts, lsn, false)
}

// aligned reports the shards' common ops token, if they have one.
func aligned(shards []*shard.Shard, total int) (uint64, bool) {
	_, ops, ok := shard.Compose(shards, total)
	return ops, ok
}

func TestPartitionDeterministicAndComplete(t *testing.T) {
	ens := fixture(t)
	total := len(ens.RSPNs)
	for _, n := range []int{1, 2, 3, 7} {
		a := shard.Partition(ens, n)
		b := shard.Partition(ens, n)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("n=%d: Partition not deterministic: %v vs %v", n, a, b)
		}
		if len(a) > total {
			t.Fatalf("n=%d: %d shards for %d members", n, len(a), total)
		}
		seen := map[int]bool{}
		for _, m := range a {
			if len(m) == 0 {
				t.Fatalf("n=%d: empty shard in %v", n, a)
			}
			for j, g := range m {
				if seen[g] {
					t.Fatalf("n=%d: member %d assigned twice in %v", n, g, a)
				}
				seen[g] = true
				if j > 0 && m[j-1] >= g {
					t.Fatalf("n=%d: members not sorted ascending: %v", n, m)
				}
			}
		}
		if len(seen) != total {
			t.Fatalf("n=%d: %d of %d members assigned: %v", n, len(seen), total, a)
		}
	}
	if got := shard.Partition(ens, 0); len(got) != 1 || len(got[0]) != total {
		t.Fatalf("n=0 should clamp to one shard owning everything, got %v", got)
	}
}

func TestBroadcastApplyKeepsShardsAligned(t *testing.T) {
	ens := fixture(t)
	shards := shardsOf(t, ens, 2)
	if len(shards) < 2 {
		t.Fatalf("fixture partitions into %d shards, want >= 2", len(shards))
	}
	muts := broadcast(t)
	for _, sh := range shards {
		if err := enqueue(sh, muts); err != nil {
			t.Fatal(err)
		}
		if err := sh.Flush(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	ops, ok := aligned(shards, len(ens.RSPNs))
	if !ok || ops != uint64(len(muts)) {
		t.Fatalf("Aligned = (%d, %v), want (%d, true)", ops, ok, len(muts))
	}
	composed, cops, ok := shard.Compose(shards, len(ens.RSPNs))
	if !ok || cops != ops {
		t.Fatalf("Compose = (ops %d, ok %v)", cops, ok)
	}

	// The composed view must answer queries bit-identically to a
	// single-process ensemble that applied the same broadcast.
	ref := fixture(t)
	next := ref.CloneForUpdate(muts)
	if _, err := next.Apply(muts); err != nil {
		t.Fatal(err)
	}
	for _, q := range probes {
		want, err := core.New(next).EstimateCardinality(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := core.New(composed).EstimateCardinality(q)
		if err != nil {
			t.Fatal(err)
		}
		if want != got {
			t.Fatalf("composed view diverges on %+v:\n  want %+v\n  got  %+v", q, want, got)
		}
	}
}

func TestComposeRefusesSkewAndHoles(t *testing.T) {
	ens := fixture(t)
	shards := shardsOf(t, ens, 2)
	muts := broadcast(t)
	// Skew: only shard 0 receives the broadcast.
	if err := enqueue(shards[0], muts); err != nil {
		t.Fatal(err)
	}
	if err := shards[0].Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, ok := aligned(shards, len(ens.RSPNs)); ok {
		t.Fatal("Aligned accepted skewed shards")
	}
	if _, _, ok := shard.Compose(shards, len(ens.RSPNs)); ok {
		t.Fatal("Compose accepted skewed shards")
	}
	// Heal the skew, then check holes.
	for _, sh := range shards[1:] {
		if err := enqueue(sh, muts); err != nil {
			t.Fatal(err)
		}
		if err := sh.Flush(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, ok := shard.Compose(shards, len(ens.RSPNs)); !ok {
		t.Fatal("Compose rejected aligned shards")
	}
	if _, _, ok := shard.Compose(shards[:1], len(ens.RSPNs)); ok {
		t.Fatal("Compose accepted a view with unowned member slots")
	}
}

// TestNoOpBatchStillAdvancesOps: a batch whose every mutation is a no-op
// (deleting a missing PK) must still advance the ops token — the router
// counts processed mutations, not successful ones, so a deterministic
// failure on all shards keeps them aligned.
func TestNoOpBatchStillAdvancesOps(t *testing.T) {
	ens := fixture(t)
	shards := shardsOf(t, ens, 2)
	noop := []ensemble.Mutation{{Op: ensemble.OpDelete, Table: "orders", PK: 999}}
	for _, sh := range shards {
		if err := enqueue(sh, noop); err != nil {
			t.Fatal(err)
		}
		// Flush reports the deterministic apply failure — that is the
		// point: the mutation fails identically on every shard, and ops
		// must advance anyway.
		if err := sh.Flush(context.Background()); err == nil {
			t.Fatal("expected the no-op delete to surface an apply error")
		}
	}
	ops, ok := aligned(shards, len(ens.RSPNs))
	if !ok || ops != 1 {
		t.Fatalf("Aligned = (%d, %v) after a no-op batch, want (1, true)", ops, ok)
	}
}

func TestTryEnqueueShedsWhenFull(t *testing.T) {
	ens := fixture(t)
	members := shard.Partition(ens, 1)
	sh, err := shard.New(0, members[0], ens, shard.Config{QueueSize: 1})
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
	_, _, ops := sh.View()
	if ops != uint64(accepted) {
		t.Fatalf("ops = %d after %d accepted mutations (shed writes must leave no trace)", ops, accepted)
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
// every published snapshot advances ops by exactly one whole group, never
// by part of one and never by two.
func TestGroupsNeverSplitAtMaxBatchOne(t *testing.T) {
	ens := fixture(t)
	sh, err := shard.New(0, nil, ens, shard.Config{MaxBatch: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	const groups, groupSize = 25, 4
	var published []uint64 // written under the shard's apply lock, read after Flush
	sh.OnPublish(func(bool) {
		_, _, ops := sh.View()
		published = append(published, ops)
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
	for i, ops := range published {
		if want := uint64((i + 1) * groupSize); ops != want {
			t.Fatalf("snapshot %d published at ops %d, want %d (a group was split or coalesced)", i, ops, want)
		}
	}
}

// TestReplayMatchesLiveApply: groups applied live through Submit and the
// same groups replayed from the WAL by a fresh shard go through one applier
// body, so they publish the same ops token, the same apply watermark and
// bit-identical estimates — including a group that fails to apply, and
// with the log length not a multiple of the replay batch.
func TestReplayMatchesLiveApply(t *testing.T) {
	dir := t.TempDir()
	cfg := shard.Config{WALDir: dir, MaxBatch: 2}
	live, err := shard.New(0, nil, fixture(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	stream := [][]ensemble.Mutation{
		broadcast(t),
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
	liveEns, _, liveOps := live.View()
	liveLSN := live.AppliedLSN()
	if liveLSN != uint64(len(stream)) {
		t.Fatalf("live apply watermark %d after %d logged groups", liveLSN, len(stream))
	}
	if err := live.Close(); err != nil {
		t.Fatal(err)
	}

	replayed, err := shard.New(0, nil, fixture(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer replayed.Close()
	repEns, _, repOps := replayed.View()
	if repOps != liveOps || replayed.AppliedLSN() != liveLSN {
		t.Fatalf("replay published ops %d / LSN %d, live apply ops %d / LSN %d", repOps, replayed.AppliedLSN(), liveOps, liveLSN)
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
	sh, err := shard.New(0, nil, fixture(t), shard.Config{})
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
	if _, _, ops := sh.View(); ops != 3 {
		t.Fatalf("ops = %d after a 2-row and a 1-row group, want 3", ops)
	}
	if got := sh.AppliedLSN(); got != 5 {
		t.Fatalf("apply watermark = %d after groups at LSN 5 then 3, want 5", got)
	}
}

// TestPublishPreservesOps: hot reload swaps the model through Publish,
// which must keep the ops token so the router's recompose trigger (ops
// CHANGE) cannot observe a half-reloaded shard set.
func TestPublishPreservesOps(t *testing.T) {
	ens := fixture(t)
	shards := shardsOf(t, ens, 2)
	muts := broadcast(t)
	for _, sh := range shards {
		if err := enqueue(sh, muts); err != nil {
			t.Fatal(err)
		}
		if err := sh.Flush(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	before, ok := aligned(shards, len(ens.RSPNs))
	if !ok {
		t.Fatal("shards misaligned before reload")
	}
	fresh := fixture(t)
	for _, sh := range shards {
		sub, err := fresh.Subset(sh.Members())
		if err != nil {
			t.Fatal(err)
		}
		_, genBefore, _ := sh.View()
		sh.Publish(sub)
		_, genAfter, opsAfter := sh.View()
		if genAfter <= genBefore {
			t.Fatalf("Publish did not bump generation: %d -> %d", genBefore, genAfter)
		}
		if opsAfter != before {
			t.Fatalf("Publish moved the ops token: %d -> %d", before, opsAfter)
		}
	}
	if ops, ok := aligned(shards, len(ens.RSPNs)); !ok || ops != before {
		t.Fatalf("shards misaligned after reload: (%d, %v)", ops, ok)
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
