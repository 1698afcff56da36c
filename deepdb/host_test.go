package deepdb_test

// host_test.go drives the one *DB through one script at shard counts 1, 2
// and 3 (the same constructors + WithShards(n)) and holds every observable —
// answers, generation deltas, error delivery, backpressure and the
// WAL-failure policy — to be the same at each count, with must-fail twins
// for the two things only a partitioned host can get wrong (a torn
// per-shard WAL set, a reload that does not fit the partition).

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/deepdb"
	"repro/internal/query"
)

// fixture3 extends the customer/orders fixture with a lineitem table
// hanging off orders, so the single-table ensemble has three members and
// WithShards(3) really yields three shards.
func fixture3(rows int, seed int64) (*deepdb.Schema, deepdb.Dataset) {
	s, data := fixture(rows, seed)
	s.Tables = append(s.Tables, &deepdb.TableDef{
		Name:       "lineitem",
		PrimaryKey: "l_id",
		Columns: []deepdb.ColumnDef{
			{Name: "l_id", Kind: deepdb.IntKind},
			{Name: "l_o_id", Kind: deepdb.IntKind},
			{Name: "l_qty", Kind: deepdb.IntKind},
		},
		ForeignKeys: []deepdb.ForeignKey{{Column: "l_o_id", RefTable: "orders", RefColumn: "o_id"}},
	})
	li := deepdb.NewTable(s.Table("lineitem"))
	amount := data["orders"].Column("o_amount")
	lid := 0
	for o := 0; o < data["orders"].NumRows(); o++ {
		for k := 0; k <= o%2; k++ {
			li.AppendRow(deepdb.Int(lid), deepdb.Int(o), deepdb.Int(int(amount.Data[o]/10)+k))
			lid++
		}
	}
	data["lineitem"] = li
	return s, data
}

// hostRows/hostSeed/hostOpts fix the data and the ensemble of every host
// in this file: three single-table members learned on the full tables, so
// applying mutations draws nothing from an rng and answers are exactly
// reproducible across process layouts.
const (
	hostRows = 500
	hostSeed = 71
)

func hostOpts(n int, extra ...deepdb.Option) []deepdb.Option {
	return append([]deepdb.Option{
		deepdb.WithMaxSamples(20000), deepdb.WithSingleTableOnly(), deepdb.WithShards(n),
	}, extra...)
}

// learnHost learns the fixture behind a DB over n shards.
func learnHost(t *testing.T, n int, extra ...deepdb.Option) *deepdb.DB {
	t.Helper()
	s, data := fixture3(hostRows, hostSeed)
	db, err := deepdb.LearnDataset(context.Background(), s, data, hostOpts(n, extra...)...)
	if err != nil {
		t.Fatal(err)
	}
	if db.Shards() != n {
		t.Fatalf("fixture partitions into %d shards, want %d", db.Shards(), n)
	}
	return db
}

// openHost opens a saved model over fresh fixture tables.
func openHost(n int, model string, extra ...deepdb.Option) (*deepdb.DB, error) {
	_, data := fixture3(hostRows, hostSeed)
	opts := hostOpts(n, append([]deepdb.Option{deepdb.WithDataset(data)}, extra...)...)
	return deepdb.Open(context.Background(), model, opts...)
}

var hostSQL = []string{
	"SELECT COUNT(*) FROM orders JOIN lineitem WHERE l_qty >= 5",
	"SELECT COUNT(*) FROM customer JOIN orders JOIN lineitem WHERE c_region = 'EU' AND l_qty < 6",
	"SELECT AVG(l_qty) FROM lineitem WHERE l_qty >= 2",
	"SELECT SUM(o_amount) FROM customer JOIN orders GROUP BY c_region",
	"SELECT COUNT(*) FROM customer WHERE (c_age < 25 OR c_age >= 60)",
	"SELECT COUNT(*) FROM customer WHERE c_region IN ('EU', 'ASIA')",
}

// answers runs every query class through every read entry point and
// renders each result by its exact bits.
func answers(t *testing.T, db *deepdb.DB) []string {
	t.Helper()
	ctx := context.Background()
	out := workloadBits(t, db, equivalenceWorkload)
	for _, sql := range hostSQL {
		res, err := db.Query(ctx, sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		rows, err := db.QueryRows(ctx, sql)
		if err != nil {
			t.Fatalf("%s (rows): %v", sql, err)
		}
		var streamed deepdb.Result
		for rows.Next() {
			streamed.Groups = append(streamed.Groups, rows.Row())
		}
		if err := rows.Err(); err != nil {
			t.Fatalf("%s (rows): %v", sql, err)
		}
		if bitsOfResult(res) != bitsOfResult(streamed) {
			t.Fatalf("%s: streamed rows differ from the materialized result", sql)
		}
		out = append(out, bitsOfResult(res))
	}
	stmt, err := db.Prepare("SELECT COUNT(*) FROM orders JOIN lineitem WHERE l_qty >= ? AND o_amount < ?")
	if err != nil {
		t.Fatal(err)
	}
	res, err := stmt.Exec(ctx, 4, 70)
	if err != nil {
		t.Fatal(err)
	}
	est, err := stmt.Estimate(ctx, 4, 70)
	if err != nil {
		t.Fatal(err)
	}
	return append(out, bitsOfResult(res), bitsOfEstimate(est))
}

// hostTrace is everything one run of the script observed.
type hostTrace struct {
	GenDeltas                         []uint64
	Mutated, Live, Reopened, Reloaded []string
}

// runHostScript is the script: learn → mixed Insert/Delete/Update incl. a
// failing row and an all-failed batch → every query class → Save → more
// writes → Close → reopen over the WAL → Reload.
func runHostScript(t *testing.T, n int, sync bool) hostTrace {
	t.Helper()
	ctx := context.Background()
	dir := t.TempDir()
	walDir, model := filepath.Join(dir, "wal"), filepath.Join(dir, "model.deepdb")
	opts := []deepdb.Option{deepdb.WithWAL(walDir), deepdb.WithResultCacheSize(64)}
	if sync {
		opts = append(opts, deepdb.WithSyncUpdates())
	}
	db := learnHost(t, n, opts...)
	var tr hostTrace

	// step runs one write and — on the asynchronous path — the Flush that
	// publishes it and delivers its apply error; under WithSyncUpdates the
	// write itself does both, at every shard count.
	step := func(name string, wantErr bool, wantGen uint64, do func() error) {
		t.Helper()
		before := db.Generation()
		err := do()
		if !sync {
			if err != nil {
				t.Fatalf("%s: enqueue failed: %v", name, err)
			}
			err = db.Flush(ctx)
		}
		if (err != nil) != wantErr {
			t.Fatalf("%s: err = %v, want error: %v", name, err, wantErr)
		}
		delta := db.Generation() - before
		if delta != wantGen {
			t.Fatalf("%s: generation moved by %d, want %d", name, delta, wantGen)
		}
		tr.GenDeltas = append(tr.GenDeltas, delta)
	}
	order := func(id, cust int, amount float64) map[string]deepdb.Value {
		return map[string]deepdb.Value{"o_id": deepdb.Int(id), "o_c_id": deepdb.Int(cust), "o_amount": deepdb.Float(amount)}
	}
	step("insert", false, 1, func() error { return db.Insert("orders", order(9_000_000, 7, 55)) })
	step("delete", false, 1, func() error { return db.Delete("orders", 3) })
	step("update with a failing row", true, 1, func() error {
		return db.Update(
			deepdb.Row{Table: "lineitem", Values: map[string]deepdb.Value{
				"l_id": deepdb.Int(9_100_000), "l_o_id": deepdb.Int(5), "l_qty": deepdb.Int(9)}},
			deepdb.Row{Table: "nosuch", Values: map[string]deepdb.Value{"x": deepdb.Int(1)}},
			deepdb.Row{Table: "customer", Values: map[string]deepdb.Value{
				"c_id": deepdb.Int(9_200_000), "c_age": deepdb.Int(33), "c_region": deepdb.Int(0)}},
		)
	})
	// A batch in which nothing applies leaves the served ensemble — and
	// with it the generation and both caches — in place.
	const cached = "SELECT COUNT(*) FROM customer JOIN orders WHERE o_amount >= 50"
	if _, err := db.Query(ctx, cached); err != nil {
		t.Fatal(err)
	}
	hits := db.UpdateStats().ResultCacheHits
	step("all-failed batch", true, 0, func() error { return db.Delete("orders", 8_888_888) })
	if _, err := db.Query(ctx, cached); err != nil {
		t.Fatal(err)
	}
	if got := db.UpdateStats().ResultCacheHits; got != hits+1 {
		t.Fatalf("an all-failed batch flushed the result cache: hits %d -> %d", hits, got)
	}
	tr.Mutated = answers(t, db)

	// Health aggregates over the shards: every broadcast is logged once
	// per shard, and the last-batch readings are reported, not zeroed.
	st := db.UpdateStats()
	if st.WAL == nil || st.WAL.Dir != walDir || st.WAL.Appended != 4*uint64(n) || st.WAL.AppliedLSN != 4 || st.WAL.LastLSN != 4 {
		t.Fatalf("aggregated WAL stats after 4 groups on %d shards: %+v", n, st.WAL)
	}
	if st.SyncUpdates != sync || (!sync && (st.LastBatch < 1 || st.ApplyLag <= 0 || st.Applied != 4*uint64(n))) {
		t.Fatalf("aggregated pipeline stats on %d shards: %+v", n, st)
	}

	step("save", false, 0, func() error { return db.Save(model) })
	step("insert after save", false, 1, func() error { return db.Insert("orders", order(9_000_001, 8, 66)) })
	step("delete after save", false, 1, func() error { return db.Delete("orders", 4) })
	tr.Live = answers(t, db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("orders", order(9_000_002, 9, 77)); err == nil {
		t.Fatal("insert after Close succeeded")
	}

	// Reopen: the save covers the first four groups, every shard replays
	// the two after it.
	re, err := openHost(n, model, deepdb.WithWAL(walDir))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if st := re.UpdateStats(); st.WAL == nil || st.WAL.Replayed != 2*uint64(n) || st.WAL.CheckpointLSN != 4 {
		t.Fatalf("reopen on %d shards replayed %+v, want 2 groups per shard past checkpoint 4", n, st.WAL)
	}
	tr.Reopened = answers(t, re)
	before := re.Generation()
	if err := re.Reload(model); err != nil {
		t.Fatal(err)
	}
	tr.GenDeltas = append(tr.GenDeltas, re.Generation()-before)
	tr.Reloaded = answers(t, re)
	return tr
}

// TestHostScriptAcrossShardCounts: the same script, at every shard count
// and on both write paths, ends in bit-identical answers after every
// phase with equal generation deltas.
func TestHostScriptAcrossShardCounts(t *testing.T) {
	for _, sync := range []bool{false, true} {
		t.Run(fmt.Sprintf("sync=%v", sync), func(t *testing.T) {
			want := runHostScript(t, 1, sync)
			if reflect.DeepEqual(want.Mutated, want.Live) {
				t.Fatal("fixture broken: the post-save writes changed no answer")
			}
			for _, n := range []int{2, 3} {
				got := runHostScript(t, n, sync)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%d shards diverge from one shard\n  got:  %+v\n  want: %+v", n, got, want)
				}
			}
		})
	}
}

// TestHostBackpressureAcrossShardCounts: WithNonBlockingUpdates sheds with
// ErrQueueFull at every shard count, a shed group leaves no trace on any
// shard, and without the option a full queue blocks instead — nothing is
// ever shed.
func TestHostBackpressureAcrossShardCounts(t *testing.T) {
	ctx := context.Background()
	for _, n := range []int{1, 2, 3} {
		for _, nonBlocking := range []bool{true, false} {
			t.Run(fmt.Sprintf("shards=%d/nonblocking=%v", n, nonBlocking), func(t *testing.T) {
				opts := []deepdb.Option{deepdb.WithUpdateQueueSize(1)}
				if nonBlocking {
					opts = append(opts, deepdb.WithNonBlockingUpdates())
				}
				db := learnHost(t, n, opts...)
				defer db.Close()
				initial, err := db.Query(ctx, "SELECT COUNT(*) FROM orders")
				if err != nil {
					t.Fatal(err)
				}
				accepted, shed := 0, 0
				for i := 0; i < 300; i++ {
					err := db.Insert("orders", map[string]deepdb.Value{
						"o_id": deepdb.Int(9_300_000 + i), "o_c_id": deepdb.Int(i % 100), "o_amount": deepdb.Float(5),
					})
					switch {
					case err == nil:
						accepted++
					case errors.Is(err, deepdb.ErrQueueFull):
						shed++
					default:
						t.Fatal(err)
					}
				}
				if nonBlocking == (shed == 0) {
					t.Fatalf("300 tight-loop inserts against a 1-slot queue: %d shed with nonblocking=%v", shed, nonBlocking)
				}
				if err := db.Flush(ctx); err != nil {
					t.Fatal(err)
				}
				final, err := db.Query(ctx, "SELECT COUNT(*) FROM orders")
				if err != nil {
					t.Fatal(err)
				}
				if got := final.Scalar() - initial.Scalar(); math.Abs(got-float64(accepted)) > 1e-6 {
					t.Fatalf("count moved by %v, but %d writes were accepted", got, accepted)
				}
				if st := db.UpdateStats(); st.Enqueued != uint64(accepted*n) {
					t.Fatalf("enqueued %d operations for %d accepted broadcasts to %d shards", st.Enqueued, accepted, n)
				}
			})
		}
	}
}

// TestHostWALFailStopAcrossShardCounts: the first failed append latches at
// every shard count — that write and every later one is refused with
// ErrDurabilityLost, no shard applies anything — and reads keep serving.
func TestHostWALFailStopAcrossShardCounts(t *testing.T) {
	ctx := context.Background()
	for _, n := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			db := learnHost(t, n, deepdb.WithWAL(t.TempDir()))
			defer db.Close()
			before, err := db.Query(ctx, "SELECT COUNT(*) FROM orders")
			if err != nil {
				t.Fatal(err)
			}
			enableChaos(t, "point=wal.append.write;kind=error;errno=EIO;count=1")
			for i := 0; i < 3; i++ {
				err := db.Insert("orders", map[string]deepdb.Value{
					"o_id": deepdb.Int(9_400_000 + i), "o_c_id": deepdb.Int(i), "o_amount": deepdb.Float(42),
				})
				if !errors.Is(err, deepdb.ErrDurabilityLost) {
					t.Fatalf("insert %d after the injected EIO: err = %v, want ErrDurabilityLost (latched)", i, err)
				}
			}
			if err := db.Flush(ctx); err != nil {
				t.Fatal(err)
			}
			if st := db.UpdateStats(); !st.DurabilityLost || st.LastWALError == "" {
				t.Fatalf("stats hide the latched failure: %+v", st)
			}
			after, err := db.Query(ctx, "SELECT COUNT(*) FROM orders")
			if err != nil {
				t.Fatalf("query with durability lost: %v", err)
			}
			if got := after.Scalar() - before.Scalar(); math.Abs(got) > 1e-6 {
				t.Fatalf("count moved by %v although every write was refused", got)
			}
		})
	}
}

// TestTornShardWALSetRefusesToOpen: per-shard logs that replay to
// different positions (a crash between the per-shard appends of one group)
// would compose a torn state, so the open is refused; the intact set opens.
func TestTornShardWALSetRefusesToOpen(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	walDir, model := filepath.Join(dir, "wal"), filepath.Join(dir, "model.deepdb")
	db := learnHost(t, 3, deepdb.WithWAL(walDir))
	if err := db.Save(model); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := db.Insert("orders", map[string]deepdb.Value{
			"o_id": deepdb.Int(9_500_000 + i), "o_c_id": deepdb.Int(i), "o_amount": deepdb.Float(20),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	intact, err := openHost(3, model, deepdb.WithWAL(walDir))
	if err != nil {
		t.Fatalf("intact per-shard WAL set refused: %v", err)
	}
	if err := intact.Close(); err != nil {
		t.Fatal(err)
	}
	// Lose one shard's log: it now replays to position 0, the others to 5.
	if err := os.RemoveAll(filepath.Join(walDir, "shard-2")); err != nil {
		t.Fatal(err)
	}
	if _, err := openHost(3, model, deepdb.WithWAL(walDir)); err == nil || !strings.Contains(err.Error(), "different positions") {
		t.Fatalf("torn per-shard WAL set opened: err = %v", err)
	}
}

// TestReloadMustFitThePartition: a partitioned host keeps its partition
// across Reload, so a model with another member count is refused and the
// old one keeps serving; the one-shard host holds the whole ensemble and
// takes any model over its schema.
func TestReloadMustFitThePartition(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	s, data := fixture3(hostRows, hostSeed)
	joint, err := deepdb.LearnDataset(ctx, s, data, deepdb.WithMaxSamples(20000))
	if err != nil {
		t.Fatal(err)
	}
	if len(joint.Models()) == 3 {
		t.Fatal("fixture broken: the default ensemble has the single-table member count")
	}
	other := filepath.Join(dir, "other.deepdb")
	if err := joint.Save(other); err != nil {
		t.Fatal(err)
	}
	same := filepath.Join(dir, "same.deepdb")
	for _, n := range []int{1, 2, 3} {
		db := learnHost(t, n)
		defer db.Close()
		if n == 1 {
			if err := db.Save(same); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Reload(same); err != nil {
			t.Fatalf("%d shards: reload of a same-shape model: %v", n, err)
		}
		before := db.Generation()
		err := db.Reload(other)
		if n == 1 {
			if err != nil {
				t.Fatalf("one-shard reload of another ensemble shape: %v", err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), "members") {
			t.Fatalf("%d shards: reload with another member count: err = %v", n, err)
		}
		if db.Generation() != before {
			t.Fatalf("%d shards: a refused reload published", n)
		}
		if _, err := db.Query(ctx, hostSQL[0]); err != nil {
			t.Fatalf("%d shards: query after a refused reload: %v", n, err)
		}
	}
}

// TestDriftTriggerRefusedWhenSharded: re-learning needs the whole ensemble
// in one shard, so the constructor refuses an armed trigger together with
// WithShards(2) instead of silently ignoring it; one shard takes it.
func TestDriftTriggerRefusedWhenSharded(t *testing.T) {
	ctx := context.Background()
	for _, opt := range []deepdb.Option{deepdb.WithDriftThreshold(0.2), deepdb.WithDriftMeanShift(3)} {
		s, data := fixture3(hostRows, hostSeed)
		if _, err := deepdb.LearnDataset(ctx, s, data, hostOpts(2, opt)...); err == nil || !strings.Contains(err.Error(), "drift") {
			t.Fatalf("sharded host accepted a drift trigger: err = %v", err)
		}
		db := learnHost(t, 1, opt)
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// workloadBits runs the TestShardedMatchesSingleBitwise matrix — every
// equivalenceWorkload query through ExecuteQuery and
// EstimateCardinalityQuery — and renders each answer by its exact bits.
func workloadBits(t *testing.T, db *deepdb.DB, workload []query.Query) []string {
	t.Helper()
	ctx := context.Background()
	var out []string
	for i, q := range workload {
		res, err := db.ExecuteQuery(ctx, q)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		est, err := db.EstimateCardinalityQuery(ctx, q)
		if err != nil {
			t.Fatalf("estimate %d: %v", i, err)
		}
		out = append(out, bitsOfResult(res), bitsOfEstimate(est))
	}
	return out
}

// TestOpenHonoursShardOptions: sharding is an option of the one
// constructor family. Open(model, WithShards(2)) serves two shards and
// answers the equivalence matrix bit-identically to the unpartitioned
// handle over the same model; WithShardPeers partitions too, even at one
// shard. Must-fail twin: the same matrix with one literal perturbed must
// differ, so the comparison can tell two answers apart.
func TestOpenHonoursShardOptions(t *testing.T) {
	ctx := context.Background()
	s, data := fixture(400, 51)
	whole, err := deepdb.LearnDataset(ctx, s, data, deepdb.WithMaxSamples(1600))
	if err != nil {
		t.Fatal(err)
	}
	defer whole.Close()
	model := filepath.Join(t.TempDir(), "m.deepdb")
	if err := whole.Save(model); err != nil {
		t.Fatal(err)
	}
	split, err := deepdb.Open(ctx, model, deepdb.WithShards(2))
	if err != nil {
		t.Fatalf("Open refused WithShards(2): %v", err)
	}
	defer split.Close()
	if whole.Shards() != 1 || split.Shards() != 2 {
		t.Fatalf("Shards() = %d unpartitioned, %d with WithShards(2); want 1 and 2", whole.Shards(), split.Shards())
	}
	want := workloadBits(t, whole, equivalenceWorkload)
	if got := workloadBits(t, split, equivalenceWorkload); !reflect.DeepEqual(got, want) {
		t.Fatalf("two shards answer differently from one:\n got %q\nwant %q", got, want)
	}

	perturbed := append([]query.Query(nil), equivalenceWorkload...)
	perturbed[0].Filters = []query.Predicate{{Column: "c_age", Op: query.Lt, Value: 41}}
	if got := workloadBits(t, split, perturbed); reflect.DeepEqual(got, want) {
		t.Fatal("must-fail twin: a perturbed literal left every answer bit-identical")
	}

	peered, err := deepdb.Open(ctx, model, deepdb.WithShardPeers("http://localhost:1"),
		deepdb.WithPeerProbeInterval(0))
	if err != nil {
		t.Fatalf("Open refused WithShardPeers: %v", err)
	}
	defer peered.Close()
	if st := peered.ShardStats(); len(st) != 1 || st[0].Peer == "" || st[0].Members == nil {
		t.Fatalf("one shard with a peer should report a partitioned shard bound to it: %+v", st)
	}
	if st := whole.ShardStats(); len(st) != 1 || st[0].Peer != "" || st[0].Members != nil {
		t.Fatalf("an unpartitioned DB should report one whole-ensemble shard without a peer: %+v", st)
	}
	if hits, falls := whole.PeerStats(); hits != 0 || falls != 0 {
		t.Fatalf("an unpartitioned DB counted peer traffic: %d hits, %d fallbacks", hits, falls)
	}
}

// TestSaveAndReloadDoNotStallWriters: draining the queues and writing or
// reading the model file happen outside the broadcast lock, so a writer
// arriving while a Save or Reload waits on a slow applier is admitted at
// once — under WithNonBlockingUpdates (what `deepdb serve` runs) a handler
// must never be pinned for the length of a save.
func TestSaveAndReloadDoNotStallWriters(t *testing.T) {
	const stall = 600 * time.Millisecond
	for _, n := range []int{1, 3} {
		for _, op := range []string{"save", "reload"} {
			t.Run(fmt.Sprintf("shards=%d/%s", n, op), func(t *testing.T) {
				db := learnHost(t, n, deepdb.WithNonBlockingUpdates())
				defer db.Close()
				model := filepath.Join(t.TempDir(), "m.deepdb")
				if err := db.Save(model); err != nil {
					t.Fatal(err)
				}
				insert := func(id int) error {
					return db.Insert("orders", map[string]deepdb.Value{
						"o_id": deepdb.Int(9_700_000 + id), "o_c_id": deepdb.Int(1), "o_amount": deepdb.Float(20),
					})
				}
				// Every apply batch now takes `stall`: the first insert keeps
				// the maintenance operation's drain waiting that long.
				enableChaos(t, fmt.Sprintf("point=pipeline.apply;kind=latency;d=%s", stall))
				if err := insert(0); err != nil {
					t.Fatal(err)
				}
				done := make(chan error, 1)
				go func() {
					if op == "save" {
						done <- db.Save(model)
					} else {
						done <- db.Reload(model)
					}
				}()
				time.Sleep(stall / 6) // let it reach the drain
				start := time.Now()
				if err := insert(1); err != nil {
					t.Fatalf("insert during %s: %v", op, err)
				}
				if waited := time.Since(start); waited > stall/2 {
					t.Fatalf("insert waited %v behind a %s draining a %v batch", waited, op, stall)
				}
				if err := <-done; err != nil {
					t.Fatalf("%s: %v", op, err)
				}
			})
		}
	}
}

// TestReloadDoesNotRunTheDriftTrigger: the trigger belongs to update
// batches. A Reload publishes a model whose drift baseline was just reset,
// so a member still tripped on the outgoing view must not be re-learned
// against the fresh one.
func TestReloadDoesNotRunTheDriftTrigger(t *testing.T) {
	ctx := context.Background()
	s, data := fixture(600, 41)
	db, err := deepdb.LearnDataset(ctx, s, data,
		deepdb.WithMaxSamples(8000), deepdb.WithSingleTableOnly(),
		deepdb.WithDriftThreshold(0.2), deepdb.WithSyncUpdates())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	model := filepath.Join(t.TempDir(), "m.deepdb")
	if err := db.Save(model); err != nil {
		t.Fatal(err)
	}
	// One batch trips both members at once; the re-learner takes one, and
	// with no further batch the other stays tripped.
	var rows []deepdb.Row
	for i := 0; i < 300; i++ {
		rows = append(rows, deepdb.Row{Table: "customer", Values: map[string]deepdb.Value{
			"c_id": deepdb.Int(9_800_000 + i), "c_age": deepdb.Int(40), "c_region": deepdb.Int(0)}})
	}
	for i := 0; i < 400; i++ {
		rows = append(rows, deepdb.Row{Table: "orders", Values: map[string]deepdb.Value{
			"o_id": deepdb.Int(9_900_000 + i), "o_c_id": deepdb.Int(i % 100), "o_amount": deepdb.Float(60)}})
	}
	if err := db.Update(rows...); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(20 * time.Second)
	for db.UpdateStats().Relearns == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no background re-learn within deadline: %+v", db.UpdateStats())
		}
		time.Sleep(10 * time.Millisecond)
	}
	time.Sleep(100 * time.Millisecond) // the re-learner retires right after its swap
	tripped := 0
	for _, d := range db.UpdateStats().Drift {
		if d.Relearns == 0 && d.MutatedFraction > 0.2 {
			tripped++
		}
	}
	if tripped != 1 {
		t.Fatalf("want exactly one member left tripped on the outgoing view: %+v", db.UpdateStats().Drift)
	}
	if err := db.Reload(model); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil { // waits for a re-learn in flight
		t.Fatal(err)
	}
	if st := db.UpdateStats(); st.Relearns != 0 || st.RelearnErrors != 0 {
		t.Fatalf("reload ran the drift trigger against the fresh model: %+v", st)
	}
}

var generationSink uint64

// TestSnapshotLoadDoesNotAllocate: the reader's snapshot load is one
// atomic pointer load at every shard count — composition happens on the
// publish side, so reading allocates nothing and polls no shard.
func TestSnapshotLoadDoesNotAllocate(t *testing.T) {
	for _, n := range []int{1, 3} {
		db := learnHost(t, n)
		defer db.Close()
		if err := db.Insert("orders", map[string]deepdb.Value{
			"o_id": deepdb.Int(9_600_000), "o_c_id": deepdb.Int(1), "o_amount": deepdb.Float(20),
		}); err != nil {
			t.Fatal(err)
		}
		if err := db.Flush(context.Background()); err != nil {
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(1000, func() { generationSink += db.Generation() }); allocs != 0 {
			t.Fatalf("%d shards: snapshot load allocates %v times per read", n, allocs)
		}
	}
}
