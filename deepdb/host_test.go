package deepdb_test

// host_test.go drives the one *DB through one script on both write paths
// and pins every observable of the handle — answers, generation deltas,
// error delivery, backpressure, the WAL-failure policy and hot reload.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/deepdb"
	"repro/internal/query"
)

// fixture3 extends the customer/orders fixture with a lineitem table
// hanging off orders, so the single-table ensemble has three members and
// queries chain three tables.
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
// reproducible however the applier batches.
const (
	hostRows = 500
	hostSeed = 71
)

func hostOpts(extra ...deepdb.Option) []deepdb.Option {
	return append([]deepdb.Option{
		deepdb.WithMaxSamples(20000), deepdb.WithSingleTableOnly(),
	}, extra...)
}

// learnHost learns the fixture behind a DB.
func learnHost(t *testing.T, extra ...deepdb.Option) *deepdb.DB {
	t.Helper()
	s, data := fixture3(hostRows, hostSeed)
	db, err := deepdb.LearnDataset(context.Background(), s, data, hostOpts(extra...)...)
	if err != nil {
		t.Fatal(err)
	}
	requireFullSampleRate(t, db)
	return db
}

// requireFullSampleRate asserts the bit-identity precondition of the
// equivalence tests: every ensemble member was learned on the full join
// (SampleRate == 1), so applying mutations never draws from the rng.
func requireFullSampleRate(t *testing.T, db *deepdb.DB) {
	t.Helper()
	for i, m := range db.Models() {
		if m.SampleRate != 1 {
			t.Fatalf("member %d has sample rate %v; the fixture must learn on the full join", i, m.SampleRate)
		}
	}
}

// openHost opens a saved model over fresh fixture tables.
func openHost(model string, extra ...deepdb.Option) (*deepdb.DB, error) {
	_, data := fixture3(hostRows, hostSeed)
	opts := hostOpts(append([]deepdb.Option{deepdb.WithDataset(data)}, extra...)...)
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
func runHostScript(t *testing.T, sync bool) hostTrace {
	t.Helper()
	ctx := context.Background()
	dir := t.TempDir()
	walDir, model := filepath.Join(dir, "wal"), filepath.Join(dir, "model.deepdb")
	opts := []deepdb.Option{deepdb.WithWAL(walDir), deepdb.WithResultCacheSize(64)}
	if sync {
		opts = append(opts, deepdb.WithSyncUpdates())
	}
	db := learnHost(t, opts...)
	var tr hostTrace

	// step runs one write and — on the asynchronous path — the Flush that
	// publishes it and delivers its apply error; under WithSyncUpdates the
	// write itself does both.
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

	// Health: every group is logged once, and the last-batch readings are
	// reported, not zeroed.
	st := db.UpdateStats()
	if st.WAL == nil || st.WAL.Dir != walDir || st.WAL.Appended != 4 || st.WAL.AppliedLSN != 4 || st.WAL.LastLSN != 4 {
		t.Fatalf("WAL stats after 4 groups: %+v", st.WAL)
	}
	if st.SyncUpdates != sync || (!sync && (st.LastBatch < 1 || st.ApplyLag <= 0 || st.Applied != 4)) {
		t.Fatalf("pipeline stats after 4 groups: %+v", st)
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

	// Reopen: the save covers the first four groups, the log replays the
	// two after it.
	re, err := openHost(model, deepdb.WithWAL(walDir))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if st := re.UpdateStats(); st.WAL == nil || st.WAL.Replayed != 2 || st.WAL.CheckpointLSN != 4 {
		t.Fatalf("reopen replayed %+v, want 2 groups past checkpoint 4", st.WAL)
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

// TestHostScript: the script ends in the same answers after every phase,
// with the same generation deltas, whether each write waits for its own
// apply (WithSyncUpdates) or is queued and flushed.
func TestHostScript(t *testing.T) {
	traces := map[bool]hostTrace{}
	for _, sync := range []bool{false, true} {
		t.Run(fmt.Sprintf("sync=%v", sync), func(t *testing.T) {
			tr := runHostScript(t, sync)
			if reflect.DeepEqual(tr.Mutated, tr.Live) {
				t.Fatal("fixture broken: the post-save writes changed no answer")
			}
			// Replay restores the pre-close state; reloading the save
			// restores the state it captured.
			if !reflect.DeepEqual(tr.Reopened, tr.Live) || !reflect.DeepEqual(tr.Reloaded, tr.Mutated) {
				t.Fatal("the reopened or reloaded handle answers unlike the state it restores")
			}
			traces[sync] = tr
		})
	}
	if len(traces) != 2 {
		return
	}
	if got, want := traces[false], traces[true]; !reflect.DeepEqual(got, want) {
		t.Fatalf("the queued write path diverges from the synchronous one\n  got:  %+v\n  want: %+v", got, want)
	}
}

// TestHostBackpressure: WithNonBlockingUpdates sheds with ErrQueueFull, a
// shed group leaves no trace, and without the option a full queue blocks
// instead — nothing is ever shed.
func TestHostBackpressure(t *testing.T) {
	ctx := context.Background()
	for _, nonBlocking := range []bool{true, false} {
		t.Run(fmt.Sprintf("nonblocking=%v", nonBlocking), func(t *testing.T) {
			opts := []deepdb.Option{deepdb.WithUpdateQueueSize(1)}
			if nonBlocking {
				opts = append(opts, deepdb.WithNonBlockingUpdates())
			}
			db := learnHost(t, opts...)
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
			if st := db.UpdateStats(); st.Enqueued != uint64(accepted) {
				t.Fatalf("enqueued %d operations for %d accepted writes", st.Enqueued, accepted)
			}
		})
	}
}

// TestHostWALFailStop: on either write path the first failed append
// latches — that write and every later one is refused with
// ErrDurabilityLost, nothing is applied — and reads keep serving.
func TestHostWALFailStop(t *testing.T) {
	ctx := context.Background()
	for _, sync := range []bool{false, true} {
		t.Run(fmt.Sprintf("sync=%v", sync), func(t *testing.T) {
			opts := []deepdb.Option{deepdb.WithWAL(t.TempDir())}
			if sync {
				opts = append(opts, deepdb.WithSyncUpdates())
			}
			db := learnHost(t, opts...)
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

// TestReloadTakesAnotherEnsembleShape: Reload swaps in any model over the
// schema — here one with another member count — and answers like a handle
// opened on that model.
func TestReloadTakesAnotherEnsembleShape(t *testing.T) {
	ctx := context.Background()
	s, data := fixture3(hostRows, hostSeed)
	joint, err := deepdb.LearnDataset(ctx, s, data, deepdb.WithMaxSamples(20000))
	if err != nil {
		t.Fatal(err)
	}
	defer joint.Close()
	db := learnHost(t)
	defer db.Close()
	if len(joint.Models()) == len(db.Models()) {
		t.Fatal("fixture broken: the default ensemble has the single-table member count")
	}
	other := filepath.Join(t.TempDir(), "other.deepdb")
	if err := joint.Save(other); err != nil {
		t.Fatal(err)
	}
	before := db.Generation()
	if err := db.Reload(other); err != nil {
		t.Fatalf("reload of another ensemble shape: %v", err)
	}
	if db.Generation() != before+1 || len(db.Models()) != len(joint.Models()) {
		t.Fatalf("reload published generation %d -> %d with %d members, want +1 and %d",
			before, db.Generation(), len(db.Models()), len(joint.Models()))
	}
	if got, want := answers(t, db), answers(t, joint); !reflect.DeepEqual(got, want) {
		t.Fatalf("reloaded handle answers differently from the model's own:\n got %q\nwant %q", got, want)
	}
}

// workloadBits runs every query of a workload through ExecuteQuery and
// EstimateCardinalityQuery and renders each answer by its exact bits.
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

// TestSaveAndReloadDoNotStallWriters: draining the queue and writing or
// reading the model file happen outside the write lock, so a writer
// arriving while a Save or Reload waits on a slow applier is admitted at
// once — under WithNonBlockingUpdates (what `deepdb serve` runs) a handler
// must never be pinned for the length of a save.
func TestSaveAndReloadDoNotStallWriters(t *testing.T) {
	const stall = 600 * time.Millisecond
	for _, op := range []string{"save", "reload"} {
		t.Run(op, func(t *testing.T) {
			db := learnHost(t, deepdb.WithNonBlockingUpdates())
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
// atomic pointer load — publication happens on the writer's side, so
// reading allocates nothing.
func TestSnapshotLoadDoesNotAllocate(t *testing.T) {
	db := learnHost(t)
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
		t.Fatalf("snapshot load allocates %v times per read", allocs)
	}
}

// TestSingleReloadServesNewModel: the single-process DB.Reload path swaps
// the serving model with zero read downtime too.
func TestSingleReloadServesNewModel(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	s2, d2 := fixture(900, 43)
	ref, err := deepdb.LearnDataset(ctx, s2, d2, deepdb.WithMaxSamples(2000), deepdb.WithSyncUpdates())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if err := ref.Insert("orders", map[string]deepdb.Value{
			"o_id": deepdb.Int(16_000_000 + i), "o_c_id": deepdb.Int(i % 50), "o_amount": deepdb.Float(88),
		}); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(dir, "next.deepdb")
	if err := ref.Save(path); err != nil {
		t.Fatal(err)
	}
	s1, d1 := fixture(900, 43)
	db, err := deepdb.LearnDataset(ctx, s1, d1, deepdb.WithMaxSamples(2000))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Reload(path); err != nil {
		t.Fatal(err)
	}
	const sql = "SELECT COUNT(*) FROM orders WHERE o_amount >= 80"
	a, err := ref.Query(ctx, sql)
	if err != nil {
		t.Fatal(err)
	}
	b, err := db.Query(ctx, sql)
	if err != nil {
		t.Fatal(err)
	}
	if normResult(a) != normResult(b) {
		t.Fatalf("after reload: %v != %v", a, b)
	}
}

// TestNonBlockingUpdatesOnPlainDB: WithNonBlockingUpdates gives the
// single-process DB the same shed-don't-block contract, including under a
// WAL (where a shed group must not linger in the log: replay after reopen
// reproduces exactly the accepted writes).
func TestNonBlockingUpdatesOnPlainDB(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	s, data := fixture(800, 45)
	db, err := deepdb.LearnDataset(ctx, s, data,
		deepdb.WithMaxSamples(1600), deepdb.WithNonBlockingUpdates(),
		deepdb.WithUpdateQueueSize(1), deepdb.WithWAL(filepath.Join(dir, "wal")))
	if err != nil {
		t.Fatal(err)
	}
	initial, err := db.Query(ctx, "SELECT COUNT(*) FROM orders")
	if err != nil {
		t.Fatal(err)
	}
	accepted := 0
	for i := 0; i < 300; i++ {
		err := db.Insert("orders", map[string]deepdb.Value{
			"o_id": deepdb.Int(18_000_000 + i), "o_c_id": deepdb.Int(i % 100), "o_amount": deepdb.Float(9),
		})
		switch {
		case err == nil:
			accepted++
		case errors.Is(err, deepdb.ErrQueueFull):
		default:
			t.Fatal(err)
		}
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
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen over the same WAL: replay must reproduce the accepted writes
	// only — a 429'd group that left a record behind would apply here.
	s2, data2 := fixture(800, 45)
	re, err := deepdb.LearnDataset(ctx, s2, data2,
		deepdb.WithMaxSamples(1600), deepdb.WithWAL(filepath.Join(dir, "wal")))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if err := re.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	reFinal, err := re.Query(ctx, "SELECT COUNT(*) FROM orders")
	if err != nil {
		t.Fatal(err)
	}
	if got := reFinal.Scalar() - initial.Scalar(); math.Abs(got-float64(accepted)) > 1e-6 {
		t.Fatalf("replayed count moved by %v, want %d (shed groups must not replay)", got, accepted)
	}
}
