package deepdb_test

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/deepdb"
	"repro/internal/ensemble"
	"repro/internal/wal"
)

// learnWAL builds a DB over the deterministic fixture with a WAL attached.
func learnWAL(t *testing.T, dir string, rows int, seed int64, extra ...deepdb.Option) *deepdb.DB {
	t.Helper()
	s, data := fixture(rows, seed)
	opts := append([]deepdb.Option{
		// SampleRate 1 on this fixture: applying mutations draws nothing
		// from the shared rng, so recovery equivalence is exact regardless
		// of how groups were batched.
		deepdb.WithMaxSamples(8000),
		deepdb.WithWAL(dir),
	}, extra...)
	db, err := deepdb.LearnDataset(context.Background(), s, data, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestWALReplayMatchesSyncBitwise: a DB that logged a mutation stream but
// never saved, "crashed" (closed without checkpoint) and was rebuilt over
// the original data replays the log on open — and then answers the full
// workload matrix bit-identically to a DB that applied the same stream
// synchronously and never crashed.
func TestWALReplayMatchesSyncBitwise(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	muts := mutationStream(80)

	crashed := learnWAL(t, dir, 1200, 77, deepdb.WithDurability(deepdb.DurabilitySync))
	applyStream(t, crashed, muts)
	if err := crashed.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	// No Save: the checkpoint stays at 0 and every record remains live.
	if err := crashed.Close(); err != nil {
		t.Fatal(err)
	}

	recovered := learnWAL(t, dir, 1200, 77)
	defer recovered.Close()
	st := recovered.UpdateStats()
	if st.WAL == nil || st.WAL.Replayed != uint64(len(muts)) {
		t.Fatalf("WAL stats after recovery = %+v, want %d replayed", st.WAL, len(muts))
	}
	if st.WAL.AppliedLSN != st.WAL.LastLSN || st.WAL.LastLSN == 0 {
		t.Fatalf("watermarks after recovery: %+v", st.WAL)
	}
	// Replay runs the applier's body directly, not through the queue, and
	// the first serving view is published once, after it.
	if g := recovered.Generation(); g != 0 {
		t.Fatalf("generation %d after replay, want 0: replay published per batch", g)
	}
	if st.Enqueued != 0 || st.Batches != 0 {
		t.Fatalf("replay went through the update queue: enqueued %d, batches %d", st.Enqueued, st.Batches)
	}

	s, data := fixture(1200, 77)
	ref, err := deepdb.LearnDataset(ctx, s, data,
		deepdb.WithMaxSamples(8000), deepdb.WithSyncUpdates())
	if err != nil {
		t.Fatal(err)
	}
	applyStream(t, ref, muts)

	for i, q := range equivalenceWorkload {
		a, err := ref.ExecuteQuery(ctx, q)
		if err != nil {
			t.Fatalf("query %d ref: %v", i, err)
		}
		b, err := recovered.ExecuteQuery(ctx, q)
		if err != nil {
			t.Fatalf("query %d recovered: %v", i, err)
		}
		if normResult(a) != normResult(b) {
			t.Fatalf("query %d mismatch\n  ref:       %v\n  recovered: %v", i, a, b)
		}
		ea, err := ref.EstimateCardinalityQuery(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		eb, err := recovered.EstimateCardinalityQuery(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if ea != eb {
			t.Fatalf("estimate %d mismatch: %+v != %+v", i, ea, eb)
		}
	}
}

// TestWALCheckpointSkipsSavedRecords: Save checkpoints the log at the
// applied watermark; the next open replays only what came after, and a
// fully-saved log replays nothing.
func TestWALCheckpointSkipsSavedRecords(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	model := t.TempDir() + "/m.deepdb"

	db := learnWAL(t, dir, 800, 51)
	for i := 0; i < 10; i++ {
		if err := db.Insert("orders", map[string]deepdb.Value{
			"o_id": deepdb.Int(20_000_000 + i), "o_c_id": deepdb.Int(i), "o_amount": deepdb.Float(30),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Save(model); err != nil {
		t.Fatal(err)
	}
	info, err := wal.Inspect(dir)
	if err != nil {
		t.Fatal(err)
	}
	if info.CheckpointLSN != 10 || info.LastLSN != 10 {
		t.Fatalf("after Save: checkpoint %d last %d, want 10/10", info.CheckpointLSN, info.LastLSN)
	}
	// Five more mutations after the save are the only live records.
	for i := 0; i < 5; i++ {
		if err := db.Insert("orders", map[string]deepdb.Value{
			"o_id": deepdb.Int(21_000_000 + i), "o_c_id": deepdb.Int(i), "o_amount": deepdb.Float(40),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	before, err := db.Query(ctx, "SELECT COUNT(*) FROM orders")
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	s, data := fixture(800, 51)
	re, err := deepdb.Open(ctx, model, deepdb.WithDataset(data), deepdb.WithWAL(dir))
	_ = s
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	st := re.UpdateStats()
	if st.WAL.Replayed != 5 {
		t.Fatalf("replayed %d records, want 5 (checkpointed ones must be skipped)", st.WAL.Replayed)
	}
	after, err := re.Query(ctx, "SELECT COUNT(*) FROM orders")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(after.Scalar()-before.Scalar()) > 1e-6 {
		t.Fatalf("recovered count %v, want %v", after.Scalar(), before.Scalar())
	}
	// Saving the recovered DB checkpoints everything; a third open replays
	// nothing.
	if err := re.Save(model); err != nil {
		t.Fatal(err)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	_, data3 := fixture(800, 51)
	re3, err := deepdb.Open(ctx, model, deepdb.WithDataset(data3), deepdb.WithWAL(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer re3.Close()
	if got := re3.UpdateStats().WAL.Replayed; got != 0 {
		t.Fatalf("fully-saved log replayed %d records, want 0", got)
	}
}

// TestWALReplayWithoutTablesFails: a log with live records cannot replay
// into a model-only open — that must be a clear error, not silent loss.
func TestWALReplayWithoutTablesFails(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	model := t.TempDir() + "/m.deepdb"
	db := learnWAL(t, dir, 600, 52)
	if err := db.Save(model); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("orders", map[string]deepdb.Value{
		"o_id": deepdb.Int(22_000_000), "o_c_id": deepdb.Int(1), "o_amount": deepdb.Float(10),
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	_, err := deepdb.Open(ctx, model, deepdb.WithWAL(dir))
	if err == nil || !strings.Contains(err.Error(), "no base tables") {
		t.Fatalf("model-only open with live WAL records = %v, want base-tables error", err)
	}
}

// TestDriftTriggersBackgroundRelearn: pushing a member past the mutation
// threshold re-learns it in the background and hot-swaps it into the
// serving snapshot — queries keep working throughout, the member's
// staleness resets, and the re-learned model serves the exact
// post-mutation count.
func TestDriftTriggersBackgroundRelearn(t *testing.T) {
	ctx := context.Background()
	s, data := fixture(600, 41)
	db, err := deepdb.LearnDataset(ctx, s, data,
		deepdb.WithMaxSamples(8000), deepdb.WithSingleTableOnly(),
		deepdb.WithDriftThreshold(0.2))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	initial, err := db.Query(ctx, "SELECT COUNT(*) FROM orders")
	if err != nil {
		t.Fatal(err)
	}
	n0 := initial.Scalar()
	const inserts = 300 // >20% of the ~1100-row orders baseline
	for i := 0; i < inserts; i++ {
		if err := db.Insert("orders", map[string]deepdb.Value{
			"o_id": deepdb.Int(23_000_000 + i), "o_c_id": deepdb.Int(i % 100), "o_amount": deepdb.Float(60),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(20 * time.Second)
	for db.UpdateStats().Relearns == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no background re-learn within deadline: %+v", db.UpdateStats())
		}
		if _, err := db.Query(ctx, "SELECT COUNT(*) FROM orders"); err != nil {
			t.Fatalf("query during re-learn: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	st := db.UpdateStats()
	if st.RelearnErrors != 0 {
		t.Fatalf("re-learn errors: %+v", st)
	}
	var ordersStat *deepdb.DriftStat
	for i := range st.Drift {
		if len(st.Drift[i].Tables) == 1 && st.Drift[i].Tables[0] == "orders" {
			ordersStat = &st.Drift[i]
		}
	}
	if ordersStat == nil {
		t.Fatalf("no drift stat for orders: %+v", st.Drift)
	}
	if ordersStat.Relearns != 1 || ordersStat.MutatedFraction > 0.2 {
		t.Fatalf("orders member not re-baselined: %+v", *ordersStat)
	}
	// The hot-swapped member serves the exact post-mutation count (a fresh
	// single-table model's unfiltered COUNT equals its training row count).
	res, err := db.Query(ctx, "SELECT COUNT(*) FROM orders")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Scalar()-(n0+inserts)) > 1e-6 {
		t.Fatalf("count after re-learn = %v, want %v", res.Scalar(), n0+inserts)
	}
}

// TestOpenRefusesPartitionedWALDir: a WAL directory still holding the
// shard-<i> logs of a partitioned deployment is refused at Open, with the
// recovery step in the error — the log opens only the segments directly in
// the directory, so serving from it would silently drop every write
// acknowledged into the subdirectories. Must-fail twin: after the recovery
// step (the longest shard log's segments and checkpoint moved up, the
// subdirectories deleted) Open succeeds and replays every row.
func TestOpenRefusesPartitionedWALDir(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	model, walDir := filepath.Join(dir, "model.deepdb"), filepath.Join(dir, "wal")
	const countSQL = "SELECT COUNT(*) FROM orders"
	db := learnHost(t)
	before, err := db.Exact(ctx, countSQL)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Save(model); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// Every shard of a partitioned deployment logged the full stream; the
	// crash left shard-1 one group short.
	const rows = 3
	for i, n := range []int{rows, rows - 1} {
		l, err := wal.Open(filepath.Join(walDir, fmt.Sprintf("shard-%d", i)), wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < n; r++ {
			muts := []ensemble.Mutation{{Op: ensemble.OpInsert, Table: "orders", Values: map[string]deepdb.Value{
				"o_id": deepdb.Int(9_950_000 + r), "o_c_id": deepdb.Int(r), "o_amount": deepdb.Float(30),
			}}}
			if _, err := l.Append(wal.EncodeMutations(muts)); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}

	if re, err := openHost(model, deepdb.WithWAL(walDir)); err == nil {
		re.Close()
		t.Fatal("Open served a WAL directory holding per-shard logs")
	} else if !strings.Contains(err.Error(), "shard-0") || !strings.Contains(err.Error(), "CHECKPOINT") {
		t.Fatalf("refusal does not name the shard log and the recovery step: %v", err)
	}

	// The recovery step: move the longest log up, delete the subdirectories.
	longest := filepath.Join(walDir, "shard-0")
	entries, err := os.ReadDir(longest)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range entries {
		if err := os.Rename(filepath.Join(longest, ent.Name()), filepath.Join(walDir, ent.Name())); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		if err := os.RemoveAll(filepath.Join(walDir, fmt.Sprintf("shard-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	re, err := openHost(model, deepdb.WithWAL(walDir))
	if err != nil {
		t.Fatalf("Open after folding the shard log into the WAL directory: %v", err)
	}
	defer re.Close()
	if st := re.UpdateStats(); st.WAL == nil || st.WAL.Replayed != rows {
		t.Fatalf("replayed %+v, want %d groups", st.WAL, rows)
	}
	after, err := re.Exact(ctx, countSQL)
	if err != nil {
		t.Fatal(err)
	}
	if got := after.Scalar() - before.Scalar(); got != rows {
		t.Fatalf("exact order count moved by %v after replay, want %d", got, rows)
	}
}

// TestConcurrentSavesKeepAcknowledgedWrites: saves to one path racing each
// other beside a streaming writer run one at a time, each from a snapshot
// no older than the last, so the file left behind holds everything its
// checkpoint covers: reopened with the same WAL, the model counts every
// acknowledged row. (Were a save that picked an older snapshot allowed to
// rename its file after a newer one, its lower checkpoint would be ignored
// and the records in between would never replay.) The model's estimate is
// compared, not Exact: Save does not persist base tables, so Exact after a
// reopen undercounts by design.
func TestConcurrentSavesKeepAcknowledgedWrites(t *testing.T) {
	const rounds, savers, rows, seed = 20, 8, 200, 91
	ctx := context.Background()
	countOrders := func(db *deepdb.DB) float64 {
		t.Helper()
		est, err := db.EstimateCardinality(ctx, "SELECT COUNT(*) FROM orders")
		if err != nil {
			t.Fatal(err)
		}
		return math.Round(est.Value)
	}
	for r := 0; r < rounds; r++ {
		dir := t.TempDir()
		model, walDir := filepath.Join(dir, "m.deepdb"), filepath.Join(dir, "wal")
		db := learnWAL(t, walDir, rows, seed, deepdb.WithDurability(deepdb.DurabilitySync))
		stop, writer := make(chan struct{}), make(chan error, 1)
		go func() {
			for i := 0; ; i++ {
				select {
				case <-stop:
					writer <- nil
					return
				default:
				}
				if err := db.Insert("orders", map[string]deepdb.Value{
					"o_id": deepdb.Int(8_000_000 + i), "o_c_id": deepdb.Int(i % rows), "o_amount": deepdb.Float(40),
				}); err != nil {
					writer <- err
					return
				}
			}
		}()
		saves := make(chan error, savers)
		for i := 0; i < savers; i++ {
			go func() { saves <- db.Save(model) }()
		}
		var saveErr error
		for i := 0; i < savers; i++ {
			if err := <-saves; err != nil && saveErr == nil {
				saveErr = err
			}
		}
		close(stop)
		if err := <-writer; err != nil {
			t.Fatal(err)
		}
		if saveErr != nil {
			t.Fatal(saveErr)
		}
		if err := db.Flush(ctx); err != nil {
			t.Fatal(err)
		}
		want := countOrders(db)
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		_, data := fixture(rows, seed)
		re, err := deepdb.Open(ctx, model, deepdb.WithDataset(data), deepdb.WithWAL(walDir))
		if err != nil {
			t.Fatal(err)
		}
		got := countOrders(re)
		re.Close()
		if got != want {
			t.Fatalf("round %d: the reopened model counts %v orders, the closed one %v: acknowledged writes were lost", r, got, want)
		}
	}
}
