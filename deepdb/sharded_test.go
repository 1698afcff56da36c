package deepdb_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"repro/deepdb"
	"repro/internal/rspn"
)

// requireFullSampleRate asserts the bit-identity precondition of the
// sharded equivalence tests: every ensemble member was learned on the full
// join (SampleRate == 1). Sharding hands each shard a fresh sampling rng,
// which only matters when incremental inserts sample (SampleRate < 1) —
// under full sampling the apply path never draws from it, so broadcast
// application is exactly reproducible across process layouts.
func requireFullSampleRate(t *testing.T, db interface{ Models() []*rspn.RSPN }) {
	t.Helper()
	for i, m := range db.Models() {
		if m.SampleRate != 1 {
			t.Fatalf("member %d has sample rate %v; the equivalence fixture must learn on the full join", i, m.SampleRate)
		}
	}
}

// TestShardedMatchesSingleBitwise is the tentpole equivalence bar: a
// sharded DB fed the identical mutation stream must answer the full
// workload matrix — Case 1, Case 2, Theorem-2 combination, GROUP BY,
// disjunction, outer join, AVG/SUM — bit-identically to a single-process
// DB, for every shard count and both ensemble shapes.
func TestShardedMatchesSingleBitwise(t *testing.T) {
	ctx := context.Background()
	for _, shape := range []struct {
		name string
		opts []deepdb.Option
	}{
		{"ensemble", nil},
		{"single-table-only/theorem2", []deepdb.Option{deepdb.WithSingleTableOnly()}},
	} {
		for _, nshards := range []int{1, 2, 3} {
			t.Run(fmt.Sprintf("%s/shards=%d", shape.name, nshards), func(t *testing.T) {
				muts := mutationStream(120)
				base := append([]deepdb.Option{deepdb.WithMaxSamples(4000)}, shape.opts...)

				s1, d1 := fixture(1500, 31)
				single, err := deepdb.LearnDataset(ctx, s1, d1, base...)
				if err != nil {
					t.Fatal(err)
				}
				defer single.Close()
				s2, d2 := fixture(1500, 31)
				shardedDB, err := deepdb.LearnDataset(ctx, s2, d2,
					append([]deepdb.Option{deepdb.WithShards(nshards)}, base...)...)
				if err != nil {
					t.Fatal(err)
				}
				defer shardedDB.Close()
				requireFullSampleRate(t, single)
				requireFullSampleRate(t, shardedDB)

				applyStream(t, single, muts)
				applyStream(t, shardedDB, muts)
				if err := single.Flush(ctx); err != nil {
					t.Fatal(err)
				}
				if err := shardedDB.Flush(ctx); err != nil {
					t.Fatal(err)
				}
				for i, st := range shardedDB.ShardStats() {
					if st.QueueDepth != 0 || st.Errors != 0 {
						t.Fatalf("shard %d not drained cleanly: %+v", i, st)
					}
					if st.Ops != shardedDB.ShardStats()[0].Ops {
						t.Fatalf("shards misaligned after Flush: %+v", shardedDB.ShardStats())
					}
				}

				for i, q := range equivalenceWorkload {
					a, err := single.ExecuteQuery(ctx, q)
					if err != nil {
						t.Fatalf("query %d single: %v", i, err)
					}
					b, err := shardedDB.ExecuteQuery(ctx, q)
					if err != nil {
						t.Fatalf("query %d sharded: %v", i, err)
					}
					if normResult(a) != normResult(b) {
						t.Fatalf("query %d mismatch\n  single:  %v\n  sharded: %v", i, a, b)
					}
					ea, err := single.EstimateCardinalityQuery(ctx, q)
					if err != nil {
						t.Fatalf("estimate %d single: %v", i, err)
					}
					eb, err := shardedDB.EstimateCardinalityQuery(ctx, q)
					if err != nil {
						t.Fatalf("estimate %d sharded: %v", i, err)
					}
					if ea != eb {
						t.Fatalf("estimate %d mismatch: %+v != %+v", i, ea, eb)
					}
				}
				// Prepared statements share the read path too.
				sa, err := single.Prepare("SELECT COUNT(*) FROM customer JOIN orders WHERE o_amount >= ? AND c_age < ?")
				if err != nil {
					t.Fatal(err)
				}
				sb, err := shardedDB.Prepare("SELECT COUNT(*) FROM customer JOIN orders WHERE o_amount >= ? AND c_age < ?")
				if err != nil {
					t.Fatal(err)
				}
				ra, err := sa.Exec(ctx, 40, 50)
				if err != nil {
					t.Fatal(err)
				}
				rb, err := sb.Exec(ctx, 40, 50)
				if err != nil {
					t.Fatal(err)
				}
				if normResult(ra) != normResult(rb) {
					t.Fatalf("prepared exec mismatch: %v != %v", ra, rb)
				}
				// Exact execution sees the same broadcast-maintained tables.
				ea, err := single.Exact(ctx, "SELECT COUNT(*) FROM customer JOIN orders WHERE o_amount >= 50")
				if err != nil {
					t.Fatal(err)
				}
				eb, err := shardedDB.Exact(ctx, "SELECT COUNT(*) FROM customer JOIN orders WHERE o_amount >= 50")
				if err != nil {
					t.Fatal(err)
				}
				if normResult(ea) != normResult(eb) {
					t.Fatalf("exact mismatch: %v != %v", ea, eb)
				}
			})
		}
	}
}

// TestShardedHotReload: swapping the model file under a running sharded DB
// keeps reads available throughout, lands on results bit-identical to a DB
// that served the new model all along, and never exposes a mixed
// old/new-generation view.
func TestShardedHotReload(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()

	// v2 model: the same fixture with extra rows squashed in, saved to disk.
	s2, d2 := fixture(1200, 41)
	v2ref, err := deepdb.LearnDataset(ctx, s2, d2,
		deepdb.WithMaxSamples(4000), deepdb.WithSyncUpdates())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		if err := v2ref.Insert("orders", map[string]deepdb.Value{
			"o_id":     deepdb.Int(14_000_000 + i),
			"o_c_id":   deepdb.Int(i % 100),
			"o_amount": deepdb.Float(77),
		}); err != nil {
			t.Fatal(err)
		}
	}
	v2path := filepath.Join(dir, "v2.deepdb")
	if err := v2ref.Save(v2path); err != nil {
		t.Fatal(err)
	}

	s1, d1 := fixture(1200, 41)
	sdb, err := deepdb.LearnDataset(ctx, s1, d1,
		deepdb.WithMaxSamples(4000), deepdb.WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	defer sdb.Close()

	const sql = "SELECT COUNT(*) FROM customer JOIN orders WHERE o_amount >= 50"
	oldRes, err := sdb.Query(ctx, sql)
	if err != nil {
		t.Fatal(err)
	}
	wantNew, err := v2ref.Query(ctx, sql)
	if err != nil {
		t.Fatal(err)
	}
	if normResult(oldRes) == normResult(wantNew) {
		t.Fatal("fixture broken: v2 model indistinguishable from v1")
	}

	// Readers hammer the DB across the swap: every observation must be
	// exactly the old result or exactly the new one.
	var stop atomic.Bool
	var wg sync.WaitGroup
	errc := make(chan error, 8)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				res, err := sdb.Query(ctx, sql)
				if err != nil {
					errc <- fmt.Errorf("read during reload: %w", err)
					return
				}
				if n := normResult(res); n != normResult(oldRes) && n != normResult(wantNew) {
					errc <- fmt.Errorf("mixed-generation read: %v", res)
					return
				}
			}
		}()
	}
	genBefore := sdb.Generation()
	if err := sdb.Reload(v2path); err != nil {
		t.Fatal(err)
	}
	stop.Store(true)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if sdb.Generation() <= genBefore {
		t.Fatalf("reload did not publish: generation %d -> %d", genBefore, sdb.Generation())
	}
	for i, q := range equivalenceWorkload {
		a, err := v2ref.ExecuteQuery(ctx, q)
		if err != nil {
			t.Fatalf("query %d ref: %v", i, err)
		}
		b, err := sdb.ExecuteQuery(ctx, q)
		if err != nil {
			t.Fatalf("query %d reloaded: %v", i, err)
		}
		if normResult(a) != normResult(b) {
			t.Fatalf("query %d after reload\n  want: %v\n  got:  %v", i, a, b)
		}
	}
	// The reloaded DB keeps accepting and applying updates.
	if err := sdb.Insert("orders", map[string]deepdb.Value{
		"o_id": deepdb.Int(15_000_000), "o_c_id": deepdb.Int(1), "o_amount": deepdb.Float(60),
	}); err != nil {
		t.Fatal(err)
	}
	if err := sdb.Flush(ctx); err != nil {
		t.Fatal(err)
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

// TestShardedBackpressureSheds: with a tiny queue and
// WithNonBlockingUpdates (which means the same at every shard count), a
// write burst sheds with ErrQueueFull instead of blocking, a shed group
// leaves no trace on any shard, and the final state reflects exactly the
// accepted writes.
func TestShardedBackpressureSheds(t *testing.T) {
	ctx := context.Background()
	s, data := fixture(1000, 44)
	db, err := deepdb.LearnDataset(ctx, s, data,
		deepdb.WithMaxSamples(2000), deepdb.WithShards(2), deepdb.WithUpdateQueueSize(1),
		deepdb.WithNonBlockingUpdates())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	initial, err := db.Query(ctx, "SELECT COUNT(*) FROM orders")
	if err != nil {
		t.Fatal(err)
	}
	accepted, shed := 0, 0
	for i := 0; i < 400; i++ {
		err := db.Insert("orders", map[string]deepdb.Value{
			"o_id": deepdb.Int(17_000_000 + i), "o_c_id": deepdb.Int(i % 100), "o_amount": deepdb.Float(5),
		})
		switch {
		case err == nil:
			accepted++
		case errors.Is(err, deepdb.ErrQueueFull):
			// Shed: not logged, not enqueued anywhere.
			shed++
		default:
			t.Fatal(err)
		}
	}
	if shed == 0 {
		t.Fatal("400 tight-loop inserts against a 1-slot queue never shed")
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
	st := db.UpdateStats()
	if st.Enqueued != uint64(accepted)*2 { // broadcast: one enqueue per shard
		t.Fatalf("enqueued %d operations for %d accepted broadcasts to 2 shards", st.Enqueued, accepted)
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

// TestShardedWALRecovery: a sharded DB with per-shard WALs, closed and
// reopened, replays every accepted mutation on every shard and realigns.
func TestShardedWALRecovery(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	walDir := filepath.Join(dir, "wal")
	s, data := fixture(1000, 46)
	db, err := deepdb.LearnDataset(ctx, s, data,
		deepdb.WithMaxSamples(2000), deepdb.WithShards(2), deepdb.WithWAL(walDir))
	if err != nil {
		t.Fatal(err)
	}
	muts := mutationStream(60)
	applyStream(t, db, muts)
	if err := db.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	want, err := db.Query(ctx, "SELECT COUNT(*) FROM customer JOIN orders WHERE o_amount >= 50")
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if entries, err := os.ReadDir(walDir); err != nil || len(entries) != 2 {
		t.Fatalf("want one WAL subdirectory per shard, got %v (err %v)", entries, err)
	}

	s2, data2 := fixture(1000, 46)
	re, err := deepdb.LearnDataset(ctx, s2, data2,
		deepdb.WithMaxSamples(2000), deepdb.WithShards(2), deepdb.WithWAL(walDir))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	got, err := re.Query(ctx, "SELECT COUNT(*) FROM customer JOIN orders WHERE o_amount >= 50")
	if err != nil {
		t.Fatal(err)
	}
	if normResult(want) != normResult(got) {
		t.Fatalf("after per-shard replay: %v != %v", want, got)
	}
}
