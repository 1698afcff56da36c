package deepdb_test

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/deepdb"
	"repro/internal/query"
)

// mutation streams shared by the equivalence tests: inserts on both
// tables plus deletes of pre-existing orders, interleaved.
type mut struct {
	del    bool
	table  string
	pk     float64
	values map[string]deepdb.Value
}

func mutationStream(n int) []mut {
	var muts []mut
	for i := 0; i < n; i++ {
		muts = append(muts, mut{table: "orders", values: map[string]deepdb.Value{
			"o_id":     deepdb.Int(5_000_000 + i),
			"o_c_id":   deepdb.Int(i % 200),
			"o_amount": deepdb.Float(float64(5 + i%90)),
		}})
		if i%3 == 0 {
			muts = append(muts, mut{table: "customer", values: map[string]deepdb.Value{
				"c_id":     deepdb.Int(6_000_000 + i),
				"c_age":    deepdb.Int(18 + i%60),
				"c_region": deepdb.Int(i % 2),
			}})
		}
		if i%4 == 0 {
			muts = append(muts, mut{del: true, table: "orders", pk: float64(i)})
		}
	}
	return muts
}

func applyStream(t *testing.T, db *deepdb.DB, muts []mut) {
	t.Helper()
	for _, m := range muts {
		var err error
		if m.del {
			err = db.Delete(m.table, m.pk)
		} else {
			err = db.Insert(m.table, m.values)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// normResult renders a result including variance and interval bounds, so
// comparing strings compares every bit that reaches a caller.
func normResult(r deepdb.Result) string {
	var b strings.Builder
	for _, g := range r.Groups {
		fmt.Fprintf(&b, "%v %v %v %v %v %v; ", g.Key, g.Labels, g.Value, g.Variance, g.CILow, g.CIHigh)
	}
	return b.String()
}

// equivalenceWorkload spans the full compilation matrix: Case 1 (exact
// RSPN), Case 2 (superset RSPN), Case 3 (Theorem-2 combination under
// single-table-only), GROUP BY, disjunction and outer join, plus AVG/SUM.
var equivalenceWorkload = []query.Query{
	{Aggregate: query.Count, Tables: []string{"customer"},
		Filters: []query.Predicate{{Column: "c_age", Op: query.Lt, Value: 40}}},
	{Aggregate: query.Count, Tables: []string{"customer", "orders"},
		Filters: []query.Predicate{
			{Column: "c_age", Op: query.Lt, Value: 40},
			{Column: "o_amount", Op: query.Ge, Value: 50},
		}},
	{Aggregate: query.Count, Tables: []string{"customer"}, GroupBy: []string{"c_region"}},
	{Aggregate: query.Count, Tables: []string{"customer", "orders"},
		Disjunction: []query.Predicate{
			{Column: "c_age", Op: query.Lt, Value: 25},
			{Column: "o_amount", Op: query.Gt, Value: 80},
		}},
	{Aggregate: query.Count, Tables: []string{"customer", "orders"},
		OuterTables: []string{"orders"},
		Filters:     []query.Predicate{{Column: "c_age", Op: query.Lt, Value: 40}}},
	{Aggregate: query.Avg, AggColumn: "o_amount", Tables: []string{"orders"},
		Filters: []query.Predicate{{Column: "o_amount", Op: query.Ge, Value: 30}}},
	{Aggregate: query.Sum, AggColumn: "o_amount", Tables: []string{"customer", "orders"},
		Filters: []query.Predicate{{Column: "c_age", Op: query.Lt, Value: 40}}},
}

// TestFlushMatchesSyncBitwise is the equivalence bar of the async
// pipeline: after the same mutation stream, flushed-async and synchronous
// DBs must answer the full workload matrix bit-identically — across both
// ensemble shapes (Case 1/2 and the Theorem-2-only configuration).
func TestFlushMatchesSyncBitwise(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		opts []deepdb.Option
	}{
		{"ensemble", nil},
		{"single-table-only/theorem2", []deepdb.Option{deepdb.WithSingleTableOnly()}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			muts := mutationStream(120)
			base := append([]deepdb.Option{deepdb.WithMaxSamples(4000)}, tc.opts...)

			s1, d1 := fixture(1500, 31)
			syncDB, err := deepdb.LearnDataset(ctx, s1, d1,
				append([]deepdb.Option{deepdb.WithSyncUpdates()}, base...)...)
			if err != nil {
				t.Fatal(err)
			}
			s2, d2 := fixture(1500, 31)
			asyncDB, err := deepdb.LearnDataset(ctx, s2, d2, base...)
			if err != nil {
				t.Fatal(err)
			}
			defer asyncDB.Close()

			applyStream(t, syncDB, muts)
			applyStream(t, asyncDB, muts)
			if err := asyncDB.Flush(ctx); err != nil {
				t.Fatal(err)
			}
			if g := asyncDB.Generation(); g == 0 {
				t.Fatal("no snapshot was published")
			}
			st := asyncDB.UpdateStats()
			if st.Applied != st.Enqueued || st.QueueDepth != 0 || st.Errors != 0 {
				t.Fatalf("pipeline not drained cleanly: %+v", st)
			}

			for i, q := range equivalenceWorkload {
				a, err := syncDB.ExecuteQuery(ctx, q)
				if err != nil {
					t.Fatalf("query %d sync: %v", i, err)
				}
				b, err := asyncDB.ExecuteQuery(ctx, q)
				if err != nil {
					t.Fatalf("query %d async: %v", i, err)
				}
				if normResult(a) != normResult(b) {
					t.Fatalf("query %d mismatch\n  sync:  %v\n  async: %v", i, a, b)
				}
				ea, err := syncDB.EstimateCardinalityQuery(ctx, q)
				if err != nil {
					t.Fatalf("estimate %d sync: %v", i, err)
				}
				eb, err := asyncDB.EstimateCardinalityQuery(ctx, q)
				if err != nil {
					t.Fatalf("estimate %d async: %v", i, err)
				}
				if ea != eb {
					t.Fatalf("estimate %d mismatch: %+v != %+v", i, ea, eb)
				}
			}
			// Exact execution over the (flushed) snapshot tables agrees too:
			// the copy-on-write base tables carry the same rows.
			for _, sql := range []string{
				"SELECT COUNT(*) FROM orders",
				"SELECT COUNT(*) FROM customer JOIN orders WHERE o_amount >= 50",
			} {
				a, err := syncDB.Exact(ctx, sql)
				if err != nil {
					t.Fatal(err)
				}
				b, err := asyncDB.Exact(ctx, sql)
				if err != nil {
					t.Fatal(err)
				}
				if normResult(a) != normResult(b) {
					t.Fatalf("exact %s mismatch: %v != %v", sql, a, b)
				}
			}
		})
	}
}

// TestSnapshotIsolationUnderMutationStream: readers running Query,
// prepared Exec and ExecBatch while a writer streams mutations must never
// observe a torn state. Two assertions: (a) the two halves of an ExecBatch
// with identical bindings are bit-identical (one snapshot per execution);
// (b) every observed COUNT(*) equals the initial count plus a whole number
// of applied inserts (snapshots contain whole batches only).
func TestSnapshotIsolationUnderMutationStream(t *testing.T) {
	t.Parallel()
	ctx := context.Background()
	s, data := fixture(1500, 33)
	// Single-table models keep an unfiltered COUNT(*) exactly equal to the
	// maintained join size, which makes torn states detectable as
	// non-integer offsets.
	db, err := deepdb.LearnDataset(ctx, s, data,
		deepdb.WithMaxSamples(3000), deepdb.WithSingleTableOnly())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	initial, err := db.Query(ctx, "SELECT COUNT(*) FROM orders")
	if err != nil {
		t.Fatal(err)
	}
	n0 := initial.Scalar()

	const inserts = 300
	var stop atomic.Bool
	var wg sync.WaitGroup
	errc := make(chan error, 16)
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer stop.Store(true)
		for i := 0; i < inserts; i++ {
			err := db.Insert("orders", map[string]deepdb.Value{
				"o_id":     deepdb.Int(7_000_000 + i),
				"o_c_id":   deepdb.Int(i % 100),
				"o_amount": deepdb.Float(50),
			})
			if err != nil {
				errc <- fmt.Errorf("writer: %w", err)
				return
			}
			if i%50 == 49 {
				if err := db.Flush(ctx); err != nil {
					errc <- fmt.Errorf("writer flush: %w", err)
					return
				}
			}
		}
	}()

	stmt, err := db.Prepare("SELECT COUNT(*) FROM orders WHERE o_amount >= ?")
	if err != nil {
		t.Fatal(err)
	}
	checkCount := func(c float64) error {
		k := math.Round(c - n0)
		if k < 0 || k > inserts {
			return fmt.Errorf("count %v implies %v inserts (want 0..%d)", c, k, inserts)
		}
		if math.Abs(c-(n0+k)) > 1e-6 {
			return fmt.Errorf("count %v is not initial+whole-batches (n0=%v)", c, n0)
		}
		return nil
	}
	const readers = 6
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for !stop.Load() {
				res, err := db.Query(ctx, "SELECT COUNT(*) FROM orders")
				if err != nil {
					errc <- fmt.Errorf("reader %d query: %w", r, err)
					return
				}
				if err := checkCount(res.Scalar()); err != nil {
					errc <- fmt.Errorf("reader %d: %w", r, err)
					return
				}
				// Identical bindings inside one batch execute against one
				// snapshot: any divergence is a torn read.
				pair, err := stmt.ExecBatch(ctx, [][]any{{0}, {0}})
				if err != nil {
					errc <- fmt.Errorf("reader %d batch: %w", r, err)
					return
				}
				if normResult(pair[0]) != normResult(pair[1]) {
					errc <- fmt.Errorf("reader %d: torn ExecBatch: %v != %v", r, pair[0], pair[1])
					return
				}
				if _, err := stmt.Exec(ctx, 25); err != nil {
					errc <- fmt.Errorf("reader %d exec: %w", r, err)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if err := db.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	final, err := db.Query(ctx, "SELECT COUNT(*) FROM orders")
	if err != nil {
		t.Fatal(err)
	}
	if got := final.Scalar(); math.Abs(got-(n0+inserts)) > 1e-6 {
		t.Fatalf("final count %v, want %v", got, n0+inserts)
	}
}

// TestGenerationAndStmtInvalidationOnPublish: the generation moves per
// published batch (not per row), cached plans and pinned statement plans
// recompile on the next use, and UpdateStats reflects the pipeline.
func TestGenerationAndStmtInvalidationOnPublish(t *testing.T) {
	ctx := context.Background()
	s, data := fixture(1000, 34)
	db, err := deepdb.LearnDataset(ctx, s, data, deepdb.WithMaxSamples(2000))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	stmt, err := db.Prepare("SELECT COUNT(*) FROM orders WHERE o_amount >= ?")
	if err != nil {
		t.Fatal(err)
	}
	before, err := stmt.Estimate(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	gen0 := db.Generation()
	const rows = 150
	for i := 0; i < rows; i++ {
		err := db.Insert("orders", map[string]deepdb.Value{
			"o_id": deepdb.Int(8_000_000 + i), "o_c_id": deepdb.Int(i % 100), "o_amount": deepdb.Float(70),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	st := db.UpdateStats()
	if st.Applied != rows || st.Batches == 0 {
		t.Fatalf("stats = %+v", st)
	}
	genDelta := db.Generation() - gen0
	if genDelta != st.Batches {
		t.Fatalf("generation moved %d times for %d batches", genDelta, st.Batches)
	}
	if genDelta > rows {
		t.Fatalf("generation moved per row (%d times for %d rows)", genDelta, rows)
	}
	after, err := stmt.Estimate(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if after.Value <= before.Value {
		t.Fatalf("pinned statement served a stale snapshot: %v -> %v", before.Value, after.Value)
	}
}

// TestFlushDeliversApplyErrors: an asynchronous mutation that fails at
// apply time (unknown primary key) surfaces on the next Flush — once —
// while later mutations still apply.
func TestFlushDeliversApplyErrors(t *testing.T) {
	ctx := context.Background()
	s, data := fixture(800, 35)
	db, err := deepdb.LearnDataset(ctx, s, data, deepdb.WithMaxSamples(1600))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Delete("orders", 987654321); err != nil {
		t.Fatalf("async delete reported eagerly: %v", err)
	}
	if err := db.Insert("orders", map[string]deepdb.Value{
		"o_id": deepdb.Int(9_000_000), "o_c_id": deepdb.Int(1), "o_amount": deepdb.Float(10),
	}); err != nil {
		t.Fatal(err)
	}
	err = db.Flush(ctx)
	if err == nil || !strings.Contains(err.Error(), "no row with pk") {
		t.Fatalf("Flush = %v, want pk-not-found apply error", err)
	}
	if err := db.Flush(ctx); err != nil {
		t.Fatalf("second Flush = %v, want nil (error already delivered)", err)
	}
	st := db.UpdateStats()
	if st.Errors != 1 || st.LastError == "" {
		t.Fatalf("stats = %+v", st)
	}
	// The insert enqueued after the failing delete still landed.
	if err := db.Delete("orders", 9_000_000); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(ctx); err != nil {
		t.Fatalf("deleting the previously inserted row: %v", err)
	}
}

// TestSyncUpdateErrorGoesToTheWriter: under WithSyncUpdates a failing write
// returns its own apply error from the call itself, every time, while other
// goroutines hammer Flush and Save — they must never collect it in the
// writer's place, and nothing is left pending for a later Flush.
func TestSyncUpdateErrorGoesToTheWriter(t *testing.T) {
	ctx := context.Background()
	s, data := fixture(400, 37)
	db, err := deepdb.LearnDataset(ctx, s, data,
		deepdb.WithMaxSamples(800), deepdb.WithSyncUpdates(), deepdb.WithSingleTableOnly())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	stop, stolen := make(chan struct{}), make(chan error, 2)
	var wg sync.WaitGroup
	path := filepath.Join(t.TempDir(), "m.deepdb")
	for _, op := range []func() error{
		func() error { return db.Flush(ctx) },
		func() error { return db.Save(path) },
	} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					if err := op(); err != nil {
						stolen <- err
						return
					}
				}
			}
		}()
	}
	for i := 0; i < 150; i++ {
		if err := db.Delete("orders", float64(900_000_000+i)); err == nil {
			t.Fatalf("sync delete %d of an unknown pk returned nil: its error went elsewhere", i)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-stolen:
		t.Fatalf("a concurrent Flush/Save collected a sync writer's error: %v", err)
	default:
	}
	if err := db.Flush(ctx); err != nil {
		t.Fatalf("Flush after sync failures = %v, want nothing pending", err)
	}
}

// TestSyncUpdatesReadYourWrites: WithSyncUpdates applies before returning
// — no Flush needed — through the same queue as the default path (a batch
// of one operation), and Close still works.
func TestSyncUpdatesReadYourWrites(t *testing.T) {
	ctx := context.Background()
	s, data := fixture(800, 36)
	db, err := deepdb.LearnDataset(ctx, s, data,
		deepdb.WithMaxSamples(1600), deepdb.WithSyncUpdates(), deepdb.WithSingleTableOnly())
	if err != nil {
		t.Fatal(err)
	}
	before, err := db.Query(ctx, "SELECT COUNT(*) FROM orders")
	if err != nil {
		t.Fatal(err)
	}
	gen0 := db.Generation()
	if err := db.Insert("orders", map[string]deepdb.Value{
		"o_id": deepdb.Int(10_000_000), "o_c_id": deepdb.Int(0), "o_amount": deepdb.Float(5),
	}); err != nil {
		t.Fatal(err)
	}
	after, err := db.Query(ctx, "SELECT COUNT(*) FROM orders")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(after.Scalar()-before.Scalar()-1) > 1e-6 {
		t.Fatalf("sync insert not immediately visible: %v -> %v", before.Scalar(), after.Scalar())
	}
	if db.Generation() != gen0+1 {
		t.Fatalf("generation %d -> %d, want +1", gen0, db.Generation())
	}
	st := db.UpdateStats()
	if !st.SyncUpdates || st.Enqueued != 1 || st.Applied != 1 || st.Batches != 1 || st.QueueDepth != 0 {
		t.Fatalf("stats = %+v, want the sync write counted as one batch of one", st)
	}
	// A batch in which nothing applied must not publish a new (identical)
	// snapshot — that would only thrash plan caches.
	genBefore := db.Generation()
	if err := db.Delete("orders", 987654321); err == nil {
		t.Fatal("sync delete of unknown pk succeeded")
	}
	if db.Generation() != genBefore {
		t.Fatalf("fully-failed batch published a snapshot: gen %d -> %d", genBefore, db.Generation())
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// Close fences synchronous writers too.
	if err := db.Insert("orders", map[string]deepdb.Value{
		"o_id": deepdb.Int(10_000_001), "o_c_id": deepdb.Int(0), "o_amount": deepdb.Float(5),
	}); err == nil {
		t.Fatal("sync insert after Close succeeded")
	}
}

// TestUpdateGroupAtomicity: the rows of one Update call are never split
// across published snapshots — concurrent readers only ever see whole
// multiples of the group size. (The strict case, a batch cap of one
// operation, is TestGroupsNeverSplitAtMaxBatchOne in writer_test.go.)
func TestUpdateGroupAtomicity(t *testing.T) {
	t.Parallel()
	ctx := context.Background()
	s, data := fixture(1200, 38)
	db, err := deepdb.LearnDataset(ctx, s, data,
		deepdb.WithMaxSamples(2400), deepdb.WithSingleTableOnly())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	initial, err := db.Query(ctx, "SELECT COUNT(*) FROM orders")
	if err != nil {
		t.Fatal(err)
	}
	n0 := initial.Scalar()
	const (
		groups    = 20
		groupSize = 20
	)
	var stop atomic.Bool
	var wg sync.WaitGroup
	errc := make(chan error, 8)
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer stop.Store(true)
		for g := 0; g < groups; g++ {
			rows := make([]deepdb.Row, groupSize)
			for i := range rows {
				rows[i] = deepdb.Row{Table: "orders", Values: map[string]deepdb.Value{
					"o_id":     deepdb.Int(12_000_000 + g*groupSize + i),
					"o_c_id":   deepdb.Int(i % 100),
					"o_amount": deepdb.Float(42),
				}}
			}
			if err := db.Update(rows...); err != nil {
				errc <- err
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			res, err := db.Query(ctx, "SELECT COUNT(*) FROM orders")
			if err != nil {
				errc <- err
				return
			}
			k := res.Scalar() - n0
			if rem := math.Mod(math.Round(k), groupSize); rem != 0 {
				errc <- fmt.Errorf("observed a torn Update: count offset %v is not a multiple of %d", k, groupSize)
				return
			}
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if err := db.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	final, err := db.Query(ctx, "SELECT COUNT(*) FROM orders")
	if err != nil {
		t.Fatal(err)
	}
	if got := final.Scalar(); math.Abs(got-(n0+groups*groupSize)) > 1e-6 {
		t.Fatalf("final count %v, want %v", got, n0+groups*groupSize)
	}
}

// TestUpdatesAfterCloseFail: Close drains the pipeline; later mutations
// are rejected while queries keep serving the last snapshot, and a second
// Close is a no-op.
func TestUpdatesAfterCloseFail(t *testing.T) {
	ctx := context.Background()
	s, data := fixture(800, 37)
	db, err := deepdb.LearnDataset(ctx, s, data, deepdb.WithMaxSamples(1600))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("orders", map[string]deepdb.Value{
		"o_id": deepdb.Int(11_000_000), "o_c_id": deepdb.Int(0), "o_amount": deepdb.Float(5),
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	st := db.UpdateStats()
	if st.Applied != 1 {
		t.Fatalf("Close did not drain: %+v", st)
	}
	if err := db.Insert("orders", map[string]deepdb.Value{
		"o_id": deepdb.Int(11_000_001), "o_c_id": deepdb.Int(0), "o_amount": deepdb.Float(5),
	}); err == nil {
		t.Fatal("insert after Close succeeded")
	}
	if _, err := db.Query(ctx, "SELECT COUNT(*) FROM orders"); err != nil {
		t.Fatalf("query after Close: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("second Close = %v, want nil", err)
	}
}
