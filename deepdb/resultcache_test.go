package deepdb_test

// resultcache_test.go is the correctness suite of the cross-query result
// cache: a cache hit must be bit-identical to the evaluation it skipped, a
// published snapshot (update batch, Reload, re-learn hot-swap) must
// invalidate every earlier entry, and confidence-level variants must never
// share entries. Everything compares Float64bits, not approximate
// equality: the cache's contract is "the same bits, faster".

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"testing"

	"repro/deepdb"
)

// cachedWorkload exercises every query class the cache key must
// distinguish: point and range filters, joins, IN lists (whose value count
// is invisible in the plan shape), disjunctions, GROUP BY and AVG/SUM.
var cachedWorkload = []string{
	"SELECT COUNT(*) FROM customer WHERE c_region = 'EU'",
	"SELECT COUNT(*) FROM customer WHERE c_age >= 30 AND c_age < 50",
	"SELECT COUNT(*) FROM customer JOIN orders WHERE c_age >= 40",
	"SELECT COUNT(*) FROM customer WHERE c_region IN ('EU')",
	"SELECT COUNT(*) FROM customer WHERE c_region IN ('EU', 'ASIA')",
	"SELECT COUNT(*) FROM customer WHERE (c_age < 25 OR c_age >= 60)",
	"SELECT AVG(o_amount) FROM orders",
	"SELECT SUM(o_amount) FROM customer JOIN orders WHERE c_region = 'EU'",
	"SELECT COUNT(*) FROM customer GROUP BY c_region",
	"SELECT AVG(o_amount) FROM customer JOIN orders GROUP BY c_region",
}

// bitsOfResult renders a Result to an exact, comparison-stable string:
// every float64 by its bit pattern, keys and labels verbatim.
func bitsOfResult(r deepdb.Result) string {
	out := ""
	for _, g := range r.Groups {
		out += fmt.Sprintf("key=%v labels=%v v=%x var=%x lo=%x hi=%x\n",
			g.Key, g.Labels,
			math.Float64bits(g.Value), math.Float64bits(g.Variance),
			math.Float64bits(g.CILow), math.Float64bits(g.CIHigh))
	}
	return out
}

func bitsOfEstimate(e deepdb.Estimate) string {
	return fmt.Sprintf("v=%x var=%x lo=%x hi=%x",
		math.Float64bits(e.Value), math.Float64bits(e.Variance),
		math.Float64bits(e.CILow), math.Float64bits(e.CIHigh))
}

// TestResultCacheHitBitwise: with the cache on, the second execution of
// every workload query (a hit) returns exactly the bits of the first (the
// miss that populated it) — and exactly the bits an uncached DB over the
// same model produces. Covers Query, prepared Exec, and Estimate.
func TestResultCacheHitBitwise(t *testing.T) {
	ctx := context.Background()
	s, data := fixture(2000, 7)
	plain, err := deepdb.LearnDataset(ctx, s, data, deepdb.WithMaxSamples(4000))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.deepdb")
	if err := plain.Save(path); err != nil {
		t.Fatal(err)
	}
	cached, err := deepdb.Open(ctx, path, deepdb.WithResultCacheSize(128))
	if err != nil {
		t.Fatal(err)
	}
	uncached, err := deepdb.Open(ctx, path)
	if err != nil {
		t.Fatal(err)
	}
	for _, sql := range cachedWorkload {
		miss, err := cached.Query(ctx, sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		hit, err := cached.Query(ctx, sql)
		if err != nil {
			t.Fatalf("%s (hit): %v", sql, err)
		}
		ref, err := uncached.Query(ctx, sql)
		if err != nil {
			t.Fatalf("%s (uncached): %v", sql, err)
		}
		if bitsOfResult(hit) != bitsOfResult(miss) {
			t.Fatalf("%s: hit differs from populating miss\n  miss: %v\n  hit:  %v", sql, miss, hit)
		}
		if bitsOfResult(hit) != bitsOfResult(ref) {
			t.Fatalf("%s: cached differs from uncached\n  uncached: %v\n  cached:   %v", sql, ref, hit)
		}
	}
	// Prepared-statement executions share the same cache (and the same
	// entries as the equivalent literal SQL would, keyed by shape+values).
	stmt, err := cached.Prepare("SELECT COUNT(*) FROM customer JOIN orders WHERE c_age < ? AND c_region = ?")
	if err != nil {
		t.Fatal(err)
	}
	miss, err := stmt.Exec(ctx, 40, "EU")
	if err != nil {
		t.Fatal(err)
	}
	hit, err := stmt.Exec(ctx, 40, "EU")
	if err != nil {
		t.Fatal(err)
	}
	if bitsOfResult(miss) != bitsOfResult(hit) {
		t.Fatalf("prepared hit differs from miss: %v != %v", miss, hit)
	}
	// Different bound values must not collide.
	other, err := stmt.Exec(ctx, 41, "EU")
	if err != nil {
		t.Fatal(err)
	}
	if bitsOfResult(other) == bitsOfResult(miss) {
		t.Fatalf("distinct bindings returned identical result: %v", other)
	}
	// Cardinality estimates cache in their own namespace.
	const estSQL = "SELECT COUNT(*) FROM customer JOIN orders WHERE c_age < 40"
	e1, err := cached.EstimateCardinality(ctx, estSQL)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := cached.EstimateCardinality(ctx, estSQL)
	if err != nil {
		t.Fatal(err)
	}
	eRef, err := uncached.EstimateCardinality(ctx, estSQL)
	if err != nil {
		t.Fatal(err)
	}
	if bitsOfEstimate(e1) != bitsOfEstimate(e2) || bitsOfEstimate(e1) != bitsOfEstimate(eRef) {
		t.Fatalf("estimate caching not bit-identical: %v / %v / %v", e1, e2, eRef)
	}
}

// TestResultCacheCounters: hits, misses, evictions and entry counts are
// observable through UpdateStats and ResultCacheLen, and the LRU bound
// holds under overflow.
func TestResultCacheCounters(t *testing.T) {
	ctx := context.Background()
	s, data := fixture(1200, 8)
	db, err := deepdb.LearnDataset(ctx, s, data,
		deepdb.WithMaxSamples(3000), deepdb.WithResultCacheSize(4))
	if err != nil {
		t.Fatal(err)
	}
	const sql = "SELECT COUNT(*) FROM customer WHERE c_region = 'EU'"
	if _, err := db.Query(ctx, sql); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query(ctx, sql); err != nil {
		t.Fatal(err)
	}
	st := db.UpdateStats()
	if st.ResultCacheMisses == 0 || st.ResultCacheHits == 0 {
		t.Fatalf("counters not moving: %+v", st)
	}
	if st.ResultCacheSize != db.ResultCacheLen() || st.ResultCacheSize == 0 {
		t.Fatalf("size mismatch: stats %d, len %d", st.ResultCacheSize, db.ResultCacheLen())
	}
	// Overflow the 4-entry bound with distinct queries; the cache must
	// evict (counted) and stay bounded.
	stmt, err := db.Prepare("SELECT COUNT(*) FROM customer WHERE c_age < ?")
	if err != nil {
		t.Fatal(err)
	}
	for age := 20; age < 40; age++ {
		if _, err := stmt.Exec(ctx, age); err != nil {
			t.Fatal(err)
		}
	}
	st = db.UpdateStats()
	if st.ResultCacheEvictions == 0 {
		t.Fatalf("no evictions after overflow: %+v", st)
	}
	if n := db.ResultCacheLen(); n > 4+7 {
		// Per-shard capacity is the ceiling of cap/ways, so the bound may
		// round up by at most ways-1 entries across shards.
		t.Fatalf("cache size %d exceeds configured bound", n)
	}
	// Plan-cache counters move on the same workload (observability parity).
	if st.PlanCacheMisses == 0 || st.PlanCacheSize == 0 {
		t.Fatalf("plan cache counters not populated: %+v", st)
	}
}

// TestResultCacheInvalidation: a published snapshot — asynchronous
// Insert/Delete batches and a hot Reload — must invalidate earlier
// entries, so post-publish queries return exactly what an uncached DB
// returns (never the pre-publish bits).
func TestResultCacheInvalidation(t *testing.T) {
	ctx := context.Background()
	s, data := fixture(1500, 9)
	cached, err := deepdb.LearnDataset(ctx, s, data,
		deepdb.WithMaxSamples(3000), deepdb.WithResultCacheSize(64))
	if err != nil {
		t.Fatal(err)
	}
	s2, data2 := fixture(1500, 9)
	uncached, err := deepdb.LearnDataset(ctx, s2, data2, deepdb.WithMaxSamples(3000))
	if err != nil {
		t.Fatal(err)
	}
	// Single-table so the inserted row below provably moves the estimate.
	const sql = "SELECT COUNT(*) FROM customer WHERE c_age >= 40"
	before, err := cached.Query(ctx, sql)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cached.Query(ctx, sql); err != nil { // seed a hit
		t.Fatal(err)
	}
	mutate := func(db *deepdb.DB, pk int) {
		t.Helper()
		err := db.Insert("customer", map[string]deepdb.Value{
			"c_id": deepdb.Int(pk), "c_age": deepdb.Int(45), "c_region": deepdb.Int(0),
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Flush(ctx); err != nil {
			t.Fatal(err)
		}
	}
	mutate(cached, 1<<20)
	mutate(uncached, 1<<20)
	after, err := cached.Query(ctx, sql)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := uncached.Query(ctx, sql)
	if err != nil {
		t.Fatal(err)
	}
	if bitsOfResult(after) != bitsOfResult(ref) {
		t.Fatalf("post-insert cached result is stale\n  cached:   %v\n  uncached: %v", after, ref)
	}
	if bitsOfResult(after) == bitsOfResult(before) {
		t.Fatalf("insert of a matching row did not change the estimate: %v", after)
	}
	// Deletes publish through the same pipeline and must invalidate too.
	if err := cached.Delete("customer", float64(1<<20)); err != nil {
		t.Fatal(err)
	}
	if err := uncached.Delete("customer", float64(1<<20)); err != nil {
		t.Fatal(err)
	}
	if err := cached.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if err := uncached.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	afterDel, err := cached.Query(ctx, sql)
	if err != nil {
		t.Fatal(err)
	}
	refDel, err := uncached.Query(ctx, sql)
	if err != nil {
		t.Fatal(err)
	}
	if bitsOfResult(afterDel) != bitsOfResult(refDel) {
		t.Fatalf("post-delete cached result is stale\n  cached:   %v\n  uncached: %v", afterDel, refDel)
	}
}

// TestResultCacheReloadInvalidation: a hot model swap via Reload publishes
// a new generation, so queries after the swap serve the new model's bits,
// never a cached result of the old one.
func TestResultCacheReloadInvalidation(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	sA, dataA := fixture(1200, 10)
	dbA, err := deepdb.LearnDataset(ctx, sA, dataA, deepdb.WithMaxSamples(3000))
	if err != nil {
		t.Fatal(err)
	}
	pathA := filepath.Join(dir, "a.deepdb")
	if err := dbA.Save(pathA); err != nil {
		t.Fatal(err)
	}
	sB, dataB := fixture(2400, 11) // different data -> different estimates
	dbB, err := deepdb.LearnDataset(ctx, sB, dataB, deepdb.WithMaxSamples(3000))
	if err != nil {
		t.Fatal(err)
	}
	pathB := filepath.Join(dir, "b.deepdb")
	if err := dbB.Save(pathB); err != nil {
		t.Fatal(err)
	}

	db, err := deepdb.Open(ctx, pathA, deepdb.WithResultCacheSize(64))
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := deepdb.Open(ctx, pathB)
	if err != nil {
		t.Fatal(err)
	}
	const sql = "SELECT COUNT(*) FROM customer WHERE c_region = 'EU'"
	if _, err := db.Query(ctx, sql); err != nil { // populate under model A
		t.Fatal(err)
	}
	if err := db.Reload(pathB); err != nil {
		t.Fatal(err)
	}
	got, err := db.Query(ctx, sql)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Query(ctx, sql)
	if err != nil {
		t.Fatal(err)
	}
	if bitsOfResult(got) != bitsOfResult(want) {
		t.Fatalf("post-reload result not the new model's\n  got:  %v\n  want: %v", got, want)
	}
}

// TestResultCacheConfidenceVariants: the effective confidence level is part
// of the cache key, so an AtConfidence variant never reads an entry written
// at another level — its interval bounds must match an uncached execution
// at that level exactly.
func TestResultCacheConfidenceVariants(t *testing.T) {
	ctx := context.Background()
	s, data := fixture(1500, 12)
	cached, err := deepdb.LearnDataset(ctx, s, data,
		deepdb.WithMaxSamples(3000), deepdb.WithResultCacheSize(64))
	if err != nil {
		t.Fatal(err)
	}
	s2, data2 := fixture(1500, 12)
	plain, err := deepdb.LearnDataset(ctx, s2, data2, deepdb.WithMaxSamples(3000))
	if err != nil {
		t.Fatal(err)
	}
	const sql = "SELECT COUNT(*) FROM customer JOIN orders WHERE c_age >= 40"
	// Populate at the default level, then query at 0.8: the cached default
	// entry must not answer it.
	defFirst, err := cached.Query(ctx, sql)
	if err != nil {
		t.Fatal(err)
	}
	got, err := cached.Query(ctx, sql, deepdb.AtConfidence(0.8))
	if err != nil {
		t.Fatal(err)
	}
	want, err := plain.Query(ctx, sql, deepdb.AtConfidence(0.8))
	if err != nil {
		t.Fatal(err)
	}
	if bitsOfResult(got) != bitsOfResult(want) {
		t.Fatalf("AtConfidence(0.8) served another level's entry\n  got:  %v\n  want: %v", got, want)
	}
	// Sensitivity check: the two levels really produce different interval
	// bits, so the assertion above cannot pass vacuously.
	if math.Float64bits(got.Groups[0].CILow) == math.Float64bits(defFirst.Groups[0].CILow) {
		t.Fatalf("degenerate fixture: 0.8 and default level share CI bits")
	}
	// And back at the default level the original bits still come out.
	def, err := cached.Query(ctx, sql)
	if err != nil {
		t.Fatal(err)
	}
	refDef, err := plain.Query(ctx, sql)
	if err != nil {
		t.Fatal(err)
	}
	if bitsOfResult(def) != bitsOfResult(refDef) {
		t.Fatalf("default level polluted by AtConfidence variant\n  got:  %v\n  want: %v", def, refDef)
	}
}

// TestResultCacheExecBatchPartialHits: a batch whose entries are partly
// cached executes only the misses, and the merged output is bit-identical
// to the same batch on an uncached DB.
func TestResultCacheExecBatchPartialHits(t *testing.T) {
	ctx := context.Background()
	s, data := fixture(1500, 13)
	plainDB, err := deepdb.LearnDataset(ctx, s, data, deepdb.WithMaxSamples(3000))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.deepdb")
	if err := plainDB.Save(path); err != nil {
		t.Fatal(err)
	}
	cached, err := deepdb.Open(ctx, path, deepdb.WithResultCacheSize(64))
	if err != nil {
		t.Fatal(err)
	}
	uncached, err := deepdb.Open(ctx, path)
	if err != nil {
		t.Fatal(err)
	}
	const tmpl = "SELECT COUNT(*) FROM customer JOIN orders WHERE c_age < ?"
	sc, err := cached.Prepare(tmpl)
	if err != nil {
		t.Fatal(err)
	}
	su, err := uncached.Prepare(tmpl)
	if err != nil {
		t.Fatal(err)
	}
	// Pre-warm half the batch through single executions.
	for _, age := range []int{30, 50} {
		if _, err := sc.Exec(ctx, age); err != nil {
			t.Fatal(err)
		}
	}
	batch := [][]any{{25}, {30}, {40}, {50}, {60}}
	got, err := sc.ExecBatch(ctx, batch)
	if err != nil {
		t.Fatal(err)
	}
	want, err := su.ExecBatch(ctx, batch)
	if err != nil {
		t.Fatal(err)
	}
	for i := range batch {
		if bitsOfResult(got[i]) != bitsOfResult(want[i]) {
			t.Fatalf("batch entry %d mismatch\n  cached:   %v\n  uncached: %v", i, got[i], want[i])
		}
	}
	// A fully-hot batch must match too.
	again, err := sc.ExecBatch(ctx, batch)
	if err != nil {
		t.Fatal(err)
	}
	for i := range batch {
		if bitsOfResult(again[i]) != bitsOfResult(want[i]) {
			t.Fatalf("hot batch entry %d mismatch", i)
		}
	}
}

// TestResultCacheSignedZeroAndNaN: `x = 0` and `x = -0` are one predicate
// (the tokenizer, JSON params and Go arguments can all produce -0), so
// they share one entry — one miss, then hits — with the bits an uncached
// DB computes for either spelling. A NaN argument is rejected when it is
// bound, before it can be counted or cached under a key that never hits.
func TestResultCacheSignedZeroAndNaN(t *testing.T) {
	ctx := context.Background()
	s, data := fixture(1200, 8)
	db, err := deepdb.LearnDataset(ctx, s, data,
		deepdb.WithMaxSamples(3000), deepdb.WithResultCacheSize(64))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "m.deepdb")
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	plain, err := deepdb.Open(ctx, path)
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()

	pos, err := db.Query(ctx, "SELECT COUNT(*) FROM customer WHERE c_age >= 0")
	if err != nil {
		t.Fatal(err)
	}
	neg, err := db.Query(ctx, "SELECT COUNT(*) FROM customer WHERE c_age >= -0")
	if err != nil {
		t.Fatal(err)
	}
	stmt, err := db.Prepare("SELECT COUNT(*) FROM customer WHERE c_age >= ?")
	if err != nil {
		t.Fatal(err)
	}
	bound, err := stmt.Exec(ctx, math.Copysign(0, -1))
	if err != nil {
		t.Fatal(err)
	}
	want, err := plain.Query(ctx, "SELECT COUNT(*) FROM customer WHERE c_age >= -0")
	if err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string]deepdb.Result{"0": pos, "-0": neg, "bound -0": bound} {
		if bitsOfResult(got) != bitsOfResult(want) {
			t.Fatalf("%s: cached DB answered\n%s, uncached -0 answers\n%s", name, bitsOfResult(got), bitsOfResult(want))
		}
	}
	st := db.UpdateStats()
	if st.ResultCacheMisses != 1 || st.ResultCacheHits != 2 || db.ResultCacheLen() != 1 {
		t.Fatalf("0 and -0 did not share one entry: misses %d, hits %d, entries %d; want 1, 2, 1",
			st.ResultCacheMisses, st.ResultCacheHits, db.ResultCacheLen())
	}

	for _, nan := range []any{math.NaN(), float32(math.NaN())} {
		if _, err := stmt.Exec(ctx, nan); err == nil {
			t.Fatalf("Exec accepted a %T NaN", nan)
		}
		if _, err := stmt.Estimate(ctx, nan); err == nil {
			t.Fatalf("Estimate accepted a %T NaN", nan)
		}
		if _, err := stmt.ExecBatch(ctx, [][]any{{30}, {nan}}); err == nil {
			t.Fatalf("ExecBatch accepted a %T NaN", nan)
		}
	}
	after := db.UpdateStats()
	if after.ResultCacheMisses != st.ResultCacheMisses || db.ResultCacheLen() != 1 {
		t.Fatalf("a rejected NaN reached the cache: misses %d -> %d, entries %d",
			st.ResultCacheMisses, after.ResultCacheMisses, db.ResultCacheLen())
	}
}
