package deepdb_test

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/deepdb"
	"repro/internal/query"
)

// TestPreparedMatchesOneShot: Stmt.Exec on a cached plan returns estimates
// bit-identical to the equivalent one-shot call, across parameter values
// and classes (numeric comparison, string equality, join + Theorem 2).
func TestPreparedMatchesOneShot(t *testing.T) {
	ctx := context.Background()
	s, data := fixture(2000, 41)
	db, err := deepdb.LearnDataset(ctx, s, data,
		deepdb.WithMaxSamples(4000), deepdb.WithSingleTableOnly())
	if err != nil {
		t.Fatal(err)
	}
	stmt, err := db.Prepare(
		"SELECT COUNT(*) FROM customer JOIN orders WHERE c_age < ? AND c_region = ? AND o_amount >= ?")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		age    int
		region string
		amount float64
	}{{30, "EU", 20}, {50, "ASIA", 50}, {70, "EU", 80}} {
		prepared, err := stmt.Estimate(ctx, tc.age, tc.region, tc.amount)
		if err != nil {
			t.Fatal(err)
		}
		sql := fmt.Sprintf(
			"SELECT COUNT(*) FROM customer JOIN orders WHERE c_age < %d AND c_region = '%s' AND o_amount >= %g",
			tc.age, tc.region, tc.amount)
		oneShot, err := db.EstimateCardinality(ctx, sql)
		if err != nil {
			t.Fatal(err)
		}
		if prepared != oneShot {
			t.Fatalf("%+v: prepared %+v != one-shot %+v", tc, prepared, oneShot)
		}
		// Exec (the AQP view of the COUNT) must agree with Query too.
		execRes, err := stmt.Exec(ctx, tc.age, tc.region, tc.amount)
		if err != nil {
			t.Fatal(err)
		}
		queryRes, err := db.Query(ctx, sql)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(execRes) != fmt.Sprint(queryRes) {
			t.Fatalf("%+v: Exec %v != Query %v", tc, execRes, queryRes)
		}
	}
}

// TestExecBatch runs one statement over many parameter sets and must agree
// with individual Execs, order-preserved.
func TestExecBatch(t *testing.T) {
	ctx := context.Background()
	s, data := fixture(1500, 42)
	db, err := deepdb.LearnDataset(ctx, s, data,
		deepdb.WithMaxSamples(3000))
	if err != nil {
		t.Fatal(err)
	}
	stmt, err := db.Prepare("SELECT COUNT(*) FROM orders WHERE o_amount >= ?")
	if err != nil {
		t.Fatal(err)
	}
	batch := [][]any{{10.0}, {30.0}, {50.0}, {70.0}, {90.0}}
	results, err := stmt.ExecBatch(ctx, batch)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(batch) {
		t.Fatalf("got %d results for %d sets", len(results), len(batch))
	}
	for i, params := range batch {
		single, err := stmt.Exec(ctx, params...)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(results[i]) != fmt.Sprint(single) {
			t.Fatalf("batch[%d] %v != single %v", i, results[i], single)
		}
	}
	if _, err := stmt.ExecBatch(ctx, [][]any{{1.0}, {}}); err == nil ||
		!strings.Contains(err.Error(), "batch entry 1") {
		t.Fatalf("bad batch entry: err = %v, want entry-indexed arity error", err)
	}
}

// TestPrepareAndExecErrors covers the error paths of the prepared API:
// malformed SQL, unknown columns and tables, wrong placeholder arity,
// unsupported parameter types and unresolvable string parameters.
func TestPrepareAndExecErrors(t *testing.T) {
	ctx := context.Background()
	s, data := fixture(800, 43)
	db, err := deepdb.LearnDataset(ctx, s, data, deepdb.WithMaxSamples(1500))
	if err != nil {
		t.Fatal(err)
	}
	for _, sql := range []string{
		"SELECT",
		"SELECT COUNT(*) FROM",
		"SELECT COUNT(*) FROM nowhere",
		"SELECT COUNT(*) FROM customer WHERE c_age ~ 1",
		"SELECT COUNT(*) FROM customer WHERE no_such_col = 'EU'",
		"SELECT COUNT(*) FROM customer WHERE c_age IN (1, ?)",
	} {
		if _, err := db.Prepare(sql); err == nil {
			t.Errorf("Prepare(%q) should fail", sql)
		}
	}
	// An aggregate no RSPN can resolve compiles as a plan whose execution
	// can never succeed; Prepare must fail eagerly, not on first Exec.
	if _, err := db.Prepare("SELECT AVG(c_id2) FROM customer"); err == nil {
		t.Error("Prepare with unresolvable aggregate column should fail")
	}
	stmt, err := db.Prepare("SELECT COUNT(*) FROM customer WHERE c_age < ? AND c_region = ?")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := stmt.Exec(ctx, 40); err == nil || !strings.Contains(err.Error(), "placeholder") {
		t.Fatalf("arity error = %v, want placeholder-count message", err)
	}
	if _, err := stmt.Exec(ctx, 40, "EU", 7); err == nil {
		t.Fatal("too many parameters must fail")
	}
	if _, err := stmt.Exec(ctx, 40, []byte("EU")); err == nil ||
		!strings.Contains(err.Error(), "unsupported type") {
		t.Fatalf("type error = %v, want unsupported-type message", err)
	}
	if _, err := stmt.Exec(ctx, 40, "ATLANTIS"); err == nil ||
		!strings.Contains(err.Error(), "not found") {
		t.Fatalf("unknown literal = %v, want not-found message", err)
	}
	// A numeric parameter for a string column is allowed (it is the code);
	// a string parameter for a numeric column must fail cleanly.
	if _, err := stmt.Exec(ctx, "forty", "EU"); err == nil {
		t.Fatal("string parameter on numeric column must fail")
	}
}

// TestNaNLiteralRejected: a programmatically built query with a NaN
// literal — a bound, an equality, an IN element, a disjunct — is an error
// on every entry point that takes a query.Query, where it used to answer
// "every row" or "no row". The must-fail twin: the same query with a
// finite literal answers.
func TestNaNLiteralRejected(t *testing.T) {
	ctx := context.Background()
	s, data := fixture(800, 45)
	db, err := deepdb.LearnDataset(ctx, s, data, deepdb.WithMaxSamples(1500))
	if err != nil {
		t.Fatal(err)
	}
	nan := math.NaN()
	for _, tc := range []struct {
		name string
		q    func(v float64) query.Query
	}{
		{"le", func(v float64) query.Query {
			return query.Query{Aggregate: query.Count, Tables: []string{"customer"},
				Filters: []query.Predicate{{Column: "c_age", Op: query.Le, Value: v}}}
		}},
		{"eq-grouped", func(v float64) query.Query {
			return query.Query{Aggregate: query.Count, Tables: []string{"customer", "orders"}, GroupBy: []string{"c_region"},
				Filters: []query.Predicate{{Column: "c_age", Op: query.Eq, Value: v}}}
		}},
		{"in-element", func(v float64) query.Query {
			return query.Query{Aggregate: query.Avg, AggColumn: "o_amount", Tables: []string{"customer", "orders"},
				Filters: []query.Predicate{{Column: "c_age", Op: query.In, Values: []float64{30, v}}}}
		}},
		{"disjunct", func(v float64) query.Query {
			return query.Query{Aggregate: query.Count, Tables: []string{"customer"},
				Disjunction: []query.Predicate{{Column: "c_age", Op: query.Lt, Value: 25}, {Column: "c_age", Op: query.Gt, Value: v}}}
		}},
	} {
		if _, err := db.ExecuteQuery(ctx, tc.q(nan)); err == nil || !strings.Contains(err.Error(), "NaN") {
			t.Errorf("%s: ExecuteQuery with NaN: err = %v, want NaN error", tc.name, err)
		}
		if _, err := db.EstimateCardinalityQuery(ctx, tc.q(nan)); err == nil || !strings.Contains(err.Error(), "NaN") {
			t.Errorf("%s: EstimateCardinalityQuery with NaN: err = %v, want NaN error", tc.name, err)
		}
		res, err := db.ExecuteQuery(ctx, tc.q(40))
		if err != nil {
			t.Fatalf("%s: ExecuteQuery with a finite literal: %v", tc.name, err)
		}
		if len(res.Groups) == 0 {
			t.Fatalf("%s: a finite literal answered no rows", tc.name)
		}
		if _, err := db.EstimateCardinalityQuery(ctx, tc.q(40)); err != nil {
			t.Fatalf("%s: EstimateCardinalityQuery with a finite literal: %v", tc.name, err)
		}
	}
}

// TestPlanCacheReuseAndInvalidation: repeated one-shot queries of one
// shape share a cache entry; Insert/Delete invalidate it (visible through
// a GROUP BY whose key set changes with the data).
func TestPlanCacheReuseAndInvalidation(t *testing.T) {
	ctx := context.Background()
	s, data := fixture(1200, 44)
	db, err := deepdb.LearnDataset(ctx, s, data, deepdb.WithMaxSamples(2500))
	if err != nil {
		t.Fatal(err)
	}
	// Same shape, different literals: one plan.
	for _, v := range []int{20, 30, 40, 50} {
		sql := fmt.Sprintf("SELECT COUNT(*) FROM customer WHERE c_age < %d", v)
		if _, err := db.EstimateCardinality(ctx, sql); err != nil {
			t.Fatal(err)
		}
	}
	if n := db.PlanCacheLen(); n != 1 {
		t.Fatalf("plan cache holds %d plans after 4 same-shape queries, want 1", n)
	}
	const groupSQL = "SELECT COUNT(*) FROM customer GROUP BY c_region"
	before, err := db.Query(ctx, groupSQL)
	if err != nil {
		t.Fatal(err)
	}
	// Insert rows with a region code the dictionary lacks. The group keys
	// were enumerated at compile time, so a stale cached plan would keep
	// answering with the old group set.
	const newCode = 2
	for i := 0; i < 50; i++ {
		err := db.Insert("customer", map[string]deepdb.Value{
			"c_id":     deepdb.Int(1_000_000 + i),
			"c_age":    deepdb.Int(30),
			"c_region": deepdb.Int(newCode),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	// Updates are asynchronous by default; Flush publishes them (and any
	// apply error) before we look.
	if err := db.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	after, err := db.Query(ctx, groupSQL)
	if err != nil {
		t.Fatal(err)
	}
	if len(after.Groups) != len(before.Groups)+1 {
		t.Fatalf("after insert: %d groups, want %d (stale cached plan?)",
			len(after.Groups), len(before.Groups)+1)
	}
	// The model's dictionary has no label for the new code, so its group
	// is rendered by the code itself.
	found := false
	for _, g := range after.Groups {
		if len(g.Key) == 1 && g.Key[0] == newCode && len(g.Labels) == 1 && g.Labels[0] == "2" {
			found = true
		}
	}
	if !found {
		t.Fatalf("new group (key 2, label \"2\") missing: %v", after.Groups)
	}
}

// TestPreparedStmtSurvivesUpdates: a Stmt prepared before an Insert keeps
// answering (its pinned plan is recompiled on the next Exec) and reflects
// the new data.
func TestPreparedStmtSurvivesUpdates(t *testing.T) {
	ctx := context.Background()
	s, data := fixture(1000, 45)
	db, err := deepdb.LearnDataset(ctx, s, data, deepdb.WithMaxSamples(2000))
	if err != nil {
		t.Fatal(err)
	}
	stmt, err := db.Prepare("SELECT COUNT(*) FROM orders WHERE o_amount >= ?")
	if err != nil {
		t.Fatal(err)
	}
	before, err := stmt.Estimate(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		err := db.Insert("orders", map[string]deepdb.Value{
			"o_id":     deepdb.Int(2_000_000 + i),
			"o_c_id":   deepdb.Int(i % 100),
			"o_amount": deepdb.Float(55),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	after, err := stmt.Estimate(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if after.Value <= before.Value {
		t.Fatalf("estimate did not grow after 200 inserts: %v -> %v", before.Value, after.Value)
	}
}

// TestConcurrentPrepareExecUpdate: many goroutines prepare, execute
// (single and batch) and update one *DB concurrently under -race; all
// operations must succeed.
func TestConcurrentPrepareExecUpdate(t *testing.T) {
	t.Parallel()
	ctx := context.Background()
	s, data := fixture(1500, 46)
	db, err := deepdb.LearnDataset(ctx, s, data,
		deepdb.WithMaxSamples(3000))
	if err != nil {
		t.Fatal(err)
	}
	shared, err := db.Prepare("SELECT COUNT(*) FROM customer JOIN orders WHERE c_age < ? AND o_amount >= ?")
	if err != nil {
		t.Fatal(err)
	}
	const (
		writers = 3
		readers = 6
		iters   = 20
	)
	var wg sync.WaitGroup
	errc := make(chan error, writers+readers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				err := db.Update(deepdb.Row{Table: "orders", Values: map[string]deepdb.Value{
					"o_id":     deepdb.Int(3_000_000 + w*iters + i),
					"o_c_id":   deepdb.Int(i % 50),
					"o_amount": deepdb.Float(42),
				}})
				if err != nil {
					errc <- fmt.Errorf("writer %d: %w", w, err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				switch i % 3 {
				case 0:
					if _, err := shared.Exec(ctx, 30+i, float64(i)); err != nil {
						errc <- fmt.Errorf("reader %d shared exec: %w", r, err)
						return
					}
				case 1:
					own, err := db.Prepare("SELECT AVG(o_amount) FROM orders WHERE o_amount >= ?")
					if err != nil {
						errc <- fmt.Errorf("reader %d prepare: %w", r, err)
						return
					}
					if _, err := own.ExecBatch(ctx, [][]any{{10.0}, {60.0}}); err != nil {
						errc <- fmt.Errorf("reader %d batch: %w", r, err)
						return
					}
				default:
					if _, err := db.Query(ctx, "SELECT COUNT(*) FROM customer GROUP BY c_region"); err != nil {
						errc <- fmt.Errorf("reader %d query: %w", r, err)
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestModelOnlyDictionaries: a model saved with format v3 serves string
// predicates, string parameters and decoded GROUP BY labels without any
// data attached — closing the serving gap of earlier formats.
func TestModelOnlyDictionaries(t *testing.T) {
	ctx := context.Background()
	s, data := fixture(1500, 47)
	db, err := deepdb.LearnDataset(ctx, s, data, deepdb.WithMaxSamples(3000))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.deepdb")
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	attachedEst, err := db.EstimateCardinality(ctx, "SELECT COUNT(*) FROM customer WHERE c_region = 'EU'")
	if err != nil {
		t.Fatal(err)
	}
	attachedGroups, err := db.Query(ctx, "SELECT COUNT(*) FROM customer GROUP BY c_region")
	if err != nil {
		t.Fatal(err)
	}

	modelOnly, err := deepdb.Open(ctx, path) // no data
	if err != nil {
		t.Fatal(err)
	}
	est, err := modelOnly.EstimateCardinality(ctx, "SELECT COUNT(*) FROM customer WHERE c_region = 'EU'")
	if err != nil {
		t.Fatalf("model-only string predicate: %v", err)
	}
	if est != attachedEst {
		t.Fatalf("model-only estimate %+v != attached %+v", est, attachedEst)
	}
	stmt, err := modelOnly.Prepare("SELECT COUNT(*) FROM customer WHERE c_region = ?")
	if err != nil {
		t.Fatal(err)
	}
	if pEst, err := stmt.Estimate(ctx, "EU"); err != nil || pEst != attachedEst {
		t.Fatalf("model-only string parameter: est %+v err %v, want %+v", pEst, err, attachedEst)
	}
	groups, err := modelOnly.Query(ctx, "SELECT COUNT(*) FROM customer GROUP BY c_region")
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(groups) != fmt.Sprint(attachedGroups) {
		t.Fatalf("model-only grouped result (incl. labels) differs:\n  attached:   %v\n  model-only: %v",
			attachedGroups, groups)
	}
	labels := map[string]bool{}
	for _, g := range groups.Groups {
		for _, l := range g.Labels {
			labels[l] = true
		}
	}
	if !labels["EU"] || !labels["ASIA"] {
		t.Fatalf("model-only labels not decoded: %v", labels)
	}
	if _, err := modelOnly.Query(ctx, "SELECT COUNT(*) FROM customer WHERE c_region = 'ATLANTIS'"); err == nil {
		t.Fatal("unknown literal must fail model-only too")
	}
}

// TestAtConfidenceOption: the per-call confidence level changes interval
// width only.
func TestAtConfidenceOption(t *testing.T) {
	ctx := context.Background()
	s, data := fixture(1200, 48)
	db, err := deepdb.LearnDataset(ctx, s, data, deepdb.WithMaxSamples(2500))
	if err != nil {
		t.Fatal(err)
	}
	const sql = "SELECT COUNT(*) FROM customer JOIN orders WHERE c_age < 40"
	def, err := db.EstimateCardinality(ctx, sql)
	if err != nil {
		t.Fatal(err)
	}
	wide, err := db.EstimateCardinality(ctx, sql, deepdb.AtConfidence(0.999))
	if err != nil {
		t.Fatal(err)
	}
	if def.Value != wide.Value || def.Variance != wide.Variance {
		t.Fatalf("AtConfidence changed the estimate: %+v vs %+v", def, wide)
	}
	if def.Variance > 0 && (wide.CIHigh-wide.CILow) <= (def.CIHigh-def.CILow) {
		t.Fatalf("0.999 interval not wider: %+v vs %+v", wide, def)
	}
}
