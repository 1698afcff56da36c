package deepdb_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/deepdb"
	"repro/internal/exact"
	"repro/internal/query"
)

// fixture builds a two-table customer/orders dataset with planted
// correlations (EU customers buy more) and returns its schema and data.
func fixture(rows int, seed int64) (*deepdb.Schema, deepdb.Dataset) {
	s := &deepdb.Schema{Tables: []*deepdb.TableDef{
		{
			Name:       "customer",
			PrimaryKey: "c_id",
			Columns: []deepdb.ColumnDef{
				{Name: "c_id", Kind: deepdb.IntKind},
				{Name: "c_age", Kind: deepdb.IntKind},
				{Name: "c_region", Kind: deepdb.CategoricalKind},
			},
		},
		{
			Name:       "orders",
			PrimaryKey: "o_id",
			Columns: []deepdb.ColumnDef{
				{Name: "o_id", Kind: deepdb.IntKind},
				{Name: "o_c_id", Kind: deepdb.IntKind},
				{Name: "o_amount", Kind: deepdb.FloatKind},
			},
			ForeignKeys: []deepdb.ForeignKey{{Column: "o_c_id", RefTable: "customer", RefColumn: "c_id"}},
		},
	}}
	cust := deepdb.NewTable(s.Table("customer"))
	ord := deepdb.NewTable(s.Table("orders"))
	region := cust.Column("c_region")
	rng := rand.New(rand.NewSource(seed))
	oid := 0
	for i := 0; i < rows; i++ {
		r := "ASIA"
		norders := 1
		if rng.Float64() < 0.4 {
			r = "EU"
			norders = 3
		}
		cust.AppendRow(deepdb.Int(i), deepdb.Int(18+rng.Intn(60)),
			deepdb.Float(float64(region.Encode(r))))
		for k := 0; k < norders; k++ {
			ord.AppendRow(deepdb.Int(oid), deepdb.Int(i), deepdb.Float(10+rng.Float64()*90))
			oid++
		}
	}
	return s, deepdb.Dataset{"customer": cust, "orders": ord}
}

// swappedFixture is fixture(rows, seed) with the c_region dictionary in
// the other order: every customer keeps its region, but ASIA and EU
// trade codes.
func swappedFixture(rows int, seed int64) (*deepdb.Schema, deepdb.Dataset) {
	s, data := fixture(rows, seed)
	src := data["customer"]
	from := src.Column("c_region")
	cust := deepdb.NewTable(s.Table("customer"))
	to := cust.Column("c_region")
	for code := from.DictSize() - 1; code >= 0; code-- {
		to.Encode(from.Decode(code))
	}
	for i := 0; i < src.NumRows(); i++ {
		label := from.Decode(int(from.Get(i).F))
		cust.AppendRow(src.Column("c_id").Get(i), src.Column("c_age").Get(i),
			deepdb.Float(float64(to.Encode(label))))
	}
	data["customer"] = cust
	return s, data
}

// TestRoundTrip checks learn -> save -> open -> query equality: the
// reopened model must produce byte-identical estimates.
func TestRoundTrip(t *testing.T) {
	ctx := context.Background()
	s, data := fixture(3000, 1)
	db, err := deepdb.LearnDataset(ctx, s, data, deepdb.WithMaxSamples(5000))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.deepdb")
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	db2, err := deepdb.Open(ctx, path, deepdb.WithDataset(data))
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{
		"SELECT COUNT(*) FROM customer WHERE c_region = 'EU'",
		"SELECT COUNT(*) FROM customer JOIN orders WHERE c_age >= 40",
		"SELECT AVG(o_amount) FROM orders",
		"SELECT COUNT(*) FROM customer GROUP BY c_region",
	}
	for _, sql := range queries {
		a, err := db.Query(ctx, sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		b, err := db2.Query(ctx, sql)
		if err != nil {
			t.Fatalf("%s (reopened): %v", sql, err)
		}
		if fmt.Sprint(a) != fmt.Sprint(b) {
			t.Fatalf("%s: round-trip mismatch\n  learned:  %v\n  reopened: %v", sql, a, b)
		}
	}
	// The estimates must also be sane vs ground truth.
	est, err := db2.EstimateCardinality(ctx, "SELECT COUNT(*) FROM customer JOIN orders")
	if err != nil {
		t.Fatal(err)
	}
	truth, err := db2.Exact(ctx, "SELECT COUNT(*) FROM customer JOIN orders")
	if err != nil {
		t.Fatal(err)
	}
	if qe := deepdb.QError(est.Value, truth.Scalar()); qe > 2 {
		t.Fatalf("join cardinality q-error %.2f (est %.1f true %.1f)", qe, est.Value, truth.Scalar())
	}
}

// TestOpenWithoutData: a model opened with no dataset serves every query
// class from the persisted statistics — including multi-table Theorem-2
// queries with filters on several tables — but still refuses updates and
// exact execution.
func TestOpenWithoutData(t *testing.T) {
	ctx := context.Background()
	s, data := fixture(1000, 2)
	// Single-table RSPNs only, so the join query below must combine two
	// models via Theorem 2 (the path that used to need live tables).
	db, err := deepdb.LearnDataset(ctx, s, data,
		deepdb.WithMaxSamples(2000), deepdb.WithSingleTableOnly())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.deepdb")
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	db2, err := deepdb.Open(ctx, path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db2.Query(ctx, "SELECT COUNT(*) FROM customer WHERE c_age < 30"); err != nil {
		t.Fatalf("model-only query: %v", err)
	}
	est, err := db2.EstimateCardinality(ctx,
		"SELECT COUNT(*) FROM customer JOIN orders WHERE c_age < 40 AND o_amount >= 50")
	if err != nil {
		t.Fatalf("model-only Theorem-2 query with filters on both tables: %v", err)
	}
	// The filters must actually bite (they used to be dropped silently
	// when column ownership could not be resolved without tables).
	all, err := db2.EstimateCardinality(ctx, "SELECT COUNT(*) FROM customer JOIN orders")
	if err != nil {
		t.Fatal(err)
	}
	if est.Value >= all.Value {
		t.Fatalf("filtered join estimate %v not below unfiltered %v", est.Value, all.Value)
	}
	if d := db2.Describe(); !strings.Contains(d, "table statistics") {
		t.Fatalf("Describe missing persisted statistics:\n%s", d)
	}
	if err := db2.Insert("orders", map[string]deepdb.Value{"o_id": deepdb.Int(1 << 20)}); err == nil {
		t.Fatal("expected insert to fail without data")
	}
	if _, err := db2.Exact(ctx, "SELECT COUNT(*) FROM customer"); err == nil {
		t.Fatal("expected exact execution to fail without data")
	}
}

// TestOpenRejectsOldModelFile: a model file without the versioned header
// fails with a clear error instead of an opaque gob mismatch.
func TestOpenRejectsOldModelFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "old.deepdb")
	if err := os.WriteFile(path, []byte("pre-versioning payload"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := deepdb.Open(context.Background(), path)
	if err == nil || !strings.Contains(err.Error(), "older") {
		t.Fatalf("err = %v, want mention of an older model format", err)
	}
}

// TestModelOnlyMatchesAttached is the data-free serving contract: on a
// fixed-seed workload spanning every compilation case (single-RSPN,
// superset, Theorem-2 combination), GROUP BY, disjunctions, outer joins,
// string literals and string parameters, a model opened without data
// must produce estimates and group labels identical to the data-attached
// DB it was saved from.
func TestModelOnlyMatchesAttached(t *testing.T) {
	ctx := context.Background()
	workload := []query.Query{
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
	for _, tc := range []struct {
		name string
		opts []deepdb.Option
	}{
		{"ensemble", nil},
		{"single-table-only/theorem2", []deepdb.Option{deepdb.WithSingleTableOnly()}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, data := fixture(2000, 11)
			opts := append([]deepdb.Option{deepdb.WithMaxSamples(4000)}, tc.opts...)
			db, err := deepdb.LearnDataset(ctx, s, data, opts...)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "model.deepdb")
			if err := db.Save(path); err != nil {
				t.Fatal(err)
			}
			modelOnly, err := deepdb.Open(ctx, path)
			if err != nil {
				t.Fatal(err)
			}
			norm := func(r deepdb.Result) string {
				var b strings.Builder
				for _, g := range r.Groups {
					fmt.Fprintf(&b, "%v %q %v %v %v %v; ", g.Key, g.Labels, g.Value, g.Variance, g.CILow, g.CIHigh)
				}
				return b.String()
			}
			for i, q := range workload {
				a, err := db.ExecuteQuery(ctx, q)
				if err != nil {
					t.Fatalf("query %d attached: %v", i, err)
				}
				b, err := modelOnly.ExecuteQuery(ctx, q)
				if err != nil {
					t.Fatalf("query %d model-only: %v", i, err)
				}
				if norm(a) != norm(b) {
					t.Fatalf("query %d mismatch\n  attached:   %v\n  model-only: %v", i, a, b)
				}
			}
			for _, sql := range []string{
				"SELECT COUNT(*) FROM customer WHERE c_region = 'EU'",
				"SELECT AVG(o_amount) FROM customer JOIN orders WHERE c_region = 'ASIA' GROUP BY c_region",
				"SELECT COUNT(*) FROM customer JOIN orders GROUP BY c_region",
			} {
				a, err := db.Query(ctx, sql)
				if err != nil {
					t.Fatalf("%s attached: %v", sql, err)
				}
				b, err := modelOnly.Query(ctx, sql)
				if err != nil {
					t.Fatalf("%s model-only: %v", sql, err)
				}
				if norm(a) != norm(b) {
					t.Fatalf("%s mismatch\n  attached:   %v\n  model-only: %v", sql, a, b)
				}
			}
			const prepared = "SELECT COUNT(*) FROM customer JOIN orders WHERE c_region = ? AND c_age < ?"
			for _, region := range []string{"EU", "ASIA"} {
				var got [2]deepdb.Result
				for j, d := range []*deepdb.DB{db, modelOnly} {
					stmt, err := d.Prepare(prepared)
					if err != nil {
						t.Fatal(err)
					}
					if got[j], err = stmt.Exec(ctx, region, 40); err != nil {
						t.Fatalf("Exec(%q, 40): %v", region, err)
					}
				}
				if norm(got[0]) != norm(got[1]) {
					t.Fatalf("prepared %q mismatch\n  attached:   %v\n  model-only: %v", region, got[0], got[1])
				}
			}
		})
	}
}

// TestOpenRefusesDisagreeingDictionaries: tables attached to a model must
// give every code the model's label, or string literals would answer for
// the wrong region. Open refuses the same rows with the c_region
// dictionary in the other order, and the error names the column. Its
// twin, the same rows in the model's order, attaches and answers like the
// learned model.
func TestOpenRefusesDisagreeingDictionaries(t *testing.T) {
	ctx := context.Background()
	s, data := fixture(2000, 11)
	db, err := deepdb.LearnDataset(ctx, s, data, deepdb.WithMaxSamples(4000))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.deepdb")
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	const sql = "SELECT COUNT(*) FROM customer WHERE c_region = 'EU'"
	want, err := db.EstimateCardinality(ctx, sql)
	if err != nil {
		t.Fatal(err)
	}

	_, same := fixture(2000, 11)
	attached, err := deepdb.Open(ctx, path, deepdb.WithDataset(same))
	if err != nil {
		t.Fatalf("Open over the learned rows: %v", err)
	}
	if got, err := attached.EstimateCardinality(ctx, sql); err != nil || got.Value != want.Value {
		t.Fatalf("attached estimate = %v, %v; want %v", got.Value, err, want.Value)
	}

	_, swapped := swappedFixture(2000, 11)
	_, err = deepdb.Open(ctx, path, deepdb.WithDataset(swapped))
	if err == nil || !strings.Contains(err.Error(), "attached table customer: column c_region encodes") {
		t.Fatalf("Open over a swapped dictionary: err = %v, want a refusal naming customer.c_region", err)
	}
}

// TestReloadRefusesDisagreeingModel: Reload attaches the serving tables
// to the new model, so a model learned over the same rows with the
// c_region dictionary in the other order is refused, and the old model
// keeps serving at the same generation with the same answers.
func TestReloadRefusesDisagreeingModel(t *testing.T) {
	ctx := context.Background()
	s, data := fixture(2000, 11)
	db, err := deepdb.LearnDataset(ctx, s, data, deepdb.WithMaxSamples(4000))
	if err != nil {
		t.Fatal(err)
	}
	s2, swapped := swappedFixture(2000, 11)
	other, err := deepdb.LearnDataset(ctx, s2, swapped, deepdb.WithMaxSamples(4000))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "swapped.deepdb")
	if err := other.Save(path); err != nil {
		t.Fatal(err)
	}
	const sql = "SELECT COUNT(*) FROM customer GROUP BY c_region"
	before, err := db.Query(ctx, sql)
	if err != nil {
		t.Fatal(err)
	}
	gen := db.Generation()
	if err := db.Reload(path); err == nil || !strings.Contains(err.Error(), "column c_region") {
		t.Fatalf("Reload of a swapped-dictionary model: err = %v, want a refusal naming c_region", err)
	}
	if db.Generation() != gen {
		t.Fatalf("generation moved %d -> %d on a refused Reload", gen, db.Generation())
	}
	after, err := db.Query(ctx, sql)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(after) != fmt.Sprint(before) {
		t.Fatalf("answers changed on a refused Reload\n  before: %v\n  after:  %v", before, after)
	}
}

// TestConcurrentLabelsUnderWrites: readers resolve string literals and
// string parameters and decode GROUP BY labels while a writer inserts and
// flushes; under -race every read sees the model's labels.
func TestConcurrentLabelsUnderWrites(t *testing.T) {
	t.Parallel()
	ctx := context.Background()
	s, data := fixture(800, 12)
	db, err := deepdb.LearnDataset(ctx, s, data, deepdb.WithMaxSamples(2000))
	if err != nil {
		t.Fatal(err)
	}
	eu, err := db.ResolveLabel("c_region", "EU")
	if err != nil {
		t.Fatal(err)
	}
	stmt, err := db.Prepare("SELECT COUNT(*) FROM customer WHERE c_region = ?")
	if err != nil {
		t.Fatal(err)
	}
	const readers, inserts = 4, 60
	var wg sync.WaitGroup
	errc := make(chan error, readers+1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < inserts; i++ {
			err := db.Insert("customer", map[string]deepdb.Value{
				"c_id":     deepdb.Int(1_000_000 + i),
				"c_age":    deepdb.Int(30),
				"c_region": deepdb.Float(eu),
			})
			if err == nil && i%15 == 14 {
				err = db.Flush(ctx)
			}
			if err != nil {
				errc <- fmt.Errorf("writer row %d: %w", i, err)
				return
			}
		}
	}()
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				if _, err := db.Query(ctx, "SELECT COUNT(*) FROM customer WHERE c_region = 'ASIA'"); err != nil {
					errc <- fmt.Errorf("reader %d literal: %w", r, err)
					return
				}
				if _, err := stmt.Exec(ctx, "EU"); err != nil {
					errc <- fmt.Errorf("reader %d parameter: %w", r, err)
					return
				}
				res, err := db.Query(ctx, "SELECT COUNT(*) FROM customer GROUP BY c_region")
				if err != nil {
					errc <- fmt.Errorf("reader %d group by: %w", r, err)
					return
				}
				for _, g := range res.Groups {
					if l := g.Labels[0]; l != "EU" && l != "ASIA" {
						errc <- fmt.Errorf("reader %d: group %v decoded as %q", r, g.Key, l)
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

// TestLearnCancellation: a cancelled context aborts learning with
// ctx.Err(), both when cancelled up front and mid-learn.
func TestLearnCancellation(t *testing.T) {
	s, data := fixture(2000, 3)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := deepdb.LearnDataset(cancelled, s, data); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled learn: err = %v, want context.Canceled", err)
	}
	// A deadline far shorter than learning time must interrupt the SPN
	// structure-learning loop itself.
	s2, data2 := fixture(30000, 4)
	ctx, cancel2 := context.WithTimeout(context.Background(), 2*time.Millisecond)
	defer cancel2()
	start := time.Now()
	_, err := deepdb.LearnDataset(ctx, s2, data2)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("mid-learn cancel: err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v, expected fast unwind", elapsed)
	}
}

// TestQueryCancellation: a cancelled context aborts query evaluation.
func TestQueryCancellation(t *testing.T) {
	ctx := context.Background()
	s, data := fixture(1000, 5)
	db, err := deepdb.LearnDataset(ctx, s, data, deepdb.WithMaxSamples(2000))
	if err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := db.Query(cancelled, "SELECT COUNT(*) FROM customer"); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled query: err = %v, want context.Canceled", err)
	}
}

// TestConcurrentQueryUpdate is the facade's concurrency contract under
// -race: many goroutines query while others insert; every operation must
// succeed and the final count must reflect all inserts.
func TestConcurrentQueryUpdate(t *testing.T) {
	t.Parallel()
	ctx := context.Background()
	s, data := fixture(2000, 7)
	db, err := deepdb.LearnDataset(ctx, s, data,
		deepdb.WithMaxSamples(4000))
	if err != nil {
		t.Fatal(err)
	}
	const (
		readers = 8
		writers = 4
		inserts = 25
	)
	var wg sync.WaitGroup
	errc := make(chan error, readers+writers)
	queries := []string{
		"SELECT COUNT(*) FROM customer WHERE c_age < 40",
		"SELECT COUNT(*) FROM customer JOIN orders",
		"SELECT AVG(o_amount) FROM customer JOIN orders GROUP BY c_region",
		"SELECT COUNT(*) FROM customer GROUP BY c_region",
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < inserts; i++ {
				id := 1_000_000 + w*inserts + i
				err := db.Update(deepdb.Row{Table: "orders", Values: map[string]deepdb.Value{
					"o_id":     deepdb.Int(id),
					"o_c_id":   deepdb.Int(i % 100),
					"o_amount": deepdb.Float(50),
				}})
				if err != nil {
					errc <- fmt.Errorf("writer %d insert %d: %w", w, i, err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				sql := queries[(r+i)%len(queries)]
				if _, err := db.Query(ctx, sql); err != nil {
					errc <- fmt.Errorf("reader %d %q: %w", r, sql, err)
					return
				}
				if _, err := db.EstimateCardinality(ctx, "SELECT COUNT(*) FROM orders WHERE o_amount >= 50"); err != nil {
					errc <- fmt.Errorf("reader %d estimate: %w", r, err)
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
	// Updates are asynchronous: flush so every enqueued write is published
	// (and any apply error surfaces) before the final accounting.
	if err := db.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	// All writes must be visible in the base table afterwards.
	got := db.Data()["orders"].NumRows()
	truth, err := db.Exact(ctx, "SELECT COUNT(*) FROM orders")
	if err != nil {
		t.Fatal(err)
	}
	if want := int(truth.Scalar()); got != want {
		t.Fatalf("orders rows = %d, exact count = %d", got, want)
	}
}

// TestExplain renders plans for the three compilation cases.
func TestExplain(t *testing.T) {
	ctx := context.Background()
	s, data := fixture(2000, 8)
	db, err := deepdb.LearnDataset(ctx, s, data,
		deepdb.WithMaxSamples(4000), deepdb.WithSingleTableOnly())
	if err != nil {
		t.Fatal(err)
	}
	plan, err := db.Explain(ctx, "SELECT COUNT(*) FROM customer WHERE c_age < 30")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "case 1") {
		t.Fatalf("single-table plan missing case 1:\n%s", plan)
	}
	// With single-table RSPNs only, a join query needs Theorem 2.
	plan, err = db.Explain(ctx, "SELECT COUNT(*) FROM customer JOIN orders WHERE c_age < 30")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "Theorem 2") {
		t.Fatalf("join plan missing Theorem 2:\n%s", plan)
	}
	if strings.Contains(plan, "bound once") {
		t.Fatalf("ungrouped plan says how often it binds per key:\n%s", plan)
	}
	// Grouped, each side says what it is bound per: the customer side per
	// region, the orders side (no group column) once per query; and
	// variance is bound only for the groups that survive the gate.
	plan, err = db.Explain(ctx, "SELECT COUNT(*) FROM customer JOIN orders GROUP BY c_region")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"bound once per distinct c_region", "bound once per query",
		"variance parts are bound only for groups that survive it"} {
		if !strings.Contains(plan, want) {
			t.Fatalf("grouped plan missing %q:\n%s", want, plan)
		}
	}
}

// TestDescribeAndModels covers the introspection surface.
func TestDescribeAndModels(t *testing.T) {
	ctx := context.Background()
	s, data := fixture(1000, 9)
	db, err := deepdb.LearnDataset(ctx, s, data, deepdb.WithMaxSamples(2000))
	if err != nil {
		t.Fatal(err)
	}
	if d := db.Describe(); !strings.Contains(d, "RSPN") {
		t.Fatalf("describe output: %q", d)
	}
	if len(db.Models()) == 0 {
		t.Fatal("no models")
	}
	if db.Model("customer") == nil {
		t.Fatal("no model covers customer")
	}
	if db.Schema().Table("orders") == nil {
		t.Fatal("schema lost")
	}
}

// TestExactSkipsDeletedRows: a delete keeps the base row physically
// present, tombstoned, and Exact answers over the live rows — agreeing
// with the model. Must-fail twin: the same physical rows without their
// tombstones still count 500.
func TestExactSkipsDeletedRows(t *testing.T) {
	ctx := context.Background()
	s, data := fixture(500, 3)
	db, err := deepdb.LearnDataset(ctx, s, data, deepdb.WithMaxSamples(5000))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for pk := 0; pk < 100; pk++ {
		if err := db.Delete("customer", float64(pk)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	const sql = "SELECT COUNT(*) FROM customer"
	truth, err := db.Exact(ctx, sql)
	if err != nil {
		t.Fatal(err)
	}
	est, err := db.EstimateCardinality(ctx, sql)
	if err != nil {
		t.Fatal(err)
	}
	if truth.Scalar() != 400 || math.Round(est.Value) != 400 {
		t.Fatalf("after 100 deletes: exact %v, model %v; want 400 and 400", truth.Scalar(), est.Value)
	}
	cust := db.Data()["customer"]
	all := make([]int, cust.NumRows())
	for i := range all {
		all[i] = i
	}
	physical, err := exact.New(s, deepdb.Dataset{"customer": cust.Select(all)}).Execute(query.Query{
		Tables: []string{"customer"}, Aggregate: query.Count})
	if err != nil {
		t.Fatal(err)
	}
	if physical.Scalar() != 500 {
		t.Fatalf("physical rows count %v, want 500: the deletes did not stay physically present", physical.Scalar())
	}
}

// TestReloadKeepsDeletedRowsDeleted: Reload attaches the serving tables to
// the loaded model under a fresh write index, and the tombstones the tables
// record keep a deleted key deleted — deleting it again is an apply error
// and the count stays where it was.
func TestReloadKeepsDeletedRowsDeleted(t *testing.T) {
	ctx := context.Background()
	s, data := fixture(500, 4)
	db, err := deepdb.LearnDataset(ctx, s, data, deepdb.WithMaxSamples(5000))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Delete("customer", 5); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.deepdb")
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	if err := db.Reload(path); err != nil {
		t.Fatal(err)
	}
	const sql = "SELECT COUNT(*) FROM customer"
	before, err := db.EstimateCardinality(ctx, sql)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Delete("customer", 5); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(ctx); err == nil {
		t.Fatal("deleting pk 5 again after Reload applied: the reload resurrected the row")
	}
	after, err := db.EstimateCardinality(ctx, sql)
	if err != nil {
		t.Fatal(err)
	}
	truth, err := db.Exact(ctx, sql)
	if err != nil {
		t.Fatal(err)
	}
	if after.Value != before.Value || math.Round(after.Value) != 499 || truth.Scalar() != 499 {
		t.Fatalf("count after the repeated delete: model %v (was %v), exact %v; want 499", after.Value, before.Value, truth.Scalar())
	}
}
