package repro

// Prepared-statement micro-benchmarks: the compile-once/execute-many
// contract of the prepared API must show up as a measurable speedup over
// the unprepared path (which re-parses and — without the plan cache —
// recompiles per call). scripts/bench.sh runs these and emits
// BENCH_query.json.

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"repro/deepdb"
)

var (
	prepOnce sync.Once
	// prepDB has the default plan cache; prepColdDB has the cache
	// disabled, isolating the per-call compile cost.
	prepDB     *deepdb.DB
	prepColdDB *deepdb.DB
)

func preparedFixture(b testing.TB) (*deepdb.DB, *deepdb.DB) {
	b.Helper()
	prepOnce.Do(func() {
		ctx := context.Background()
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
		regions := []string{"EU", "ASIA", "US"}
		oid := 0
		for i := 0; i < 4000; i++ {
			cust.AppendRow(deepdb.Int(i), deepdb.Int(18+(i*7)%60),
				deepdb.Float(float64(region.Encode(regions[i%3]))))
			for k := 0; k <= i%3; k++ {
				ord.AppendRow(deepdb.Int(oid), deepdb.Int(i), deepdb.Float(float64(10+(oid*13)%90)))
				oid++
			}
		}
		db, err := deepdb.LearnDataset(ctx, s, deepdb.Dataset{"customer": cust, "orders": ord},
			deepdb.WithMaxSamples(8000))
		if err != nil {
			panic(err)
		}
		// Serve model-only like production: save once, open twice with
		// different cache configurations.
		dir, err := filepath.Abs(b.TempDir())
		if err != nil {
			panic(err)
		}
		path := filepath.Join(dir, "bench.deepdb")
		if err := db.Save(path); err != nil {
			panic(err)
		}
		if prepDB, err = deepdb.Open(ctx, path); err != nil {
			panic(err)
		}
		if prepColdDB, err = deepdb.Open(ctx, path, deepdb.WithPlanCacheSize(0)); err != nil {
			panic(err)
		}
	})
	return prepDB, prepColdDB
}

const benchTemplate = "SELECT COUNT(*) FROM customer JOIN orders WHERE c_age < ? AND o_amount >= ?"

func benchLiteral(i int) string {
	return fmt.Sprintf("SELECT COUNT(*) FROM customer JOIN orders WHERE c_age < %d AND o_amount >= %d",
		25+i%40, 10+i%80)
}

// BenchmarkPreparedExec: bind parameters into a pre-compiled plan — no
// parsing, no shape hashing, no compilation per call.
func BenchmarkPreparedExec(b *testing.B) {
	db, _ := preparedFixture(b)
	ctx := context.Background()
	stmt, err := db.Prepare(benchTemplate)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stmt.Estimate(ctx, 25+i%40, 10+i%80); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUnpreparedCached: one-shot SQL with the plan cache on — pays
// parse + shape key per call, reuses the compiled plan.
func BenchmarkUnpreparedCached(b *testing.B) {
	db, _ := preparedFixture(b)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.EstimateCardinality(ctx, benchLiteral(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUnpreparedUncached: one-shot SQL with the plan cache disabled —
// pays parse + validation + full plan compilation per call, the pre-split
// cost model.
func BenchmarkUnpreparedUncached(b *testing.B) {
	_, db := preparedFixture(b)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.EstimateCardinality(ctx, benchLiteral(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGroupByBatched: one grouped query — the batched executor
// collects every group key's expectation requests and answers them in one
// pass per model.
func BenchmarkGroupByBatched(b *testing.B) {
	db, _ := preparedFixture(b)
	ctx := context.Background()
	stmt, err := db.Prepare("SELECT COUNT(*) FROM customer JOIN orders WHERE o_amount >= ? GROUP BY c_region")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := stmt.Exec(ctx, 10+i%80)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Groups) == 0 {
			b.Fatal("no groups")
		}
	}
}

// BenchmarkPreparedExecBatch: many bindings under one lock and one plan
// lookup.
func BenchmarkPreparedExecBatch(b *testing.B) {
	db, _ := preparedFixture(b)
	ctx := context.Background()
	stmt, err := db.Prepare(benchTemplate)
	if err != nil {
		b.Fatal(err)
	}
	batch := make([][]any, 16)
	for i := range batch {
		batch[i] = []any{25 + i*2, 10 + i*5}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stmt.ExecBatch(ctx, batch); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(batch)), "queries/op")
}
