package repro

// Result-cache and streaming GROUP BY micro-benchmarks. The cache-hit
// bench against its uncached twin quantifies the serve-hot-path win of the
// cross-query result cache (a hit skips binding-independent work: plan
// lookup, evaluation, CI computation); the stream bench reports the
// chunked row iterator's throughput in rows/s.
// scripts/bench.sh runs these into BENCH_query.json.

import (
	"context"
	"path/filepath"
	"sync"
	"testing"

	"repro/deepdb"
)

var (
	rcOnce sync.Once
	// rcDB serves with the result cache on; rcPlainDB is the same model
	// with the cache off — the uncached baseline.
	rcDB      *deepdb.DB
	rcPlainDB *deepdb.DB
)

func resultCacheFixture(b testing.TB) (*deepdb.DB, *deepdb.DB) {
	b.Helper()
	rcOnce.Do(func() {
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
		for i := 0; i < 3000; i++ {
			cust.AppendRow(deepdb.Int(i), deepdb.Int(18+(i*7)%60),
				deepdb.Float(float64(region.Encode(regions[i%3]))))
			for k := 0; k <= i%3; k++ {
				ord.AppendRow(deepdb.Int(oid), deepdb.Int(i), deepdb.Float(float64(10+(oid*13)%90)))
				oid++
			}
		}
		db, err := deepdb.LearnDataset(ctx, s, deepdb.Dataset{"customer": cust, "orders": ord},
			deepdb.WithMaxSamples(6000))
		if err != nil {
			panic(err)
		}
		path := filepath.Join(b.TempDir(), "rc.deepdb")
		if err := db.Save(path); err != nil {
			panic(err)
		}
		if rcDB, err = deepdb.Open(ctx, path, deepdb.WithResultCacheSize(1024)); err != nil {
			panic(err)
		}
		if rcPlainDB, err = deepdb.Open(ctx, path); err != nil {
			panic(err)
		}
	})
	return rcDB, rcPlainDB
}

const rcTemplate = "SELECT COUNT(*) FROM customer JOIN orders WHERE c_age < ? AND o_amount >= ?"

// BenchmarkResultCacheHit: the same binding over and over against the
// result cache — after the first call every execution is a cache hit that
// skips plan lookup and evaluation entirely.
func BenchmarkResultCacheHit(b *testing.B) {
	db, _ := resultCacheFixture(b)
	ctx := context.Background()
	stmt, err := db.Prepare(rcTemplate)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := stmt.Exec(ctx, 40, 50); err != nil { // warm the entry
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stmt.Exec(ctx, 40, 50); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkResultCacheMissExec: the identical workload on the same model
// with the cache disabled — every call pays the full evaluation. The
// hit/miss ratio of these two benches is the cache's speedup.
func BenchmarkResultCacheMissExec(b *testing.B) {
	_, db := resultCacheFixture(b)
	ctx := context.Background()
	stmt, err := db.Prepare(rcTemplate)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stmt.Exec(ctx, 40, 50); err != nil {
			b.Fatal(err)
		}
	}
}

const rcGroupSQL = "SELECT COUNT(*) FROM customer GROUP BY c_age"

// BenchmarkGroupStreamRows: drain a grouped result through the chunked
// row iterator (O(chunk) memory) and report streamed rows/s.
func BenchmarkGroupStreamRows(b *testing.B) {
	_, db := resultCacheFixture(b)
	ctx := context.Background()
	total := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := db.QueryRows(ctx, rcGroupSQL)
		if err != nil {
			b.Fatal(err)
		}
		for rows.Next() {
			total++
		}
		if err := rows.Err(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if total == 0 {
		b.Fatal("no rows streamed")
	}
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "rows/s")
}
