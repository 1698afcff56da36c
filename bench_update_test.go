// Update-pipeline benchmarks: apply throughput of flush-per-write
// (WithSyncUpdates, batches of one) vs the coalescing default, and reader latency while a writer streams
// mutations — the flat-reader-latency claim of the snapshot-isolated
// serving design. scripts/bench.sh parses these into BENCH_update.json.
//
// Run with: go test -bench 'UpdateApply|ReaderLatency' -benchmem
package repro

import (
	"context"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"repro/deepdb"
)

// updateFixture learns a small facade DB over the deterministic
// customer/orders shape used across the deepdb tests.
func updateFixture(b *testing.B, opts ...deepdb.Option) *deepdb.DB {
	b.Helper()
	s, data := updateDataset()
	db, err := deepdb.LearnDataset(context.Background(), s, data,
		append([]deepdb.Option{deepdb.WithMaxSamples(4000)}, opts...)...)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	return db
}

// updateDataset builds the deterministic customer/orders shape shared by
// the update and serving benchmarks.
func updateDataset() (*deepdb.Schema, deepdb.Dataset) {
	s := &deepdb.Schema{Tables: []*deepdb.TableDef{
		{
			Name:       "customer",
			PrimaryKey: "c_id",
			Columns: []deepdb.ColumnDef{
				{Name: "c_id", Kind: deepdb.IntKind},
				{Name: "c_age", Kind: deepdb.IntKind},
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
	oid := 0
	for i := 0; i < 2000; i++ {
		cust.AppendRow(deepdb.Int(i), deepdb.Int(18+(i*7)%60))
		for k := 0; k <= i%2; k++ {
			ord.AppendRow(deepdb.Int(oid), deepdb.Int(i), deepdb.Float(float64(10+(oid*13)%90)))
			oid++
		}
	}
	return s, deepdb.Dataset{"customer": cust, "orders": ord}
}

func orderRow(i int) map[string]deepdb.Value {
	return map[string]deepdb.Value{
		"o_id":     deepdb.Int(10_000_000 + i),
		"o_c_id":   deepdb.Int(i % 2000),
		"o_amount": deepdb.Float(float64(i % 100)),
	}
}

// BenchmarkUpdateApplySync measures per-row submit+apply+publish cost under
// WithSyncUpdates: every call crosses the queue and waits for its own
// copy-on-write batch of one.
func BenchmarkUpdateApplySync(b *testing.B) {
	db := updateFixture(b, deepdb.WithSyncUpdates())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := db.Insert("orders", orderRow(i)); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportRowsPerSec(b)
}

// BenchmarkUpdateApplyAsync measures per-row cost of the batched
// asynchronous pipeline: enqueue b.N rows, flush once — cloning and
// evaluator recompiles amortize across coalesced batches.
func BenchmarkUpdateApplyAsync(b *testing.B) {
	db := updateFixture(b)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := db.Insert("orders", orderRow(i)); err != nil {
			b.Fatal(err)
		}
	}
	if err := db.Flush(ctx); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	reportRowsPerSec(b)
	st := db.UpdateStats()
	if st.Batches > 0 {
		b.ReportMetric(float64(st.Applied)/float64(st.Batches), "rows/batch")
	}
}

func reportRowsPerSec(b *testing.B) {
	if d := b.Elapsed(); d > 0 {
		b.ReportMetric(float64(b.N)/d.Seconds(), "rows/s")
	}
}

// readerLatency runs b.N reader queries (a prepared estimate, the serving
// hot path) and reports p50/p99 alongside ns/op.
func readerLatency(b *testing.B, db *deepdb.DB) {
	ctx := context.Background()
	stmt, err := db.Prepare("SELECT COUNT(*) FROM orders WHERE o_amount >= ?")
	if err != nil {
		b.Fatal(err)
	}
	lats := make([]time.Duration, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		if _, err := stmt.Estimate(ctx, i%100); err != nil {
			b.Fatal(err)
		}
		lats = append(lats, time.Since(start))
	}
	b.StopTimer()
	reportLatencyPercentiles(b, lats)
}

// reportLatencyPercentiles attaches p50/p99 of the sampled latencies as
// benchmark metrics.
func reportLatencyPercentiles(b *testing.B, lats []time.Duration) {
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	quantile := func(q float64) float64 {
		if len(lats) == 0 {
			return 0
		}
		idx := int(q * float64(len(lats)-1))
		return float64(lats[idx].Nanoseconds())
	}
	b.ReportMetric(quantile(0.50), "p50-ns")
	b.ReportMetric(quantile(0.99), "p99-ns")
}

// BenchmarkReaderLatencyIdle is the baseline: reader latency with no
// concurrent writer.
func BenchmarkReaderLatencyIdle(b *testing.B) {
	db := updateFixture(b)
	readerLatency(b, db)
}

// BenchmarkReaderLatencyDuringUpdates measures the same reader while a
// background writer streams inserts through the pipeline as fast as it
// can. Snapshot isolation's claim is that this stays flat vs Idle —
// readers never block on the write path.
func BenchmarkReaderLatencyDuringUpdates(b *testing.B) {
	db := updateFixture(b)
	var stop atomic.Bool
	writerDone := make(chan error, 1)
	started := make(chan struct{})
	go func() {
		for i := 0; !stop.Load(); i++ {
			if err := db.Insert("orders", orderRow(i)); err != nil {
				writerDone <- err
				return
			}
			if i == 0 {
				close(started)
			}
		}
		writerDone <- nil
	}()
	// Only measure with the write stream actually flowing.
	<-started
	readerLatency(b, db)
	stop.Store(true)
	if err := <-writerDone; err != nil {
		b.Fatal(err)
	}
	if err := db.Flush(context.Background()); err != nil {
		b.Fatal(err)
	}
	st := db.UpdateStats()
	b.ReportMetric(float64(st.Applied), "writer-rows")
}

// BenchmarkReaderLatencyDuringSyncUpdates is the contrast case: the same
// writer stream under WithSyncUpdates (writers pay apply inline). Readers
// still never block — only writer throughput changes — so this documents
// the trade instead of proving a stall.
func BenchmarkReaderLatencyDuringSyncUpdates(b *testing.B) {
	db := updateFixture(b, deepdb.WithSyncUpdates())
	var stop atomic.Bool
	writerDone := make(chan error, 1)
	started := make(chan struct{})
	go func() {
		for i := 0; !stop.Load(); i++ {
			if err := db.Insert("orders", orderRow(i)); err != nil {
				writerDone <- err
				return
			}
			if i == 0 {
				close(started)
			}
		}
		writerDone <- nil
	}()
	<-started
	readerLatency(b, db)
	stop.Store(true)
	if err := <-writerDone; err != nil {
		b.Fatal(err)
	}
}
