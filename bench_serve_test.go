// Serving benchmarks: concurrent reader throughput and latency
// percentiles on one handle, and the hot-reload blip — reader p50/p99
// while a background loop keeps swapping the model file through the
// snapshot-publication path. scripts/bench.sh parses these into
// BENCH_serve.json.
//
// Run with: go test -bench 'ServeQuery|HotReloadReader' -benchmem
package repro

import (
	"context"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/deepdb"
)

// serveFixture learns the shared benchmark dataset behind one handle.
func serveFixture(b *testing.B) *deepdb.DB {
	b.Helper()
	s, data := updateDataset()
	db, err := deepdb.LearnDataset(context.Background(), s, data,
		deepdb.WithMaxSamples(4000))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	return db
}

// BenchmarkServeQuery drives concurrent prepared estimates — the serving
// hot path — through one handle and reports qps plus p50/p99 per-request
// latency.
func BenchmarkServeQuery(b *testing.B) {
	db := serveFixture(b)
	ctx := context.Background()
	var mu sync.Mutex
	all := make([]time.Duration, 0, b.N)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		stmt, err := db.Prepare("SELECT COUNT(*) FROM orders WHERE o_amount >= ?")
		if err != nil {
			b.Fatal(err)
		}
		lats := make([]time.Duration, 0, 1024)
		i := 0
		for pb.Next() {
			start := time.Now()
			if _, err := stmt.Estimate(ctx, i%100); err != nil {
				b.Fatal(err)
			}
			lats = append(lats, time.Since(start))
			i++
		}
		mu.Lock()
		all = append(all, lats...)
		mu.Unlock()
	})
	b.StopTimer()
	if d := b.Elapsed(); d > 0 {
		b.ReportMetric(float64(b.N)/d.Seconds(), "qps")
	}
	reportLatencyPercentiles(b, all)
}

// BenchmarkHotReloadReader measures the hot-reload blip: one
// reader samples prepared-estimate latency while a background loop keeps
// reloading the model file. The snapshot-publication swap claims zero
// read downtime, so p99 here should stay in the same regime as the
// ServeQuery baseline rather than spiking to reload latency.
func BenchmarkHotReloadReader(b *testing.B) {
	db := serveFixture(b)
	path := filepath.Join(b.TempDir(), "model.deepdb")
	if err := db.Save(path); err != nil {
		b.Fatal(err)
	}
	var stop atomic.Bool
	var reloads atomic.Uint64
	done := make(chan error, 1)
	go func() {
		for !stop.Load() {
			if err := db.Reload(path); err != nil {
				done <- err
				return
			}
			reloads.Add(1)
		}
		done <- nil
	}()
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
	stop.Store(true)
	if err := <-done; err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(reloads.Load()), "reloads")
	reportLatencyPercentiles(b, lats)
}
