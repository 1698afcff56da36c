package spn

// Micro-benchmarks of the compiled evaluator kernel, single-request and
// batched. scripts/bench.sh runs these and emits BENCH_spn.json.

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

var (
	benchOnce sync.Once
	benchSPN  *SPN
	benchReqs []Request
)

func benchFixture(b testing.TB) (*SPN, []Request) {
	b.Helper()
	benchOnce.Do(func() {
		rng := rand.New(rand.NewSource(42))
		data := make([][]float64, 20000)
		for i := range data {
			row := make([]float64, 6)
			row[0] = float64(i % 9)              // small categorical
			row[1] = float64(rng.Intn(5000))     // high-cardinality -> binned
			row[2] = rng.NormFloat64() * 100     // continuous
			row[3] = float64(rng.Intn(50))       // medium categorical
			row[4] = math.Abs(rng.NormFloat64()) // factor-like
			if rng.Intn(12) == 0 {
				row[5] = math.NaN()
			} else {
				row[5] = float64(rng.Intn(20))
			}
			data[i] = row
		}
		cfg := DefaultLearnConfig()
		cfg.MaxDistinct = 256
		var err error
		benchSPN, err = Learn(data, []string{"a", "b", "c", "d", "e", "f"}, cfg)
		if err != nil {
			panic(err)
		}
		// A mix of the request shapes query plans emit: probabilities,
		// filtered expectations, squared moments, inverse factors.
		fns := []Fn{FnOne, FnIdent, FnSquare, FnInv}
		for i := 0; i < 64; i++ {
			req := Request{Cols: []ColQuery{
				{Col: 0, Fn: FnOne, Ranges: []Range{PointRange(float64(i % 9))}},
				{Col: 1, Fn: fns[i%len(fns)], Ranges: []Range{{Lo: 0, Hi: float64(500 + i*50), LoIncl: true, HiIncl: true}}},
				{Col: 2, Fn: FnOne, Ranges: []Range{{Lo: -50, Hi: 50, LoIncl: true, HiIncl: false}}},
			}}
			if i%3 == 0 {
				req.Cols = append(req.Cols, ColQuery{Col: 5, Fn: FnOne, ExcludeNull: true})
			}
			benchReqs = append(benchReqs, req)
		}
	})
	return benchSPN, benchReqs
}

// BenchmarkSPNEvalFlat: the compiled kernel with a single-request batch —
// no recursion, no maps, pooled scratch.
func BenchmarkSPNEvalFlat(b *testing.B) {
	s, reqs := benchFixture(b)
	out := make([]float64, 1)
	one := make([]Request, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		one[0] = reqs[i%len(reqs)]
		if err := s.EvaluateBatch(one, out); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSPNEvalFlatBatch16: sixteen requests sharing one pass over the
// flat arrays — the shape a GROUP BY or ExecBatch execution produces. One
// op answers 16 requests; compare ns/op divided by 16 against the
// single-request benchmarks.
func BenchmarkSPNEvalFlatBatch16(b *testing.B) {
	s, reqs := benchFixture(b)
	const batch = 16
	out := make([]float64, batch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := (i * batch) % (len(reqs) - batch + 1)
		if err := s.EvaluateBatch(reqs[lo:lo+batch], out); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(batch, "requests/op")
}

// groupedRequests builds the request shape a GROUP BY execution emits:
// every request shares the query's filter constraints and differs only in
// the group key's point range — the pattern the batch evaluator's
// moment-sharing exploits.
func groupedRequests(n int) []Request {
	reqs := make([]Request, n)
	for i := range reqs {
		reqs[i] = Request{Cols: []ColQuery{
			{Col: 0, Fn: FnOne, Ranges: []Range{PointRange(float64(i % 9))}},
			{Col: 1, Fn: FnOne, Ranges: []Range{{Lo: 0, Hi: 2500, LoIncl: true, HiIncl: true}}},
			{Col: 2, Fn: FnOne, Ranges: []Range{{Lo: -50, Hi: 50, LoIncl: true, HiIncl: false}}},
		}}
	}
	return reqs
}

// BenchmarkSPNEvalFlatGrouped16: sixteen group-key requests in one batched
// pass — shared constraints are evaluated once per leaf, not once per key.
func BenchmarkSPNEvalFlatGrouped16(b *testing.B) {
	s, _ := benchFixture(b)
	reqs := groupedRequests(16)
	out := make([]float64, len(reqs))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.EvaluateBatch(reqs, out); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(reqs)), "requests/op")
}
