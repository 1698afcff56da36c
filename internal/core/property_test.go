package core

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/ensemble"
	"repro/internal/query"
	"repro/internal/schema"
	"repro/internal/table"
)

// Property-style tests over randomly generated queries on the chain
// fixture: the engine must satisfy structural invariants for every query in
// its supported class, not just hand-picked ones.

// randomChainQuery draws a random COUNT query over the chain schema.
func randomChainQuery(rng *rand.Rand) query.Query {
	tableSets := [][]string{
		{"customer"}, {"orders"}, {"orderline"},
		{"customer", "orders"}, {"orders", "orderline"},
		{"customer", "orders", "orderline"},
	}
	tables := tableSets[rng.Intn(len(tableSets))]
	var filters []query.Predicate
	candidates := []struct {
		col    string
		owner  string
		lo, hi float64
	}{
		{"c_age", "customer", 20, 80},
		{"c_region", "customer", 0, 2},
		{"o_channel", "orders", 0, 2},
		{"l_qty", "orderline", 0, 25},
	}
	inSet := map[string]bool{}
	for _, t := range tables {
		inSet[t] = true
	}
	for _, c := range candidates {
		if !inSet[c.owner] || rng.Float64() < 0.5 {
			continue
		}
		v := c.lo + math.Floor(rng.Float64()*(c.hi-c.lo))
		ops := []query.Op{query.Eq, query.Le, query.Ge, query.Lt, query.Gt, query.Ne}
		filters = append(filters, query.Predicate{Column: c.col, Op: ops[rng.Intn(len(ops))], Value: v})
	}
	return query.Query{Aggregate: query.Count, Tables: tables, Filters: filters}
}

func TestCountEstimatesNonNegativeAndBounded(t *testing.T) {
	eng, oracle := buildChainEngine(t, 0)
	rng := rand.New(rand.NewSource(77))
	for i := 0; i < 60; i++ {
		q := randomChainQuery(rng)
		est, err := eng.EstimateCardinality(q)
		if err != nil {
			t.Fatalf("%v: %v", q, err)
		}
		if est.Value < 0 {
			t.Fatalf("%v: negative estimate %v", q, est.Value)
		}
		if est.Variance < 0 {
			t.Fatalf("%v: negative variance %v", q, est.Variance)
		}
		// An unfiltered version must estimate at least as many rows.
		uq := q
		uq.Filters = nil
		uest, err := eng.EstimateCardinality(uq)
		if err != nil {
			t.Fatal(err)
		}
		if est.Value > uest.Value*1.01+1 {
			t.Fatalf("%v: filtered estimate %v exceeds unfiltered %v", q, est.Value, uest.Value)
		}
		// And stay within a sane factor of the exact join size.
		js, err := oracle.JoinSize(q.Tables)
		if err != nil {
			t.Fatal(err)
		}
		if est.Value > js*1.5+1 {
			t.Fatalf("%v: estimate %v far exceeds join size %v", q, est.Value, js)
		}
	}
}

func TestFilterMonotonicity(t *testing.T) {
	eng, _ := buildChainEngine(t, 0)
	rng := rand.New(rand.NewSource(78))
	for i := 0; i < 40; i++ {
		q := randomChainQuery(rng)
		est, err := eng.EstimateCardinality(q)
		if err != nil {
			t.Fatal(err)
		}
		// Adding one more conjunct can only shrink the estimate (the term
		// adds constraints to the same expectation).
		extra := q.WithExtraFilter(query.Predicate{Column: firstColOf(q), Op: query.Ge, Value: 1})
		est2, err := eng.EstimateCardinality(extra)
		if err != nil {
			t.Fatal(err)
		}
		if est2.Value > est.Value*1.01+1e-9 {
			t.Fatalf("%v: adding a filter grew the estimate %v -> %v", q, est.Value, est2.Value)
		}
	}
}

func firstColOf(q query.Query) string {
	switch q.Tables[0] {
	case "customer":
		return "c_age"
	case "orders":
		return "o_channel"
	default:
		return "l_qty"
	}
}

func TestSumConsistentWithCountTimesAvg(t *testing.T) {
	eng, _ := buildChainEngine(t, 0)
	q := query.Query{Aggregate: query.Sum, AggColumn: "l_qty",
		Tables:  []string{"orders", "orderline"},
		Filters: []query.Predicate{{Column: "o_channel", Op: query.Eq, Value: 1}}}
	sum, err := eng.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	cq := q
	cq.Aggregate = query.Count
	cq.AggColumn = ""
	cnt, err := eng.Execute(cq)
	if err != nil {
		t.Fatal(err)
	}
	aq := q
	aq.Aggregate = query.Avg
	avg, err := eng.Execute(aq)
	if err != nil {
		t.Fatal(err)
	}
	product := cnt.Groups[0].Estimate.Value * avg.Groups[0].Estimate.Value
	s := sum.Groups[0].Estimate.Value
	if s == 0 || math.Abs(product-s)/s > 0.2 {
		t.Fatalf("SUM %v vs COUNT*AVG %v inconsistent", s, product)
	}
}

func TestGroupEstimatesSumToTotal(t *testing.T) {
	eng, _ := buildChainEngine(t, 0)
	q := query.Query{Aggregate: query.Count, Tables: []string{"customer"},
		GroupBy: []string{"c_region"}}
	res, err := eng.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, g := range res.Groups {
		total += g.Estimate.Value
	}
	uq := q
	uq.GroupBy = nil
	all, err := eng.Execute(uq)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(total-all.Groups[0].Estimate.Value)/all.Groups[0].Estimate.Value > 0.05 {
		t.Fatalf("group estimates sum to %v, ungrouped total %v", total, all.Groups[0].Estimate.Value)
	}
}

func TestVarianceShrinksWithConstantScale(t *testing.T) {
	a := Estimate{Value: 100, Variance: 25}
	down := scaleEstimate(a, 0.1)
	if down.Variance != 0.25 {
		t.Fatalf("scaled variance = %v, want 0.25", down.Variance)
	}
}

func TestCIWidthGrowsWithSelectivity(t *testing.T) {
	eng, _ := buildChainEngine(t, 0)
	// A rarer predicate has fewer effective samples, so the *relative* CI
	// width should not shrink.
	broad := query.Query{Aggregate: query.Count, Tables: []string{"customer"},
		Filters: []query.Predicate{{Column: "c_age", Op: query.Ge, Value: 25}}}
	narrow := query.Query{Aggregate: query.Count, Tables: []string{"customer"},
		Filters: []query.Predicate{{Column: "c_age", Op: query.Ge, Value: 75}}}
	rb, err := eng.Execute(broad)
	if err != nil {
		t.Fatal(err)
	}
	rn, err := eng.Execute(narrow)
	if err != nil {
		t.Fatal(err)
	}
	relWidth := func(g AQPGroup) float64 {
		if g.Estimate.Value == 0 {
			return 0
		}
		return (g.CIHigh - g.CILow) / g.Estimate.Value
	}
	if relWidth(rn.Groups[0]) < relWidth(rb.Groups[0]) {
		t.Fatalf("relative CI of narrow query (%v) should be wider than broad (%v)",
			relWidth(rn.Groups[0]), relWidth(rb.Groups[0]))
	}
}

func TestConcurrentQueries(t *testing.T) {
	// The engine's query path is read-only and must be safe for parallel
	// use (run with -race to verify).
	eng, _ := buildChainEngine(t, 0)
	rng := rand.New(rand.NewSource(123))
	queries := make([]query.Query, 16)
	for i := range queries {
		queries[i] = randomChainQuery(rng)
	}
	done := make(chan error, 8)
	for w := 0; w < 8; w++ {
		go func(w int) {
			for i := 0; i < 20; i++ {
				if _, err := eng.EstimateCardinality(queries[(w+i)%len(queries)]); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(w)
	}
	for w := 0; w < 8; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestCompileConcurrentWithUpdates: eight goroutines compile distinct
// shapes on one engine while an updater publishes copy-on-write clones of
// its ensemble — each sharing the schema, hence its FK graph index — and
// compiles on every clone. The schema is fresh, so the first readers race
// to build the index. Every plan explains exactly as it did compiled
// alone. Run with -race (check.sh's race stage does).
func TestCompileConcurrentWithUpdates(t *testing.T) {
	base := goldenEngine(t, "imdb")
	ens := *base.Ens
	ens.Schema = &schema.Schema{Tables: base.Ens.Schema.Tables}
	eng := New(&ens)
	var qs []query.Query
	var want []string
	for _, c := range goldenMatrix {
		if c.fixture != "imdb" || c.median || c.outer != nil {
			continue
		}
		q, err := query.Parse(c.sql, nil)
		if err != nil {
			t.Fatal(err)
		}
		p, err := base.Compile(q)
		if err != nil {
			t.Fatal(err)
		}
		qs, want = append(qs, q), append(want, p.Explain())
	}
	if len(qs) < 8 {
		t.Fatalf("%d shapes, want 8", len(qs))
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				p, err := eng.Compile(qs[w])
				if err != nil {
					t.Error(err)
					return
				}
				if got := p.Explain(); got != want[w] {
					t.Errorf("shape %d compiled under load:\n%s\nwant\n%s", w, got, want[w])
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		cur := &ens
		for i := 0; i < 30; i++ {
			muts := []ensemble.Mutation{{Op: ensemble.OpInsert, Table: "movie_keyword", Values: map[string]table.Value{
				"mk_id": table.Int(1_000_000 + i), "mk_t_id": table.Int(i % 400), "mk_keyword_id": table.Int(i % 50)}}}
			next := cur.CloneForUpdate(muts)
			if _, err := next.Apply(muts); err != nil {
				t.Error(err)
				return
			}
			if next.Schema != ens.Schema {
				t.Error("a clone stopped sharing the schema")
				return
			}
			if _, err := New(next).Compile(qs[i%len(qs)]); err != nil {
				t.Error(err)
				return
			}
			cur = next
		}
	}()
	wg.Wait()
}
