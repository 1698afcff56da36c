package ensemble

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/schema"
	"repro/internal/spn"
	"repro/internal/stats"
	"repro/internal/table"
)

// withClusters returns s and tabs plus a table "clusters" of 9 000 rows
// whose two columns both follow one of three clusters, so they are
// dependent and the table's member splits its rows with KMeans at its
// root, over more than stats.KMeansParallelPoints points. The schema is a
// new value, as a schema must not be edited once indexed.
func withClusters(s *schema.Schema, tabs map[string]*table.Table) (*schema.Schema, map[string]*table.Table) {
	meta := &schema.Table{Name: "clusters", Columns: []schema.Column{
		{Name: "k_x", Kind: schema.FloatKind},
		{Name: "k_y", Kind: schema.FloatKind},
	}}
	t := table.New(meta)
	rng := rand.New(rand.NewSource(6))
	for r := 0; r < 9000; r++ {
		c := float64(rng.Intn(3))
		t.AppendRow(table.Float(10*c+rng.NormFloat64()), table.Float(5*c+rng.NormFloat64()))
	}
	tabs["clusters"] = t
	return &schema.Schema{Tables: append(append([]*schema.Table(nil), s.Tables...), meta)}, tabs
}

// largestSum returns the most rows any sum node of the model splits.
func largestSum(n *spn.Node) float64 {
	most := 0.0
	if n.Kind == spn.SumKind {
		for _, c := range n.ChildCounts {
			most += c
		}
	}
	for _, c := range n.Children {
		most = math.Max(most, largestSum(c))
	}
	return most
}

// TestBuildWorkersAgree: the members learn concurrently, the budget's
// candidates are scored while the base members learn, and a large KMeans
// pass splits its points over the workers; the worker count changes
// nothing a model holds. IMDb's star gives the budget several three- and
// four-table candidates, so optimize learns more than one member at once
// too, and the added clusters member splits more than
// stats.KMeansParallelPoints rows.
func TestBuildWorkersAgree(t *testing.T) {
	build := func(workers int) *Ensemble {
		s, tabs := withClusters(datagen.IMDb(datagen.IMDbConfig{Titles: 60, Seed: 2}))
		cfg := testConfig().withWorkers(workers)
		cfg.BudgetFactor = 1
		cfg.MaxSamples = 10000
		cfg.SPN.RDCSample = 200
		cfg.SPN.MinInstanceFrac = 0.3
		e, err := Build(context.Background(), s, tabs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	one, four := build(1), build(4)
	multi := 0
	for _, r := range one.RSPNs {
		if len(r.Tables) > 2 {
			multi++
		}
	}
	if multi < 2 {
		t.Fatalf("the budget admitted %d members over three or more tables; the fixture needs two", multi)
	}
	largest := 0.0
	for _, r := range one.RSPNs {
		largest = math.Max(largest, largestSum(r.Model.Root))
	}
	if largest < stats.KMeansParallelPoints {
		t.Fatalf("the largest sum node splits %v rows; the fixture needs %d", largest, stats.KMeansParallelPoints)
	}
	for _, c := range []struct {
		name      string
		got, want any
	}{
		{"RSPNs", four.RSPNs, one.RSPNs},
		{"AttrRDC", four.AttrRDC, one.AttrRDC},
		{"PairDep", four.PairDep, one.PairDep},
		{"Stats", four.Stats, one.Stats},
	} {
		if !reflect.DeepEqual(c.got, c.want) {
			t.Errorf("%s differ between 4 workers and 1", c.name)
		}
	}
}

// twoGroups is a single table of 4 000 rows whose columns form two
// groups, each dependent within and independent of the other, so the
// member's root splits into a product of two multi-column children.
func twoGroups() (*schema.Schema, map[string]*table.Table) {
	var cols []schema.Column
	for _, g := range []string{"a", "b"} {
		for i := 0; i < 3; i++ {
			cols = append(cols, schema.Column{Name: fmt.Sprintf("%s%d", g, i), Kind: schema.FloatKind})
		}
	}
	s := &schema.Schema{Tables: []*schema.Table{{Name: "t", Columns: cols}}}
	t := table.New(s.Table("t"))
	rng := rand.New(rand.NewSource(4))
	for r := 0; r < 4000; r++ {
		var row []table.Value
		for g := 0; g < 2; g++ {
			latent := math.Floor(rng.Float64() * 5)
			for i := 0; i < 3; i++ {
				row = append(row, table.Float(latent*float64(i+1)+rng.NormFloat64()))
			}
		}
		t.AppendRow(row...)
	}
	return s, map[string]*table.Table{"t": t}
}

// TestBuildWorkersAgreeInsideMember: a member's column-split tests run
// their pairs concurrently too, and the worker count changes nothing a
// model holds. The member has more training rows than one test samples,
// so the tests draw their samples from the learner's stream, and its root
// is a product of two multi-column children, whose subtrees share that
// stream: building them concurrently would change the model.
func TestBuildWorkersAgreeInsideMember(t *testing.T) {
	build := func(workers int) *Ensemble {
		s, tabs := twoGroups()
		cfg := testConfig().withWorkers(workers)
		cfg.SPN.RDCSample = 300
		e, err := Build(context.Background(), s, tabs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	one, four := build(1), build(4)
	m := one.RSPNs[0].Model
	multi := 0
	for _, c := range m.Root.Children {
		if len(c.Scope) > 1 {
			multi++
		}
	}
	if len(m.Columns) < 4 || m.RowCount <= float64(one.cfg.SPN.RDCSample) || m.Root.Kind != spn.ProductKind || multi < 2 {
		t.Fatalf("the member has %d columns, %v training rows and a root of kind %v with %d multi-column children; the fixture needs 4, more than %d, and a product with 2",
			len(m.Columns), m.RowCount, m.Root.Kind, multi, one.cfg.SPN.RDCSample)
	}
	for _, c := range []struct {
		name      string
		got, want any
	}{
		{"RSPNs", four.RSPNs, one.RSPNs},
		{"AttrRDC", four.AttrRDC, one.AttrRDC},
		{"Stats", four.Stats, one.Stats},
	} {
		if !reflect.DeepEqual(c.got, c.want) {
			t.Errorf("%s differ between 4 workers and 1", c.name)
		}
	}
}

// wideChain is testSchema's customer <- orders <- orderline chain with
// data from genData, orderline carrying extra unread columns.
func wideChain(t *testing.T, extra int) *Ensemble {
	t.Helper()
	s := testSchema()
	tabs := genData(s, 2000, true, 1)
	line := tabs["orderline"]
	for k := 0; k < extra; k++ {
		c := table.NewColumn(schema.Column{Name: fmt.Sprintf("l_pad%d", k), Kind: schema.FloatKind})
		for i := 0; i < line.NumRows(); i++ {
			c.Append(table.Float(float64(i * k)))
		}
		if err := line.AddColumn(c); err != nil {
			t.Fatal(err)
		}
	}
	return &Ensemble{Schema: s, Tables: tabs, AttrRDC: map[string]float64{}, cfg: testConfig(), rng: rand.New(rand.NewSource(1))}
}

// dependencyBytes is the fewest bytes any of 8 runs allocated computing the
// customer/orders dependency over the three-table join.
func dependencyBytes(t *testing.T, e *Ensemble) uint64 {
	t.Helper()
	best := uint64(math.MaxUint64)
	var m0, m1 runtime.MemStats
	for i := 0; i < 8; i++ {
		runtime.ReadMemStats(&m0)
		j, err := e.innerJoin([]string{"customer", "orders", "orderline"})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.crossTableDependency(j, "customer", "orders"); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&m1)
		best = min(best, m1.TotalAlloc-m0.TotalAlloc)
	}
	return best
}

// TestDependencyBytesDoNotGrowWithUnreadColumns is the noise-free cost
// gate of the dependency test: a cross-table dependency reads the sampled
// tuples of its two tables' attribute columns only, so 16 more columns on
// a third joined table cost it within 10 %. (While the join materialized
// every column, twice, the bytes grew with them.)
func TestDependencyBytesDoNotGrowWithUnreadColumns(t *testing.T) {
	narrow := dependencyBytes(t, wideChain(t, 0))
	wide := dependencyBytes(t, wideChain(t, 16))
	if float64(wide) > 1.1*float64(narrow) {
		t.Fatalf("one dependency allocates %d B with orderline's 3 columns and %d B with 16 more (%.2f×): the cost grows with columns it does not read",
			narrow, wide, float64(wide)/float64(narrow))
	}
	t.Logf("one dependency: %d B narrow, %d B wide", narrow, wide)
}

// cancelOnDone is a context that cancels itself the first time someone
// asks for its Done channel. Build and its member loop only call Err; the
// first to ask for Done is a member's structure learner, so the
// cancellation lands during base learning.
type cancelOnDone struct {
	context.Context
	cancel context.CancelFunc
	once   sync.Once
	at     time.Time
}

func (c *cancelOnDone) Done() <-chan struct{} {
	c.once.Do(func() {
		c.at = time.Now()
		c.cancel()
	})
	return c.Context.Done()
}

// scoringTime is how long scoring the budget's candidates takes on its
// own, from the state Build scores them in.
func scoringTime(t *testing.T, s *schema.Schema, tabs map[string]*table.Table, cfg Config) time.Duration {
	t.Helper()
	e := &Ensemble{Schema: s, Tables: tabs, AttrRDC: map[string]float64{}, PairDep: map[string]float64{},
		cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
	for _, rel := range s.Relationships() {
		if err := table.AddTupleFactor(tabs[rel.One], tabs[rel.Many], rel); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.computeDependencies(); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	cands, err := e.candidates(context.Background(), e.baseJobs())
	if err != nil || len(cands) == 0 {
		t.Fatalf("scoring gave %d candidates, error %v; the fixture needs some", len(cands), err)
	}
	return time.Since(start)
}

// TestBuildCancelDuringBaseLearning: cancelling while the base members
// learn makes Build return ctx.Err() promptly — the candidate scoring
// that runs beside them checks ctx between subsets, so it does not finish
// scoring first. Promptly is within half the time scoring takes on its
// own, taking the best of three tries against scheduling noise.
func TestBuildCancelDuringBaseLearning(t *testing.T) {
	fixture := func() (*schema.Schema, map[string]*table.Table) {
		return datagen.IMDb(datagen.IMDbConfig{Titles: 1000, Seed: 2})
	}
	cfg := testConfig()
	cfg.BudgetFactor = 1
	s, tabs := fixture()
	scoring := scoringTime(t, s, tabs, cfg)
	for _, workers := range []int{1, 2} {
		late := time.Duration(math.MaxInt64)
		for try := 0; try < 3 && late > scoring/2; try++ {
			ctx, cancel := context.WithCancel(context.Background())
			c := &cancelOnDone{Context: ctx, cancel: cancel}
			s, tabs := fixture()
			e, err := Build(c, s, tabs, cfg.withWorkers(workers))
			if c.at.IsZero() {
				t.Fatalf("workers=%d: Build never asked for ctx.Done", workers)
			}
			late = min(late, time.Since(c.at))
			if !errors.Is(err, context.Canceled) || e != nil {
				t.Fatalf("workers=%d: cancelled Build returned (%v, %v), want (nil, context.Canceled)", workers, e, err)
			}
		}
		if late > scoring/2 {
			t.Fatalf("workers=%d: Build returned %v after the cancellation; scoring alone takes %v", workers, late, scoring)
		}
		t.Logf("workers=%d: returned %v after the cancellation; scoring alone takes %v", workers, late, scoring)
	}
}
