package ensemble

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/datagen"
	"repro/internal/schema"
	"repro/internal/spn"
	"repro/internal/table"
)

// TestBuildWorkersAgree: the members learn concurrently, and the worker
// count changes nothing a model holds. IMDb's star gives the budget
// several three- and four-table candidates, so optimize learns more than
// one member at once too.
func TestBuildWorkersAgree(t *testing.T) {
	build := func(workers int) *Ensemble {
		s, tabs := datagen.IMDb(datagen.IMDbConfig{Titles: 60, Seed: 2})
		cfg := testConfig().withWorkers(workers)
		cfg.BudgetFactor = 1
		cfg.MaxSamples = 200
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
