package table_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/schema"
	"repro/internal/table"
)

// naturalSchema is Figure 5's customer/orders schema, extended by order
// lines, with the FK columns named like the keys they reference (c_id and
// o_id appear in two tables each, the natural-join case).
func naturalSchema() *schema.Schema {
	return &schema.Schema{Tables: []*schema.Table{
		{Name: "customer", PrimaryKey: "c_id", Columns: []schema.Column{
			{Name: "c_id", Kind: schema.IntKind},
			{Name: "c_age", Kind: schema.IntKind},
			{Name: "c_region", Kind: schema.CategoricalKind},
		}},
		{Name: "orders", PrimaryKey: "o_id", Columns: []schema.Column{
			{Name: "o_id", Kind: schema.IntKind},
			{Name: "c_id", Kind: schema.IntKind, Nullable: true},
			{Name: "o_channel", Kind: schema.CategoricalKind},
		}, ForeignKeys: []schema.ForeignKey{{Column: "c_id", RefTable: "customer", RefColumn: "c_id"}}},
		{Name: "orderline", PrimaryKey: "l_id", Columns: []schema.Column{
			{Name: "l_id", Kind: schema.IntKind},
			{Name: "o_id", Kind: schema.IntKind, Nullable: true},
			{Name: "l_qty", Kind: schema.IntKind, Nullable: true},
		}, ForeignKeys: []schema.ForeignKey{{Column: "o_id", RefTable: "orders", RefColumn: "o_id"}}},
	}}
}

// naturalTables holds Figure 5a's rows plus what the figure leaves out: a
// customer without orders, orders with a NULL FK and with an FK to no
// customer, and the same on the order-line side, some quantities NULL.
func naturalTables(s *schema.Schema) map[string]*table.Table {
	cust := table.New(s.Table("customer"))
	region := cust.Column("c_region")
	for i, r := range []string{"EUROPE", "EUROPE", "ASIA", "ASIA"} {
		cust.AppendRow(table.Int(i+1), table.Int(20+30*i), table.Int(region.Encode(r)))
	}
	ord := table.New(s.Table("orders"))
	channel := ord.Column("o_channel")
	for i, c := range []table.Value{table.Int(1), table.Int(1), table.Int(3), table.Int(3), table.Null(), table.Int(9), table.Int(1)} {
		ord.AppendRow(table.Int(i+1), c, table.Int(channel.Encode([]string{"ONLINE", "STORE"}[i%2])))
	}
	line := table.New(s.Table("orderline"))
	for i, o := range []table.Value{table.Int(1), table.Int(1), table.Int(1), table.Int(4), table.Null(), table.Int(42), table.Int(7), table.Int(3)} {
		qty := table.Int(i % 4)
		if i%3 == 2 {
			qty = table.Null()
		}
		line.AppendRow(table.Int(i+1), o, qty)
	}
	return map[string]*table.Table{"customer": cust, "orders": ord, "orderline": line}
}

// withTupleFactors adds every relationship's tuple-factor column, as
// ensemble construction does before it joins.
func withTupleFactors(t *testing.T, s *schema.Schema, tabs map[string]*table.Table) map[string]*table.Table {
	t.Helper()
	for _, rel := range s.Relationships() {
		if err := table.AddTupleFactor(tabs[rel.One], tabs[rel.Many], rel); err != nil {
			t.Fatal(err)
		}
	}
	return tabs
}

// joinSpecs lists every connected set of two to four tables, each in
// schema order and reversed, so that every table leads a fold somewhere.
func joinSpecs(t *testing.T, s *schema.Schema) []table.JoinSpec {
	t.Helper()
	var out []table.JoinSpec
	n := len(s.Tables)
	for mask := 1; mask < 1<<n; mask++ {
		var names []string
		for i, tb := range s.Tables {
			if mask&(1<<i) != 0 {
				names = append(names, tb.Name)
			}
		}
		if len(names) < 2 || len(names) > 4 {
			continue
		}
		for _, order := range [][]string{names, reversed(names)} {
			edges, err := s.JoinTree(order)
			if err != nil {
				continue // not connected
			}
			out = append(out, table.JoinSpec{Tables: order, Edges: edges})
		}
	}
	if len(out) == 0 {
		t.Fatal("no connected table sets")
	}
	return out
}

func reversed(s []string) []string {
	out := slices.Clone(s)
	slices.Reverse(out)
	return out
}

// joinDiff describes the first difference between two materialized joins
// (names, column names and order, column metadata, cells, NULL flags and
// dictionaries), or returns "".
func joinDiff(got, want *table.Table) string {
	if got.Meta.Name != want.Meta.Name {
		return fmt.Sprintf("name %q, want %q", got.Meta.Name, want.Meta.Name)
	}
	if got.NumRows() != want.NumRows() {
		return fmt.Sprintf("%d rows, want %d", got.NumRows(), want.NumRows())
	}
	if g, w := got.ColumnNames(), want.ColumnNames(); !slices.Equal(g, w) {
		return fmt.Sprintf("columns %v, want %v", g, w)
	}
	if !reflect.DeepEqual(got.Meta.Columns, want.Meta.Columns) {
		return "column metadata differs"
	}
	for i, gc := range got.Cols {
		wc := want.Cols[i]
		if gc.Meta != wc.Meta {
			return fmt.Sprintf("column %s: meta %+v, want %+v", wc.Meta.Name, gc.Meta, wc.Meta)
		}
		for r := range wc.Data {
			if math.Float64bits(gc.Data[r]) != math.Float64bits(wc.Data[r]) || gc.Nul[r] != wc.Nul[r] {
				return fmt.Sprintf("column %s row %d: (%v, null %v), want (%v, null %v)",
					wc.Meta.Name, r, gc.Data[r], gc.Nul[r], wc.Data[r], wc.Nul[r])
			}
		}
		if len(gc.Data) != len(wc.Data) || len(gc.Nul) != len(wc.Nul) {
			return fmt.Sprintf("column %s: %d cells, want %d", wc.Meta.Name, len(gc.Data), len(wc.Data))
		}
		if !reflect.DeepEqual(gc.Dict(), wc.Dict()) {
			return fmt.Sprintf("column %s: dictionary %v, want %v", wc.Meta.Name, gc.Dict(), wc.Dict())
		}
	}
	return ""
}

// gatherDiff checks the row-index view against the materialized join at
// sampled tuples: every column but the indicators, NULL and padding as NaN.
func gatherDiff(j *table.JoinIndex, want *table.Table, rng *rand.Rand) string {
	if j.NumRows() != want.NumRows() {
		return fmt.Sprintf("index has %d tuples, want %d", j.NumRows(), want.NumRows())
	}
	sample := j.SampleRows(25, rng)
	for _, c := range want.Cols {
		if strings.HasPrefix(c.Meta.Name, "__nt_") {
			continue
		}
		got, err := j.Values(c.Meta.Name, sample)
		if err != nil {
			return err.Error()
		}
		for i, r := range sample {
			w := c.Data[r]
			if c.Nul[r] {
				w = math.NaN()
			}
			if math.Float64bits(got[i]) != math.Float64bits(w) && !(math.IsNaN(got[i]) && math.IsNaN(w)) {
				return fmt.Sprintf("column %s tuple %d: %v, want %v", c.Meta.Name, r, got[i], w)
			}
		}
	}
	return ""
}

type joinFixture struct {
	name   string
	schema *schema.Schema
	tables map[string]*table.Table
}

func joinFixtures(t *testing.T) []joinFixture {
	ns := naturalSchema()
	is, it := datagen.IMDb(datagen.IMDbConfig{Titles: 60, Seed: 3})
	ss, st := datagen.SSB(datagen.SSBConfig{ScaleFactor: 0.0003, Seed: 3})
	return []joinFixture{
		{"figure5-natural", ns, withTupleFactors(t, ns, naturalTables(ns))},
		{"imdb", is, withTupleFactors(t, is, it)},
		{"ssb", ss, withTupleFactors(t, ss, st)},
	}
}

// TestJoinsMatchMaterializingReference: FullOuterJoin and InnerJoin, now
// gathered once from the row-index fold, equal the materializing join
// they replaced on every connected table set of three data sets, and the
// row-index view gathers the same cells at sampled tuples. A full join that
// requires every table equals the inner one.
func TestJoinsMatchMaterializingReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, fx := range joinFixtures(t) {
		specs := joinSpecs(t, fx.schema)
		t.Logf("%s: %d join specs", fx.name, len(specs))
		for _, spec := range specs {
			for _, inner := range []bool{false, true} {
				name := fmt.Sprintf("%s/%v/inner=%v", fx.name, spec.Tables, inner)
				join, ref := table.FullOuterJoin, table.FullOuterJoinRef
				if inner {
					join, ref = table.InnerJoin, table.InnerJoinRef
				}
				want, err := ref(fx.tables, spec, false)
				if err != nil {
					t.Fatalf("%s: reference: %v", name, err)
				}
				got, err := join(fx.tables, spec)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if d := joinDiff(got, want); d != "" {
					t.Fatalf("%s: %s", name, d)
				}
				j, err := table.IndexJoin(fx.tables, spec, inner)
				if err != nil {
					t.Fatal(err)
				}
				if d := gatherDiff(j, want, rng); d != "" {
					t.Fatalf("%s: row-index view: %s", name, d)
				}
				if inner {
					// Requiring every table of the full join is the
					// inner join, dropped at the end instead of per step.
					full, err := table.IndexJoin(fx.tables, spec, false)
					if err != nil {
						t.Fatal(err)
					}
					full.Require(spec.Tables)
					if d := joinDiff(full.Table(), want); d != "" {
						t.Fatalf("%s: Require: %s", name, d)
					}
				}
			}
		}
	}
}

// TestJoinComparisonSeesMatchOrder is the must-fail twin: a reference that
// lists each tuple's matches in reverse row order differs from the join,
// on the figure-5 fixture and on IMDb, so the comparison above pins the
// order of the joined rows, not just their multiset.
func TestJoinComparisonSeesMatchOrder(t *testing.T) {
	for _, fx := range joinFixtures(t)[:2] {
		differs := false
		for _, spec := range joinSpecs(t, fx.schema) {
			want, err := table.FullOuterJoinRef(fx.tables, spec, true)
			if err != nil {
				t.Fatal(err)
			}
			got, err := table.FullOuterJoin(fx.tables, spec)
			if err != nil {
				t.Fatal(err)
			}
			differs = differs || joinDiff(got, want) != ""
		}
		if !differs {
			t.Fatalf("%s: reversing the match order changed no join", fx.name)
		}
	}
}
