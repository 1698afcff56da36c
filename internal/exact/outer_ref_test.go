package exact

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/query"
	"repro/internal/schema"
	"repro/internal/table"
)

// materializeOuterRef is materialize's outer-join branch as it was before
// it kept the join as row indices: the full outer join materialized, each
// non-outer table's indicator column looked up by name for every row, and
// the kept rows copied once more through Select. It is the reference the
// index join is held to, bit for bit.
func materializeOuterRef(e *Engine, tables, outer []string) (*table.Table, error) {
	edges, err := e.Schema.JoinTree(tables)
	if err != nil {
		return nil, err
	}
	isOuter := map[string]bool{}
	for _, t := range outer {
		isOuter[t] = true
	}
	j, err := table.Join(e.Tables, table.JoinSpec{Tables: tables, Edges: edges}, false)
	if err != nil {
		return nil, err
	}
	full := j.Decode(nil).Table()
	var keep []int
	for i := 0; i < full.NumRows(); i++ {
		ok := true
		for _, tn := range tables {
			if isOuter[tn] {
				continue
			}
			ind := full.Column(table.IndicatorColumn(tn))
			if ind == nil || ind.Data[i] != 1 {
				ok = false
				break
			}
		}
		if ok {
			keep = append(keep, i)
		}
	}
	return full.Select(keep), nil
}

// chain3 is a three-table chain customer <- orders <- items with every
// kind of padding: customers without orders, orders whose customer is
// missing or NULL, items whose order is missing, NULL cells.
func chain3(t *testing.T) (*schema.Schema, map[string]*table.Table) {
	t.Helper()
	s := &schema.Schema{Tables: []*schema.Table{
		{Name: "customer", PrimaryKey: "c_id", Columns: []schema.Column{
			{Name: "c_id", Kind: schema.IntKind},
			{Name: "c_age", Kind: schema.IntKind, Nullable: true},
		}},
		{Name: "orders", PrimaryKey: "o_id", Columns: []schema.Column{
			{Name: "o_id", Kind: schema.IntKind},
			{Name: "o_c_id", Kind: schema.IntKind, Nullable: true},
			{Name: "o_amount", Kind: schema.FloatKind, Nullable: true},
		}, ForeignKeys: []schema.ForeignKey{{Column: "o_c_id", RefTable: "customer", RefColumn: "c_id"}}},
		{Name: "items", PrimaryKey: "i_id", Columns: []schema.Column{
			{Name: "i_id", Kind: schema.IntKind},
			{Name: "i_o_id", Kind: schema.IntKind},
			{Name: "i_qty", Kind: schema.IntKind},
		}, ForeignKeys: []schema.ForeignKey{{Column: "i_o_id", RefTable: "orders", RefColumn: "o_id"}}},
	}}
	cust := table.New(s.Table("customer"))
	for c := 0; c < 40; c++ {
		age := table.Int(20 + c%50)
		if c%9 == 0 {
			age = table.Null()
		}
		cust.AppendRow(table.Int(c), age)
	}
	ord := table.New(s.Table("orders"))
	for o := 0; o < 90; o++ {
		cid := table.Int((o * 7) % 55) // ids 40..54 have no customer
		if o%11 == 0 {
			cid = table.Null()
		}
		amount := table.Float(float64(o%13) + 0.25)
		if o%17 == 0 {
			amount = table.Null()
		}
		ord.AppendRow(table.Int(o), cid, amount)
	}
	items := table.New(s.Table("items"))
	for i := 0; i < 150; i++ {
		items.AppendRow(table.Int(i), table.Int((i*5)%110), table.Int(1+i%4)) // orders 90..109 are missing
	}
	return s, map[string]*table.Table{"customer": cust, "orders": ord, "items": items}
}

// sameTable fails t unless got and want hold the same columns, in order,
// with the same bits.
func sameTable(t *testing.T, what string, got, want *table.Table) {
	t.Helper()
	if got.Meta.Name != want.Meta.Name || got.NumRows() != want.NumRows() || len(got.Cols) != len(want.Cols) {
		t.Fatalf("%s: %s with %d rows, %d columns; want %s with %d rows, %d columns", what,
			got.Meta.Name, got.NumRows(), len(got.Cols), want.Meta.Name, want.NumRows(), len(want.Cols))
	}
	for i, gc := range got.Cols {
		wc := want.Cols[i]
		if gc.Meta != wc.Meta || !reflect.DeepEqual(gc.Nul, wc.Nul) {
			t.Fatalf("%s: column %d is %+v, want %+v (or NULLs differ)", what, i, gc.Meta, wc.Meta)
		}
		for r := range gc.Data {
			if math.Float64bits(gc.Data[r]) != math.Float64bits(wc.Data[r]) {
				t.Fatalf("%s: %s row %d is %v, want %v", what, gc.Meta.Name, r, gc.Data[r], wc.Data[r])
			}
		}
	}
}

// TestMaterializeOuterMatchesReference: on the figure-5 data and a
// three-table chain, for every join and every non-empty set of outer
// tables, the joined relation and the answers to a COUNT, a grouped COUNT
// and an AVG over it are the reference's, bit for bit.
func TestMaterializeOuterMatchesReference(t *testing.T) {
	type fixture struct {
		name  string
		build func(*testing.T) (*schema.Schema, map[string]*table.Table)
		joins [][]string
		group string
		avg   string
	}
	for _, fx := range []fixture{
		{"figure5", figure5, [][]string{{"customer", "orders"}, {"orders", "customer"}}, "c_region", "c_age"},
		{"chain3", chain3, [][]string{{"customer", "orders"}, {"orders", "items"}, {"customer", "orders", "items"}, {"items", "orders", "customer"}},
			"i_qty", "o_amount"},
	} {
		s, tabs := fx.build(t)
		for _, tables := range fx.joins {
			for mask := 1; mask < 1<<len(tables); mask++ {
				var outer []string
				for i, tn := range tables {
					if mask&(1<<i) != 0 {
						outer = append(outer, tn)
					}
				}
				what := fmt.Sprintf("%s %v outer %v", fx.name, tables, outer)
				e := New(s, tabs)
				got, err := e.materialize(tables, outer)
				if err != nil {
					t.Fatal(err)
				}
				want, err := materializeOuterRef(e, tables, outer)
				if err != nil {
					t.Fatal(err)
				}
				sameTable(t, what, got, want)

				ref := New(s, tabs)
				ref.joinCache[joinKey(tables, outer)] = want
				for _, q := range []query.Query{
					{Aggregate: query.Count, Tables: tables, OuterTables: outer},
					{Aggregate: query.Count, Tables: tables, OuterTables: outer, GroupBy: []string{fx.group}},
					{Aggregate: query.Avg, AggColumn: fx.avg, Tables: tables, OuterTables: outer},
				} {
					if got.Column(q.AggColumn) == nil && q.AggColumn != "" || got.Column(fx.group) == nil && len(q.GroupBy) > 0 {
						continue
					}
					a, errA := e.ExecuteContext(context.Background(), q)
					b, errB := ref.ExecuteContext(context.Background(), q)
					// %v tells every float apart but NaN payloads, and
					// prints NaN equal to itself.
					if (errA == nil) != (errB == nil) || fmt.Sprintf("%v", a) != fmt.Sprintf("%v", b) {
						t.Fatalf("%s %v: %+v (%v), reference %+v (%v)", what, q.Aggregate, a, errA, b, errB)
					}
				}
			}
		}
	}
}

// TestJoinAnswersIgnoreCacheHistory: a join's answers depend on the table
// it starts from, which decides the fold and so the row order a SUM or AVG
// adds in, and never on the orders an engine was asked for before. For
// every order of every join, with and without outer tables, a fresh engine
// and one warmed with every other order of the same join answer bit for
// bit alike; orders with the same first table answer alike; and orders
// with different first tables do not, or the fixture could not tell.
func TestJoinAnswersIgnoreCacheHistory(t *testing.T) {
	s, tabs := chain3(t)
	// Amounts of mixed magnitudes, so a sum rounds differently in another
	// order.
	rng := rand.New(rand.NewSource(5))
	amount := tabs["orders"].Column("o_amount")
	for i := range amount.Data {
		if !amount.Nul[i] {
			amount.Data[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(8)))
		}
	}
	joins := [][][]string{
		{{"customer", "orders"}, {"orders", "customer"}},
		{{"customer", "orders", "items"}, {"customer", "items", "orders"}, {"orders", "customer", "items"},
			{"orders", "items", "customer"}, {"items", "orders", "customer"}},
	}
	answer := func(e *Engine, q query.Query) string {
		res, err := e.ExecuteContext(context.Background(), q)
		return fmt.Sprintf("%v %v", res, err)
	}
	startsDiffer := false
	for _, orders := range joins {
		for _, outer := range [][]string{nil, {"customer"}} {
			for _, q := range []query.Query{
				{Aggregate: query.Sum, AggColumn: "o_amount"},
				{Aggregate: query.Avg, AggColumn: "o_amount", GroupBy: []string{"c_age"}},
			} {
				q.OuterTables = outer
				byStart := map[string]string{}
				for i, tables := range orders {
					q.Tables = tables
					want := answer(New(s, tabs), q)
					warmed := New(s, tabs)
					for j, other := range orders {
						if j != i {
							w := q
							w.Tables = other
							answer(warmed, w)
						}
					}
					if got := answer(warmed, q); got != want {
						t.Fatalf("%v outer %v %v: warmed engine %s, fresh %s", tables, outer, q.Aggregate, got, want)
					}
					if prev, ok := byStart[tables[0]]; ok && prev != want {
						t.Fatalf("%v outer %v %v: %s, but another order from %s gave %s", tables, outer, q.Aggregate, want, tables[0], prev)
					}
					byStart[tables[0]] = want
				}
				for _, a := range byStart {
					if a != byStart[orders[0][0]] {
						startsDiffer = true
					}
				}
			}
		}
	}
	if !startsDiffer {
		t.Fatal("every first table gave the same answers: the fixture cannot show a cache that ignores it")
	}
}
