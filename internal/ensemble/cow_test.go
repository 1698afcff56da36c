package ensemble

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/schema"
	"repro/internal/table"
)

// tableBits is a deep copy of what a reader of one base table can see.
type tableBits struct {
	rows int
	dead []int
	data [][]uint64
	nul  [][]bool
}

func snapshotTables(e *Ensemble) map[string]tableBits {
	out := make(map[string]tableBits, len(e.Tables))
	for name, t := range e.Tables {
		b := tableBits{rows: t.NumRows(), dead: append([]int(nil), t.Dead()...)}
		for _, c := range t.Cols {
			bits := make([]uint64, len(c.Data))
			for i, v := range c.Data {
				bits[i] = math.Float64bits(v)
			}
			b.data = append(b.data, bits)
			b.nul = append(b.nul, append([]bool(nil), c.Nul...))
		}
		out[name] = b
	}
	return out
}

// orderlineInserts inserts n new order lines referencing existing orders,
// each bumping the referenced order's tuple factor.
func orderlineInserts(n, from int) []Mutation {
	muts := make([]Mutation, n)
	for i := range muts {
		muts[i] = Mutation{Op: OpInsert, Table: "orderline", Values: map[string]table.Value{
			"l_id": table.Int(800000 + from + i), "l_o_id": table.Int((from + i) % 40), "l_qty": table.Int(i % 7),
		}}
	}
	return muts
}

// TestCloneForUpdateLeavesBaseTablesBitIdentical: the clone's tables share
// the base's column arrays, yet after CloneForUpdate + Apply every base
// table shows exactly what it showed before — every column's Data and Nul
// and its row and tombstone counts — through inserts, deletes, factor bumps
// both ways and a batch that outgrows the shared arrays' capacity; and a
// delete on the clone leaves the base's live rows as they were. The second
// round checks the first clone in turn, as a published snapshot.
func TestCloneForUpdateLeavesBaseTablesBitIdentical(t *testing.T) {
	base, _ := buildPair(t)
	ol := base.Tables["orderline"]
	grow := cap(ol.Cols[0].Data) - ol.NumRows() + 3
	for round, cur := 0, base; round < 2; round++ {
		muts := append(orderlineInserts(grow, round*grow),
			Mutation{Op: OpInsert, Table: "orders", Values: map[string]table.Value{
				"o_id": table.Int(900000 + round), "o_c_id": table.Int(7), "o_channel": table.Int(1)}},
			Mutation{Op: OpDelete, Table: "orderline", PK: float64(10 + round)},
			Mutation{Op: OpDelete, Table: "orders", PK: float64(20 + round)},
		)
		want := snapshotTables(cur)
		liveOrders := cur.Tables["orders"].Live().NumRows()
		next := cur.CloneForUpdate(muts)
		if n, err := next.Apply(muts); err != nil || n != len(muts) {
			t.Fatalf("round %d: Apply = %d, %v", round, n, err)
		}
		if got := snapshotTables(cur); !reflect.DeepEqual(got, want) {
			for name := range want {
				if !reflect.DeepEqual(got[name], want[name]) {
					t.Fatalf("round %d: base table %s changed under its clone's batch", round, name)
				}
			}
		}
		if got := cur.Tables["orders"].Live().NumRows(); got != liveOrders {
			t.Fatalf("round %d: base has %d live orders after a delete on its clone, want %d", round, got, liveOrders)
		}
		if got, want := next.Tables["orderline"].NumRows(), cur.Tables["orderline"].NumRows()+grow; got != want {
			t.Fatalf("round %d: clone has %d order lines, want %d", round, got, want)
		}
		if got := next.Tables["orders"].Live().NumRows(); got != liveOrders {
			t.Fatalf("round %d: clone has %d live orders, want %d (one inserted, one deleted)", round, got, liveOrders)
		}
		cur = next
	}
}

// insertCustomer is a one-row batch inserting customer c.
func insertCustomer(c int) []Mutation {
	return []Mutation{{Op: OpInsert, Table: "customer", Values: map[string]table.Value{
		"c_id": table.Int(c), "c_age": table.Int(40), "c_region": table.Int(2)}}}
}

// TestApplyRefusesABranch: the write index maps each primary key to one
// row, so history must be linear. A second clone of one base, and a base
// after its clone applied, are refused with nothing mutated; a batch in
// which nothing applied leaves the head where it was, so the base it was
// cloned from — what a shard republishes then — still takes the next one.
func TestApplyRefusesABranch(t *testing.T) {
	base, _ := buildPair(t)
	a, b := base.CloneForUpdate(insertCustomer(910001)), base.CloneForUpdate(insertCustomer(910002))
	if _, err := a.Apply(insertCustomer(910001)); err != nil {
		t.Fatal(err)
	}
	beforeB, probesB := snapshotTables(b), probes(t, b)
	if n, err := b.Apply(insertCustomer(910002)); err == nil || n != 0 {
		t.Fatalf("second branch: Apply = %d, %v; want a refusal", n, err)
	}
	if !reflect.DeepEqual(snapshotTables(b), beforeB) || !reflect.DeepEqual(probes(t, b), probesB) {
		t.Fatal("a refused Apply mutated its ensemble")
	}
	if _, ok := a.lookupPK("customer", 910002); ok {
		t.Fatal("a refused Apply reached the write index")
	}
	if _, err := base.Apply(insertCustomer(910003)); err == nil {
		t.Fatal("Apply to the base after its clone applied was accepted")
	}

	missing := []Mutation{{Op: OpDelete, Table: "customer", PK: -1}}
	if n, err := a.CloneForUpdate(missing).Apply(missing); err == nil || n != 0 {
		t.Fatalf("delete of a missing key: Apply = %d, %v", n, err)
	}
	c := a.CloneForUpdate(insertCustomer(910004))
	if _, err := c.Apply(insertCustomer(910004)); err != nil {
		t.Fatalf("a batch in which nothing applied moved the head: %v", err)
	}
}

// TestBranchingCorruptsTheIndex is the must-fail twin: with the head
// check bypassed, the second branch's insert lands on the row index the
// first branch's key already holds — the silent corruption Apply refuses.
func TestBranchingCorruptsTheIndex(t *testing.T) {
	base, _ := buildPair(t)
	a, b := base.CloneForUpdate(insertCustomer(910001)), base.CloneForUpdate(insertCustomer(910002))
	if _, err := a.Apply(insertCustomer(910001)); err != nil {
		t.Fatal(err)
	}
	b.at = b.idx.head // what Apply would do without the check
	if _, err := b.Apply(insertCustomer(910002)); err != nil {
		t.Fatal(err)
	}
	ra, _ := b.lookupPK("customer", 910001)
	rb, _ := b.lookupPK("customer", 910002)
	if ra != rb {
		t.Fatalf("branches mapped their keys to rows %d and %d: the head check guards nothing", ra, rb)
	}
}

// manySideEnsemble learns single-table members over customers (fixed) and
// orders (nOrders rows), from at most 500 sampled rows each, so the models
// are the same size at every nOrders.
func manySideEnsemble(t *testing.T, nOrders int) *Ensemble {
	t.Helper()
	s := &schema.Schema{Tables: testSchema().Tables[:2]}
	cust, ord := table.New(s.Table("customer")), table.New(s.Table("orders"))
	rng := rand.New(rand.NewSource(1))
	for c := 0; c < 200; c++ {
		cust.AppendRow(table.Int(c), table.Int(20+rng.Intn(60)), table.Int(rng.Intn(3)))
	}
	for o := 0; o < nOrders; o++ {
		ord.AppendRow(table.Int(o), table.Int(rng.Intn(200)), table.Int(rng.Intn(3)))
	}
	cfg := testConfig()
	cfg.BudgetFactor = 0
	cfg.SingleTableOnly = true
	cfg.MaxSamples = 500
	e, err := Build(context.Background(), s, map[string]*table.Table{"customer": cust, "orders": ord}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// batchBytes is the fewest bytes any of 16 consecutive one-row order
// inserts allocated in CloneForUpdate + Apply. The minimum leaves out the
// batches that happen to grow an array or a map.
func batchBytes(t *testing.T, e *Ensemble) uint64 {
	t.Helper()
	best := uint64(math.MaxUint64)
	var m0, m1 runtime.MemStats
	for i := 0; i < 16; i++ {
		muts := []Mutation{{Op: OpInsert, Table: "orders", Values: map[string]table.Value{
			"o_id": table.Int(1_000_000 + i), "o_c_id": table.Int(i % 200), "o_channel": table.Int(i % 3)}}}
		runtime.ReadMemStats(&m0)
		next := e.CloneForUpdate(muts)
		if _, err := next.Apply(muts); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&m1)
		best = min(best, m1.TotalAlloc-m0.TotalAlloc)
		e = next
	}
	return best
}

// TestBatchBytesDoNotGrowWithManySide is the noise-free cost gate: a
// one-row insert into the Many side allocates the same at N and 8N rows,
// within 10 %. (While CloneData copied every touched table, the ratio was
// linear in the rows: 122 256 B against 896 400 B here, 7.3×.)
func TestBatchBytesDoNotGrowWithManySide(t *testing.T) {
	small := batchBytes(t, manySideEnsemble(t, 4000))
	large := batchBytes(t, manySideEnsemble(t, 32000))
	if float64(large) > 1.1*float64(small) {
		t.Fatalf("one-row batch allocates %d B at 4000 order rows and %d B at 32000 (%.2f×): the cost grows with the table",
			small, large, float64(large)/float64(small))
	}
	t.Logf("one-row batch: %d B at 4000 order rows, %d B at 32000", small, large)
}
