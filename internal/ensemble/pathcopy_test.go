package ensemble

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/table"
)

// nodeSizedEnsemble learns the correlated three-table chain with the given
// sum-node fan-out and minimum cluster fraction: the knobs that set how
// many nodes the members covering orderline have.
func nodeSizedEnsemble(t *testing.T, nCust int, minFrac float64, clusters int) *Ensemble {
	t.Helper()
	s := testSchema()
	cfg := testConfig()
	cfg.SPN.MinInstanceFrac = minFrac
	cfg.SPN.KMeansClusters = clusters
	e, err := Build(context.Background(), s, genData(s, nCust, true, 1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// touchedNodes counts the nodes of the members an orderline insert
// model-updates.
func touchedNodes(e *Ensemble) int {
	n := 0
	for _, r := range e.RSPNs {
		if r.HasTable("orderline") {
			n += r.Model.Root.NumNodes()
		}
	}
	return n
}

// batchAllocs is the fewest allocations any of 16 consecutive one-row
// batches made in CloneForUpdate + Apply, and the state they left; mut(i)
// is the i-th batch's mutation. The minimum leaves out the batches that
// happen to grow an array or a map.
func batchAllocs(t *testing.T, e *Ensemble, mut func(i int) Mutation) (uint64, *Ensemble) {
	t.Helper()
	best := ^uint64(0)
	var m0, m1 runtime.MemStats
	for i := 0; i < 16; i++ {
		muts := []Mutation{mut(i)}
		runtime.ReadMemStats(&m0)
		next := e.CloneForUpdate(muts)
		if _, err := next.Apply(muts); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&m1)
		best = min(best, m1.Mallocs-m0.Mallocs)
		e = next
	}
	return best, e
}

// insertOrderline is the i-th of batchAllocs' orderline inserts.
func insertOrderline(i int) Mutation {
	return Mutation{Op: OpInsert, Table: "orderline", Values: map[string]table.Value{
		"l_id": table.Int(1_000_000 + i), "l_o_id": table.Int(i % 100), "l_qty": table.Int(i % 30)}}
}

// TestBatchAllocsDoNotGrowWithModel is the noise-free cost gate of the
// path-copying clone: a one-row insert allocates about the same whether
// the members it updates have N or more than 4N nodes, within 1.5×. A row
// writes one induced tree, whose length grows with the tree's depth, not
// its size. (A deep clone copies every node and leaf: 425 against 1 764
// allocations here, 4.15×.)
func TestBatchAllocsDoNotGrowWithModel(t *testing.T) {
	small, large := nodeSizedEnsemble(t, 1000, 0.01, 2), nodeSizedEnsemble(t, 3000, 0.001, 8)
	ns, nl := touchedNodes(small), touchedNodes(large)
	if nl < 4*ns {
		t.Fatalf("updated members have %d and %d nodes: the gate needs a 4× difference", ns, nl)
	}
	as, _ := batchAllocs(t, small, insertOrderline)
	al, _ := batchAllocs(t, large, insertOrderline)
	if float64(al) > 1.5*float64(as) {
		t.Fatalf("one-row batch makes %d allocations on %d nodes and %d on %d (%.2f×): the cost grows with the model",
			as, ns, al, nl, float64(al)/float64(as))
	}
	t.Logf("one-row batch: %d allocations on %d nodes, %d on %d", as, ns, al, nl)
}
