package ensemble

import (
	"testing"

	"repro/internal/table"
)

// TestAllocBudgets pins exactly the fewest allocations of 16 one-row
// CloneForUpdate + Apply batches on the chain fixture: 16 inserts into a
// table, then 16 deletes of the rows they added. A write's cost is the
// path-copied clone plus the join rows the row adds or removes, so a
// change that copies more, or builds one vector more, moves a count. An
// orders row also bumps its customer's tuple factor, which copies that
// column and may swap the customer's padded join row.
func TestAllocBudgets(t *testing.T) {
	if raceEnabled() {
		t.Skip("allocation counts are not stable under the race detector")
	}
	for _, b := range []struct {
		table         string
		insert        func(i int) Mutation
		inserts, dels uint64
	}{
		{"orderline", insertOrderline, 120, 115},
		{"orders", func(i int) Mutation {
			return Mutation{Op: OpInsert, Table: "orders", Values: map[string]table.Value{
				"o_id": table.Int(1_000_000 + i), "o_c_id": table.Int(i % 100), "o_channel": table.Int(i % 3)}}
		}, 174, 173},
	} {
		got, e := batchAllocs(t, nodeSizedEnsemble(t, 1000, 0.01, 2), b.insert)
		if got != b.inserts {
			t.Errorf("%s insert: %d allocations, budget %d", b.table, got, b.inserts)
		}
		pk := e.Schema.Table(b.table).PrimaryKey
		got, _ = batchAllocs(t, e, func(i int) Mutation {
			return Mutation{Op: OpDelete, Table: b.table, PK: b.insert(i).Values[pk].F}
		})
		if got != b.dels {
			t.Errorf("%s delete: %d allocations, budget %d", b.table, got, b.dels)
		}
	}
}
