package drift

import (
	"math"
	"testing"

	"repro/internal/schema"
	"repro/internal/table"
)

// twoTables builds a tiny customer/orders pair with known column moments.
func twoTables(rows int) map[string]*table.Table {
	cust := table.New(&schema.Table{Name: "customer", Columns: []schema.Column{
		{Name: "c_id", Kind: schema.IntKind},
		{Name: "c_age", Kind: schema.IntKind},
	}, PrimaryKey: "c_id"})
	ord := table.New(&schema.Table{Name: "orders", Columns: []schema.Column{
		{Name: "o_id", Kind: schema.IntKind},
		{Name: "o_amount", Kind: schema.IntKind},
	}, PrimaryKey: "o_id"})
	for i := 0; i < rows; i++ {
		cust.AppendRow(table.Int(i), table.Int(20+i%40))
		ord.AppendRow(table.Int(i), table.Float(100))
	}
	return map[string]*table.Table{"customer": cust, "orders": ord}
}

func testCols() map[string][]string {
	return map[string][]string{"customer": {"c_age"}, "orders": {"o_amount"}}
}

func TestScoresStartAtZero(t *testing.T) {
	tabs := twoTables(100)
	s := New(tabs, testCols(), [][]string{{"customer"}, {"orders"}, {"customer", "orders"}})
	for i, sc := range s.Scores() {
		if sc.Mutated != 0 || sc.MutatedFraction != 0 || sc.MaxShift != 0 {
			t.Fatalf("member %d: non-zero initial score %+v", i, sc)
		}
	}
}

func TestMutatedFractionAndMemberRouting(t *testing.T) {
	tabs := twoTables(100)
	s := New(tabs, testCols(), [][]string{{"customer"}, {"orders"}, {"customer", "orders"}})
	// Mutate 10 order rows (inserts with the same distribution).
	ord := tabs["orders"]
	for i := 0; i < 10; i++ {
		ord.AppendRow(table.Int(1000+i), table.Float(100))
		s.RecordRow("orders", ord, ord.NumRows()-1, +1)
	}
	scores := s.Scores()
	if scores[0].Mutated != 0 {
		t.Fatalf("customer-only member saw %d mutations, want 0", scores[0].Mutated)
	}
	if scores[1].Mutated != 10 {
		t.Fatalf("orders member saw %d mutations, want 10", scores[1].Mutated)
	}
	if scores[2].Mutated != 10 {
		t.Fatalf("join member saw %d mutations, want 10", scores[2].Mutated)
	}
	if got, want := scores[1].MutatedFraction, 0.1; math.Abs(got-want) > 1e-12 {
		t.Fatalf("orders MutatedFraction = %g, want %g", got, want)
	}
	// Join member's baseline spans both tables (200 rows).
	if got, want := scores[2].MutatedFraction, 0.05; math.Abs(got-want) > 1e-12 {
		t.Fatalf("join MutatedFraction = %g, want %g", got, want)
	}
	// Same-distribution inserts produce no mean shift.
	if scores[1].MaxShift > 1e-9 {
		t.Fatalf("orders MaxShift = %g after same-distribution inserts", scores[1].MaxShift)
	}
}

func TestMeanShiftDetected(t *testing.T) {
	tabs := twoTables(100)
	s := New(tabs, testCols(), [][]string{{"orders"}})
	ord := tabs["orders"]
	// o_amount was constant 100; shift the stream to 500.
	for i := 0; i < 50; i++ {
		ord.AppendRow(table.Int(1000+i), table.Float(500))
		s.RecordRow("orders", ord, ord.NumRows()-1, +1)
	}
	sc := s.Scores()[0]
	if sc.MaxShift <= 0 {
		t.Fatalf("MaxShift = %g after a large distribution shift", sc.MaxShift)
	}
	if sc.ShiftColumn != "o_amount" {
		t.Fatalf("ShiftColumn = %q, want o_amount", sc.ShiftColumn)
	}
}

func TestDeleteReversesMoments(t *testing.T) {
	tabs := twoTables(10)
	s := New(tabs, testCols(), [][]string{{"orders"}})
	ord := tabs["orders"]
	// Insert a wild outlier, then delete it: moments return to baseline.
	ord.AppendRow(table.Int(99), table.Float(1e6))
	s.RecordRow("orders", ord, ord.NumRows()-1, +1)
	if sc := s.Scores()[0]; sc.MaxShift == 0 {
		t.Fatal("outlier insert did not move the mean")
	}
	s.RecordRow("orders", ord, ord.NumRows()-1, -1)
	sc := s.Scores()[0]
	if sc.MaxShift > 1e-6 {
		t.Fatalf("MaxShift = %g after insert+delete of the same row, want ~0", sc.MaxShift)
	}
	if sc.Mutated != 2 {
		t.Fatalf("Mutated = %d, want 2 (both operations count)", sc.Mutated)
	}
}

func TestTripPicksWorstMember(t *testing.T) {
	tabs := twoTables(100)
	s := New(tabs, testCols(), [][]string{{"customer"}, {"orders"}})
	th := Thresholds{MutatedFraction: 0.05}
	if _, _, ok := s.Trip(th); ok {
		t.Fatal("Trip fired on a fresh set")
	}
	ord := tabs["orders"]
	for i := 0; i < 20; i++ {
		ord.AppendRow(table.Int(1000+i), table.Float(100))
		s.RecordRow("orders", ord, ord.NumRows()-1, +1)
	}
	i, sc, ok := s.Trip(th)
	if !ok {
		t.Fatal("Trip did not fire at 20% mutated vs 5% threshold")
	}
	if i != 1 {
		t.Fatalf("Trip picked member %d, want 1 (orders)", i)
	}
	if sc.MutatedFraction < 0.19 {
		t.Fatalf("Trip score %+v", sc)
	}
	// Disabled thresholds never fire.
	if _, _, ok := s.Trip(Thresholds{}); ok {
		t.Fatal("Trip fired with zero thresholds")
	}
}

func TestResetMemberRebaselines(t *testing.T) {
	tabs := twoTables(100)
	s := New(tabs, testCols(), [][]string{{"orders"}})
	ord := tabs["orders"]
	for i := 0; i < 30; i++ {
		ord.AppendRow(table.Int(1000+i), table.Float(900))
		s.RecordRow("orders", ord, ord.NumRows()-1, +1)
	}
	if sc := s.Scores()[0]; sc.MutatedFraction == 0 || sc.MaxShift == 0 {
		t.Fatalf("pre-reset score %+v", sc)
	}
	s.ResetMember(0)
	sc := s.Scores()[0]
	if sc.Mutated != 0 || sc.MutatedFraction != 0 || sc.MaxShift > 1e-12 {
		t.Fatalf("post-reset score %+v, want zeros", sc)
	}
	if sc.Relearns != 1 {
		t.Fatalf("Relearns = %d, want 1", sc.Relearns)
	}
	if s.Relearns() != 1 {
		t.Fatalf("Set.Relearns() = %d, want 1", s.Relearns())
	}
}
