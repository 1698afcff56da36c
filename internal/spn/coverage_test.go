package spn

import (
	"math"
	"strings"
	"testing"
)

// TestRangeContains: an exact leaf over 0, 1, 3, 5 and 6 counts the values
// a range contains, so each endpoint flag shows in the mass.
func TestRangeContains(t *testing.T) {
	l := NewLeaf(0, "x", []float64{0, 1, 3, 5, 6}, 100, 8)
	for _, c := range []struct {
		r    Range
		want float64
	}{
		{Range{Lo: 1, Hi: 5, LoIncl: true}, 2},               // 1, 3
		{Range{Lo: 1, Hi: 5, HiIncl: true}, 2},               // 3, 5
		{Range{Lo: 1, Hi: 5, LoIncl: true, HiIncl: true}, 3}, // 1, 3, 5
		{Range{Lo: 1, Hi: 5}, 1},                             // 3
		{Range{Lo: 7, Hi: 9, LoIncl: true, HiIncl: true}, 0},
	} {
		if got := l.Moment(ColQuery{Ranges: []Range{c.r}}) * 5; math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%+v holds %v values, want %v", c.r, got, c.want)
		}
	}
}

func TestNodeStringRendering(t *testing.T) {
	s := figure3SPN()
	out := s.Root.String()
	if !strings.Contains(out, "+(") || !strings.Contains(out, "x(") ||
		!strings.Contains(out, "c_region") {
		t.Fatalf("tree rendering = %q", out)
	}
	if k := Kind(42).String(); !strings.Contains(k, "42") {
		t.Fatal("unknown kind should render its number")
	}
}

// TestNodeWeight: a sum node mixes its children by count fraction, and one
// whose counts are all zero contributes nothing, as in the tree walk.
func TestNodeWeight(t *testing.T) {
	s := figure3SPN()
	off := s.flat.childOff[s.flat.NumNodes()-1] // postorder: the root is last
	if w := s.flat.weight[off]; math.Abs(w-0.3) > 1e-12 {
		t.Fatalf("weight 0 = %v, want 0.3", w)
	}
	if w := s.flat.weight[off+1]; math.Abs(w-0.7) > 1e-12 {
		t.Fatalf("weight 1 = %v, want 0.7", w)
	}
	s.Root.ChildCounts = []float64{0, 0}
	s.Refresh()
	if w := s.flat.weight[off]; w != 0 {
		t.Fatalf("zero-count weight = %v, want 0", w)
	}
}

func TestLeafAddBinned(t *testing.T) {
	// Force a binned leaf and update it.
	data := make([]float64, 200)
	for i := range data {
		data[i] = float64(i)
	}
	l := NewLeaf(0, "x", data, 50, 10)
	if !l.Binned {
		t.Fatal("leaf should be binned")
	}
	before := l.Moment(ColQuery{Fn: FnIdent})
	// Insert many large values: the mean must rise.
	for i := 0; i < 100; i++ {
		l.Add(199, 1)
	}
	after := l.Moment(ColQuery{Fn: FnIdent})
	if after <= before {
		t.Fatalf("binned mean should rise: %v -> %v", before, after)
	}
	// Out-of-range values clamp into edge bins without panicking.
	l.Add(1e9, 1)
	l.Add(-1e9, 1)
	// Delete below zero clamps.
	for i := 0; i < 1000; i++ {
		l.Add(0.5, -1)
	}
	if l.BinW[0] < 0 {
		t.Fatal("bin weight went negative")
	}
	// NULL deletion clamps too.
	l.Add(math.NaN(), -1)
	if l.NullW < 0 {
		t.Fatal("null weight went negative")
	}
}

func TestLeafDeleteUnseenValueIgnored(t *testing.T) {
	l := NewLeaf(0, "x", []float64{1, 2}, 10, 4)
	l.Add(99, -1) // never seen: ignored (total still adjusts)
	if len(l.Vals) != 2 {
		t.Fatalf("unseen delete should not add a value: %v", l.Vals)
	}
}

func TestLeafDistinctValuesBinned(t *testing.T) {
	data := make([]float64, 300)
	for i := range data {
		data[i] = float64(i % 100)
	}
	l := NewLeaf(0, "x", data, 20, 8)
	vals := l.DistinctValues()
	if len(vals) != 8 {
		t.Fatalf("binned distinct values = %d, want one per bin", len(vals))
	}
	for i := 1; i < len(vals); i++ {
		if vals[i] <= vals[i-1] {
			t.Fatal("bin representatives not increasing")
		}
	}
}

func TestFnMax1(t *testing.T) {
	l := NewLeaf(0, "f", []float64{0, 1, 3}, 10, 4)
	// E[max(f,1)] = (1 + 1 + 3)/3.
	want := 5.0 / 3
	if got := l.Moment(ColQuery{Fn: FnMax1}); math.Abs(got-want) > 1e-12 {
		t.Fatalf("E[max(f,1)] = %v, want %v", got, want)
	}
	// Binned variant: clamped below by bin weight.
	data := make([]float64, 300)
	for i := range data {
		data[i] = float64(i%3) - 1 // -1, 0, 1
	}
	lb := NewLeaf(0, "f", data, 2, 4)
	if !lb.Binned {
		t.Fatal("expected binned leaf")
	}
	got := lb.Moment(ColQuery{Fn: FnMax1})
	if got < 1-1e-9 {
		t.Fatalf("binned E[max(f,1)] = %v, must be >= 1", got)
	}
}

func TestNearestChildFallback(t *testing.T) {
	// Sum node without routing metadata: falls back to the heaviest child.
	n := &Node{Kind: SumKind,
		Scope:       []int{0},
		Children:    []*Node{leafNode(0, 1), leafNode(0, 2)},
		ChildCounts: []float64{1, 9},
	}
	if got := new(SPN).nearestChild(n, []float64{5}); got != 1 {
		t.Fatalf("fallback routing = %d, want heaviest child 1", got)
	}
}

func leafNode(col int, v float64) *Node {
	return &Node{Kind: LeafKind, Scope: []int{col},
		Leaf: &Leaf{Col: col, Vals: []float64{v}, Freq: []float64{1}, Total: 1}}
}

func TestLearnExactDuplicateRows(t *testing.T) {
	data := [][]float64{{1, 2}, {1, 2}, {3, 4}}
	s, err := LearnExact(data, []string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	p, err := s.Probability([]ColQuery{
		{Col: 0, Ranges: []Range{PointRange(1)}},
		{Col: 1, Ranges: []Range{PointRange(2)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-2.0/3) > 1e-12 {
		t.Fatalf("P(dup row) = %v, want 2/3", p)
	}
	// Exact models must be updatable (centroids present).
	if err := s.Insert([]float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	p2, _ := s.Probability([]ColQuery{
		{Col: 0, Ranges: []Range{PointRange(1)}},
		{Col: 1, Ranges: []Range{PointRange(2)}},
	})
	if p2 <= p-1e-12 {
		t.Fatalf("probability should not fall after inserting the row: %v -> %v", p, p2)
	}
}

func TestLearnExactErrors(t *testing.T) {
	if _, err := LearnExact(nil, []string{"a"}); err == nil {
		t.Fatal("expected error for empty data")
	}
	if _, err := LearnExact([][]float64{{1}}, []string{"a", "b"}); err == nil {
		t.Fatal("expected error for column mismatch")
	}
}
