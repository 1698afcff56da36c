package spn

// compiled_test.go asserts the flattened evaluator is a drop-in for the
// reference tree walk: over randomly generated SPN structures and randomly
// generated requests spanning every Fn kind, multi-range unions,
// ExcludeNull and unconstrained columns, EvaluateBatch must return values
// bit-identical to Evaluate — and keep doing so after Update re-derives
// the flat form.

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// randomLeaf builds an exact or binned leaf over random values, with
// optional NULL mass and occasional zero-total degenerate leaves.
func randomLeaf(rng *rand.Rand, col int) *Leaf {
	n := 1 + rng.Intn(40)
	data := make([]float64, n)
	for i := range data {
		switch rng.Intn(10) {
		case 0:
			data[i] = math.NaN() // NULL
		case 1:
			data[i] = -float64(rng.Intn(50)) // negative values exercise FnInv clamps
		default:
			data[i] = float64(rng.Intn(30))
		}
	}
	maxDistinct := 1024
	if rng.Intn(3) == 0 {
		maxDistinct = 2 // force binned mode regularly
	}
	return NewLeaf(col, fmt.Sprintf("c%d", col), data, maxDistinct, 4+rng.Intn(8))
}

// randomTree builds a structurally valid subtree over the scope columns.
func randomTree(rng *rand.Rand, scope []int, depth int) *Node {
	if len(scope) == 1 {
		leafNode := &Node{Kind: LeafKind, Scope: []int{scope[0]}, Leaf: randomLeaf(rng, scope[0])}
		if depth <= 0 || rng.Intn(3) > 0 {
			return leafNode
		}
		// Sum over single-column children.
		k := 2 + rng.Intn(2)
		n := &Node{Kind: SumKind, Scope: []int{scope[0]}}
		for i := 0; i < k; i++ {
			n.Children = append(n.Children, randomTree(rng, scope, depth-1))
			n.ChildCounts = append(n.ChildCounts, float64(rng.Intn(20))) // zeros included
		}
		return n
	}
	if depth <= 0 || rng.Intn(4) == 0 {
		// Product of single-column leaves.
		n := &Node{Kind: ProductKind, Scope: append([]int(nil), scope...)}
		for _, c := range scope {
			n.Children = append(n.Children, randomTree(rng, []int{c}, 0))
		}
		return n
	}
	if rng.Intn(2) == 0 {
		// Sum node: children share the scope.
		k := 2 + rng.Intn(3)
		n := &Node{Kind: SumKind, Scope: append([]int(nil), scope...)}
		for i := 0; i < k; i++ {
			n.Children = append(n.Children, randomTree(rng, scope, depth-1))
			n.ChildCounts = append(n.ChildCounts, float64(rng.Intn(20)))
		}
		return n
	}
	// Product node: partition the scope into 2+ parts.
	cut := 1 + rng.Intn(len(scope)-1)
	n := &Node{Kind: ProductKind, Scope: append([]int(nil), scope...)}
	n.Children = append(n.Children,
		randomTree(rng, scope[:cut], depth-1),
		randomTree(rng, scope[cut:], depth-1))
	return n
}

func randomSPN(rng *rand.Rand, numCols int) *SPN {
	scope := make([]int, numCols)
	cols := make([]string, numCols)
	for i := range scope {
		scope[i] = i
		cols[i] = fmt.Sprintf("c%d", i)
	}
	s := &SPN{Root: randomTree(rng, scope, 3), Columns: cols, RowCount: 100}
	if err := s.Root.Validate(); err != nil {
		panic(err)
	}
	s.Refresh()
	return s
}

var allFns = []Fn{FnOne, FnIdent, FnSquare, FnInv, FnInvSquare, FnMax1}

func randomRange(rng *rand.Rand) Range {
	switch rng.Intn(5) {
	case 0:
		return PointRange(float64(rng.Intn(30)))
	case 1:
		return FullRange()
	case 2:
		return Range{Lo: 1, Hi: 0} // contradictory (probability zero)
	default:
		lo := float64(rng.Intn(30)) - 10
		hi := lo + float64(rng.Intn(20))
		return Range{Lo: lo, Hi: hi, LoIncl: rng.Intn(2) == 0, HiIncl: rng.Intn(2) == 0}
	}
}

func randomRequest(rng *rand.Rand, numCols int) Request {
	var req Request
	for c := 0; c < numCols; c++ {
		if rng.Intn(2) == 0 {
			continue // column unconstrained
		}
		cq := ColQuery{
			Col:         c,
			Fn:          allFns[rng.Intn(len(allFns))],
			ExcludeNull: rng.Intn(4) == 0,
		}
		for i, k := 0, rng.Intn(3); i < k; i++ {
			cq.Ranges = append(cq.Ranges, randomRange(rng))
		}
		req.Cols = append(req.Cols, cq)
	}
	return req
}

// assertBatchMatchesTree evaluates reqs through the reference tree walk
// and through the compiled evaluator — as one batch and one at a time —
// and requires bit-identical values.
func assertBatchMatchesTree(t *testing.T, s *SPN, reqs []Request, label string) {
	t.Helper()
	want := make([]float64, len(reqs))
	for i, req := range reqs {
		v, err := s.evaluateTree(req)
		if err != nil {
			t.Fatalf("%s: tree walk: %v", label, err)
		}
		want[i] = v
		single, err := s.Evaluate(req)
		if err != nil {
			t.Fatalf("%s: Evaluate: %v", label, err)
		}
		if math.Float64bits(single) != math.Float64bits(v) {
			t.Fatalf("%s: request %d: Evaluate %v != tree %v (req=%+v)", label, i, single, v, req)
		}
	}
	got := make([]float64, len(reqs))
	if s.Compiled() == nil {
		t.Fatalf("%s: SPN has no compiled form", label)
	}
	if err := s.Compiled().EvaluateBatch(reqs, got); err != nil {
		t.Fatalf("%s: EvaluateBatch: %v", label, err)
	}
	for i := range reqs {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: request %d: flat %v != tree %v (reqs=%+v)", label, i, got[i], want[i], reqs[i])
		}
	}
}

func TestCompiledMatchesTreeRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		numCols := 1 + rng.Intn(6)
		s := randomSPN(rng, numCols)
		batch := 1 + rng.Intn(8)
		reqs := make([]Request, batch)
		for i := range reqs {
			reqs[i] = randomRequest(rng, numCols)
		}
		assertBatchMatchesTree(t, s, reqs, fmt.Sprintf("trial %d", trial))
	}
}

// TestCompiledMatchesTreeRuns: batches shaped like a plan's, where each
// request repeats its predecessor's query on most columns — in the same
// range slice or an equal copy — leaves some unconstrained, or starts
// afresh. Every leaf of a column reuses one moment across each run, and
// values stay bit-identical to the tree walk, on models whose columns are
// read by several leaves.
func TestCompiledMatchesTreeRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	multi := 0
	for trial := 0; trial < 200; trial++ {
		numCols := 1 + rng.Intn(6)
		s := randomSPN(rng, numCols)
		if slices.Contains(s.Compiled().multiLeaf, true) {
			multi++
		}
		reqs := make([]Request, 2+rng.Intn(12))
		reqs[0] = randomRequest(rng, numCols)
		for i := 1; i < len(reqs); i++ {
			if rng.Intn(4) == 0 {
				reqs[i] = randomRequest(rng, numCols)
				continue
			}
			for _, cq := range reqs[i-1].Cols {
				switch rng.Intn(4) {
				case 0: // unconstrained in this request
					continue
				case 1:
					cq.Ranges = append([]Range(nil), cq.Ranges...)
				}
				reqs[i].Cols = append(reqs[i].Cols, cq)
			}
		}
		assertBatchMatchesTree(t, s, reqs, fmt.Sprintf("trial %d", trial))
	}
	if multi == 0 {
		t.Fatal("no model read a column from two leaves: the run marks never ran")
	}
}

func TestCompiledMatchesTreeLearned(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	data := make([][]float64, 3000)
	for i := range data {
		row := make([]float64, 4)
		row[0] = float64(i % 7)
		row[1] = float64(rng.Intn(2000)) // > MaxDistinct when binning forced
		row[2] = rng.NormFloat64() * 10
		if rng.Intn(10) == 0 {
			row[3] = math.NaN()
		} else {
			row[3] = float64(rng.Intn(5))
		}
		data[i] = row
	}
	cfg := DefaultLearnConfig()
	cfg.MaxDistinct = 64
	cfg.Bins = 16
	s, err := Learn(data, []string{"a", "b", "c", "d"}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	reqs := make([]Request, 32)
	for i := range reqs {
		reqs[i] = randomRequest(rng, 4)
	}
	assertBatchMatchesTree(t, s, reqs, "learned")
}

// TestCompiledErrorsMatchTree checks the validation errors of the batch
// path mirror the tree walk's.
func TestCompiledErrorsMatchTree(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := randomSPN(rng, 3)
	out := make([]float64, 1)
	if err := s.EvaluateBatch([]Request{{Cols: []ColQuery{{Col: 9}}}}, out); err == nil {
		t.Fatal("expected out-of-range column error")
	}
	if err := s.EvaluateBatch([]Request{{Cols: []ColQuery{{Col: 0}, {Col: 0}}}}, out); err == nil {
		t.Fatal("expected duplicate column error")
	}
	if err := s.EvaluateBatch([]Request{{}, {}}, out); err == nil {
		t.Fatal("expected short result buffer error")
	}
}

// TestCompiledRebuildAfterUpdate verifies the flat form re-derived by
// Update stays bit-identical to the tree walk, and matches a from-scratch
// Refresh.
func TestCompiledRebuildAfterUpdate(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	data := make([][]float64, 500)
	for i := range data {
		data[i] = []float64{float64(i % 5), float64(rng.Intn(40)), rng.Float64() * 10}
	}
	s, err := Learn(data, []string{"x", "y", "z"}, DefaultLearnConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		tuple := []float64{float64(i % 5), float64(rng.Intn(40)), rng.Float64() * 10}
		if i%3 == 0 {
			if err := s.Update(tuple, -1); err != nil {
				t.Fatal(err)
			}
		} else {
			if err := s.Update(tuple, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	reqs := make([]Request, 24)
	for i := range reqs {
		reqs[i] = randomRequest(rng, 3)
	}
	assertBatchMatchesTree(t, s, reqs, "after updates")

	// A from-scratch rebuild must agree with the incremental one.
	got := make([]float64, len(reqs))
	if err := s.Compiled().EvaluateBatch(reqs, got); err != nil {
		t.Fatal(err)
	}
	s.Refresh()
	fresh := make([]float64, len(reqs))
	if err := s.Compiled().EvaluateBatch(reqs, fresh); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(fresh[i]) {
			t.Fatalf("request %d: rebuilt %v != fresh %v", i, got[i], fresh[i])
		}
	}
}

// TestCompiledConcurrent exercises the pooled scratch buffers from many
// goroutines (meaningful under -race).
func TestCompiledConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	s := randomSPN(rng, 5)
	reqSets := make([][]Request, 8)
	wants := make([][]float64, len(reqSets))
	for i := range reqSets {
		reqs := make([]Request, 1+rng.Intn(6))
		for j := range reqs {
			reqs[j] = randomRequest(rng, 5)
		}
		reqSets[i] = reqs
		want := make([]float64, len(reqs))
		for j, req := range reqs {
			v, err := s.evaluateTree(req)
			if err != nil {
				t.Fatal(err)
			}
			want[j] = v
		}
		wants[i] = want
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 50; iter++ {
				i := (g + iter) % len(reqSets)
				out := make([]float64, len(reqSets[i]))
				if err := s.EvaluateBatch(reqSets[i], out); err != nil {
					t.Error(err)
					return
				}
				for j := range out {
					if math.Float64bits(out[j]) != math.Float64bits(wants[i][j]) {
						t.Errorf("goroutine %d set %d req %d: %v != %v", g, i, j, out[j], wants[i][j])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
