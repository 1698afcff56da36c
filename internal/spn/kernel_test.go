package spn

// kernel_test.go pins the unrolled binned-leaf kernels and the one
// evaluation kernel (on batches of one, batches whose requests share or
// differ in their column sets, one-word and multi-word scopes) to their
// scalar references, bit for bit: a verbatim copy of the pre-kernel binnedMass loop is the oracle
// for leaf moments, and the tree walk is the oracle for whole-model
// evaluation. It also pins that in-place leaf updates are visible to the
// compiled form's kernels without a recompile.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// scalarBinnedMass is the pre-kernel reference loop, kept verbatim: every
// overlapping bin takes the general partial-overlap path.
func scalarBinnedMass(l *Leaf, r Range, fn Fn) float64 {
	if math.IsNaN(r.Lo) || math.IsNaN(r.Hi) {
		return math.NaN()
	}
	acc := 0.0
	n := len(l.BinW)
	start := searchGE(l.Edges, r.Lo) - 1
	if start < 0 {
		start = 0
	}
	end := searchGT(l.Edges, r.Hi) - 1
	if end > n-1 {
		end = n - 1
	}
	for b := start; b <= end; b++ {
		lo, hi := l.Edges[b], l.Edges[b+1]
		overlapLo := math.Max(lo, r.Lo)
		overlapHi := math.Min(hi, r.Hi)
		if overlapHi < overlapLo {
			continue
		}
		width := hi - lo
		var frac float64
		if width <= 0 {
			frac = 1
		} else {
			frac = (overlapHi - overlapLo) / width
		}
		if frac <= 0 {
			continue
		}
		var agg float64
		switch fn {
		case FnOne:
			agg = l.BinW[b]
		case FnIdent:
			agg = l.BinSum[b]
		case FnSquare:
			agg = l.BinSq[b]
		case FnInv:
			agg = l.BinInv[b]
		case FnInvSquare:
			agg = l.BinIn2[b]
		case FnMax1:
			agg = l.BinSum[b]
			if agg < l.BinW[b] {
				agg = l.BinW[b]
			}
		}
		acc += frac * agg
	}
	return acc
}

// randomBinnedLeaf builds a binned leaf with enough bins that ranges cover
// long interior runs (the kernels' unrolled hot path).
func randomBinnedLeaf(rng *rand.Rand, bins int) *Leaf {
	n := 200 + rng.Intn(800)
	data := make([]float64, n)
	for i := range data {
		switch rng.Intn(12) {
		case 0:
			data[i] = math.NaN()
		case 1:
			data[i] = -rng.Float64() * 100 // negatives exercise FnInv clamps
		default:
			data[i] = rng.Float64() * 1000
		}
	}
	return NewLeaf(0, "k", data, 2, bins)
}

// kernelTestRanges yields ranges that hit every kernel regime: wide spans
// with many interior bins, single-bin and two-bin overlaps, point ranges
// on and off bin edges, empty and NaN-bounded ranges.
func kernelTestRanges(rng *rand.Rand, l *Leaf) []Range {
	lo, hi := l.Edges[0], l.Edges[len(l.Edges)-1]
	span := hi - lo
	out := []Range{
		FullRange(),
		{Lo: lo, Hi: hi, LoIncl: true, HiIncl: true},
		{Lo: lo - 10, Hi: hi + 10, LoIncl: true, HiIncl: true},
		{Lo: 1, Hi: 0},             // contradictory
		PointRange(l.Edges[1]),     // point on an interior edge
		PointRange(lo + span*0.37), // point inside a bin
		{Lo: math.NaN(), Hi: hi, LoIncl: true, HiIncl: true},
		{Lo: lo, Hi: math.NaN(), LoIncl: true, HiIncl: true},
		{Lo: math.Inf(-1), Hi: lo + span*0.5, LoIncl: true, HiIncl: false},
		{Lo: lo + span*0.5, Hi: math.Inf(1), LoIncl: false, HiIncl: true},
	}
	for i := 0; i < 40; i++ {
		a := lo + rng.Float64()*span*1.2 - span*0.1
		b := a + rng.Float64()*span
		out = append(out, Range{Lo: a, Hi: b, LoIncl: rng.Intn(2) == 0, HiIncl: rng.Intn(2) == 0})
	}
	return out
}

func TestBinnedKernelsMatchScalarReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 60; trial++ {
		bins := []int{2, 3, 4, 5, 8, 17, 64, 128, 256}[trial%9]
		l := randomBinnedLeaf(rng, bins)
		for _, r := range kernelTestRanges(rng, l) {
			for _, fn := range allFns {
				want := scalarBinnedMass(l, r, fn)
				got := l.binnedMass(r, fn)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("trial %d bins=%d fn=%d range=%+v: kernel %v != scalar %v",
						trial, bins, fn, r, got, want)
				}
			}
		}
	}
}

// TestCompiledMatchesTreeWideScope drives models with more than 64
// columns, whose scope masks span several words, through the kernel.
func TestCompiledMatchesTreeWideScope(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 12; trial++ {
		numCols := 65 + rng.Intn(80)
		s := randomSPN(rng, numCols)
		batch := 1 + rng.Intn(6)
		reqs := make([]Request, batch)
		for i := range reqs {
			reqs[i] = randomRequest(rng, numCols)
		}
		assertBatchMatchesTree(t, s, reqs, fmt.Sprintf("wide trial %d", trial))
	}

	// Two requests that agree on columns 0-63 and differ beyond them, so
	// only a scope test that reads every mask word tells them apart. The
	// narrower one leaves column 69 unconstrained, so it must skip the sum
	// over that column, whose weights 1/6, 4/6, 1/6 add to
	// 0.9999999999999999; the wider one must multiply it in.
	const numCols = 70
	root := &Node{Kind: ProductKind}
	for c := 0; c < numCols-1; c++ {
		root.Children = append(root.Children, &Node{Kind: LeafKind, Scope: []int{c}, Leaf: randomLeaf(rng, c)})
	}
	sum := &Node{Kind: SumKind, Scope: []int{numCols - 1}, ChildCounts: []float64{1, 4, 1}}
	for range sum.ChildCounts {
		sum.Children = append(sum.Children, &Node{Kind: LeafKind, Scope: []int{numCols - 1}, Leaf: randomLeaf(rng, numCols-1)})
	}
	root.Children = append(root.Children, sum)
	cols := make([]string, numCols)
	for c := range cols {
		root.Scope = append(root.Scope, c)
		cols[c] = fmt.Sprintf("c%d", c)
	}
	s := &SPN{Root: root, Columns: cols, RowCount: 100}
	if err := s.Root.Validate(); err != nil {
		t.Fatal(err)
	}
	s.Refresh()
	first := ColQuery{Col: 3, Fn: FnOne, Ranges: []Range{{Lo: 0, Hi: 20, LoIncl: true, HiIncl: true}}}
	wider := Request{Cols: []ColQuery{first, {Col: numCols - 1, Fn: FnIdent, Ranges: []Range{FullRange()}}}}
	narrower := Request{Cols: []ColQuery{first}}
	assertBatchMatchesTree(t, s, []Request{wider, narrower}, "wide batch mixed beyond column 63")
	// The same batch with the narrower request first: every request after
	// the first constrains the batch's whole union, so a shortcut that
	// skipped request 0's own mask would multiply the sum in for it too.
	assertBatchMatchesTree(t, s, []Request{narrower, wider}, "wide batch mixed beyond column 63, narrower first")
}

// TestCompiledMatchesTreeUniformBatch builds GROUP-BY-shaped batches —
// requests sharing a column set, differing in one point range — so every
// request's mask is the batch's union. The last twelve trials use models
// of 65-144 columns (multi-word masks).
func TestCompiledMatchesTreeUniformBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for trial := 0; trial < 72; trial++ {
		numCols := 2 + rng.Intn(5)
		if trial >= 60 {
			numCols = 65 + rng.Intn(80)
		}
		s := randomSPN(rng, numCols)
		shared := randomRequest(rng, numCols)
		if len(shared.Cols) == 0 {
			shared.Cols = []ColQuery{{Col: 0, Fn: FnOne, Ranges: []Range{FullRange()}}}
		}
		batch := 2 + rng.Intn(14)
		reqs := make([]Request, batch)
		for i := range reqs {
			// Re-range the drawn column itself, so every request keeps
			// the shared column set.
			cols := append([]ColQuery(nil), shared.Cols...)
			j := rng.Intn(len(cols))
			cols[j] = ColQuery{Col: cols[j].Col, Fn: FnOne, Ranges: []Range{PointRange(float64(i % 7))}}
			reqs[i] = Request{Cols: cols}
		}
		assertBatchMatchesTree(t, s, reqs, fmt.Sprintf("uniform trial %d", trial))
	}
}

// TestSlabAliasingAfterUpdates pins that the compiled form reads the
// leaves the tree walk reads: Leaf.Add mutates a binned leaf's bins in
// place, so after inserts and deletes on binned leaves the compiled
// kernels and the tree walk must still agree bit for bit without a
// recompile.
func TestSlabAliasingAfterUpdates(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	data := make([][]float64, 1500)
	for i := range data {
		data[i] = []float64{float64(i % 5), rng.Float64() * 5000, rng.NormFloat64() * 50}
	}
	cfg := DefaultLearnConfig()
	cfg.MaxDistinct = 16 // force binned leaves on the wide columns
	cfg.Bins = 32
	s, err := Learn(data, []string{"x", "y", "z"}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := s.Compiled()
	binned := false
	for _, lf := range c.leaf {
		binned = binned || (lf != nil && lf.Binned)
	}
	if !binned {
		t.Fatal("expected binned leaves in the compiled form")
	}
	for step := 0; step < 120; step++ {
		tuple := []float64{float64(step % 5), rng.Float64() * 6000, rng.NormFloat64() * 50}
		if step%4 == 0 {
			if err := s.Update(tuple, -1); err != nil {
				t.Fatal(err)
			}
		} else {
			if err := s.Update(tuple, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	if s.Compiled() != c {
		t.Fatal("updates must not rebuild the compiled form")
	}
	reqs := make([]Request, 24)
	for i := range reqs {
		reqs[i] = randomRequest(rng, 3)
	}
	assertBatchMatchesTree(t, s, reqs, "after binned updates")
}
