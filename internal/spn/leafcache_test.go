package spn

// leafcache_test.go pins the exact leaf's full-range mass cache: a moment
// answered from the cache carries the bits of the scan it replaces, for
// every Fn and range and after any update history, and the cache is used
// exactly when the scan would cover every stored value.

import (
	"math"
	"math/rand"
	"testing"
)

// uncached returns a copy of l whose cache is stale, so its moments scan.
func uncached(l *Leaf) *Leaf {
	c := *l
	c.fullOK = false
	return &c
}

// cacheLeaf builds an exact leaf over fractional values (so summation
// order shows in the low bits), with duplicates, NULLs, negatives and
// values below 1 (the FnInv/FnMax1 clamps). Some leaves are empty or
// all-NULL. The cache is filled as the write path fills it.
func cacheLeaf(rng *rand.Rand) *Leaf {
	data := make([]float64, rng.Intn(300))
	for i := range data {
		switch rng.Intn(8) {
		case 0:
			data[i] = math.NaN()
		case 1:
			data[i] = -rng.Float64() * 100
		case 2:
			data[i] = rng.Float64()
		case 3:
			data[i] = float64(rng.Intn(20)) / 8 // duplicates
		default:
			data[i] = rng.Float64() * 1e4
		}
	}
	l := NewLeaf(0, "x", data, 1<<20, 8)
	l.refreshFull()
	return l
}

// cacheRanges are the ranges the cache must get right on leaf l, each
// with whether the cached mass answers it: full ranges, prefixes, a range
// ending exactly at the last value (inclusive and exclusive), a lower
// bound exactly at the first value (inclusive and exclusive), NaN bounds
// and a contradictory range.
func cacheRanges(l *Leaf) []struct {
	r   Range
	hit bool
} {
	inf := math.Inf(1)
	out := []struct {
		r   Range
		hit bool
	}{
		{FullRange(), true},
		{Range{Lo: -inf, Hi: math.NaN(), LoIncl: true}, true},
		{Range{Lo: math.NaN(), Hi: inf, HiIncl: true}, false},
		{Range{Lo: math.NaN(), Hi: math.NaN()}, false},
		{Range{Lo: 1, Hi: 0}, false},
	}
	if n := len(l.Vals); n > 0 {
		first, last := l.Vals[0], l.Vals[n-1]
		mid := l.Vals[n/2]
		out = append(out, []struct {
			r   Range
			hit bool
		}{
			{Range{Lo: -inf, Hi: last, LoIncl: true, HiIncl: true}, true},
			{Range{Lo: -inf, Hi: last, LoIncl: true, HiIncl: false}, false},
			{Range{Lo: first, Hi: inf, LoIncl: true, HiIncl: true}, true},
			{Range{Lo: first, Hi: inf, LoIncl: false, HiIncl: true}, false},
			{Range{Lo: first - 1, Hi: last + 1}, true},
			{Range{Lo: -inf, Hi: mid, LoIncl: true, HiIncl: true}, n <= 2},
			{Range{Lo: mid, Hi: inf, LoIncl: true, HiIncl: true}, n == 1},
		}...)
	}
	return out
}

// assertCacheMatchesScan compares every (Fn, range, NULL handling) moment
// of l against the uncached scan, bit for bit.
func assertCacheMatchesScan(t *testing.T, l *Leaf, label string) {
	t.Helper()
	ref := uncached(l)
	for _, fn := range allFns {
		for _, rc := range cacheRanges(l) {
			for _, q := range []ColQuery{
				{Fn: fn, Ranges: []Range{rc.r}},
				{Fn: fn, Ranges: []Range{rc.r}, ExcludeNull: true},
				{Fn: fn, ExcludeNull: true}, // no ranges: the whole column
			} {
				got, want := l.Moment(q), ref.Moment(q)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s: fn %d range %+v: cached %v (%x) != scan %v (%x)",
						label, fn, rc.r, got, math.Float64bits(got), want, math.Float64bits(want))
				}
			}
		}
	}
}

// TestLeafCacheMatchesScan: on random exact leaves the cached moment
// equals the scan bit for bit, for all six Fns and every range kind.
func TestLeafCacheMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		assertCacheMatchesScan(t, cacheLeaf(rng), "random leaf")
	}
	empty := NewLeaf(0, "x", nil, 16, 8)
	empty.refreshFull()
	assertCacheMatchesScan(t, empty, "empty leaf")
	nulls := NewLeaf(0, "x", []float64{math.NaN(), math.NaN()}, 16, 8)
	nulls.refreshFull()
	assertCacheMatchesScan(t, nulls, "all-NULL leaf")
}

// TestLeafCacheUsedExactlyWhenScanCoversAll poisons the cache and checks
// which ranges read it: those whose scan starts at the first value and
// passes the last, and no other.
func TestLeafCacheUsedExactlyWhenScanCoversAll(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 50; i++ {
		l := cacheLeaf(rng)
		if len(l.Vals) == 0 {
			continue
		}
		poisoned := *l
		for fn := range poisoned.full {
			poisoned.full[fn] = 12345.678 * float64(fn+1)
		}
		for _, fn := range allFns {
			for _, rc := range cacheRanges(l) {
				q := ColQuery{Fn: fn, Ranges: []Range{rc.r}}
				got := poisoned.Moment(q)
				want := l.Moment(q)
				if rc.hit {
					want = poisoned.full[fn] / l.Total
				}
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("fn %d range %+v (cache expected %v): got %v, want %v", fn, rc.r, rc.hit, got, want)
				}
			}
		}
	}
}

// TestLeafCacheAfterAdds: after a new value, a delete to zero and a NULL —
// with the cache refreshed after every Add or only at the end — moments
// match the scan, and both histories end with the same bits. Add marks
// the cache stale.
func TestLeafCacheAfterAdds(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100; i++ {
		each := cacheLeaf(rng)
		if len(each.Vals) == 0 {
			continue
		}
		once := each.clone()
		victim := rng.Intn(len(each.Vals))
		adds := []struct{ v, w float64 }{
			{rng.Float64()*1e4 + 0.5, 1},             // a value the leaf never saw
			{each.Vals[victim], -each.Freq[victim]},  // delete to zero
			{math.NaN(), 1},                          // NULL
			{each.Vals[0], 2},                        // an existing value
			{each.Vals[len(each.Vals)-1] + 1, 3},     // a new last value
			{each.Vals[len(each.Vals)/2] - 1e-3, -1}, // deleting an unseen value
		}
		for k, a := range adds {
			each.Add(a.v, a.w)
			once.Add(a.v, a.w)
			if each.fullOK || once.fullOK {
				t.Fatalf("add %d left the cache marked fresh", k)
			}
			assertCacheMatchesScan(t, each, "stale after add")
			each.refreshFull()
			assertCacheMatchesScan(t, each, "refreshed after add")
		}
		once.refreshFull()
		assertCacheMatchesScan(t, once, "refreshed once")
		if each.full != once.full {
			t.Fatalf("refresh per add %v != refresh once %v", each.full, once.full)
		}
	}
}

// staleLeaves counts the tree's leaves whose cache is stale, and
// markStale makes every leaf scan.
func staleLeaves(n *Node) int {
	if n.Kind == LeafKind {
		if n.Leaf.fullOK {
			return 0
		}
		return 1
	}
	total := 0
	for _, c := range n.Children {
		total += staleLeaves(c)
	}
	return total
}

func markStale(n *Node) {
	if n.Kind == LeafKind {
		n.Leaf.fullOK = false
	}
	for _, c := range n.Children {
		markStale(c)
	}
}

// wholeColumnRequests asks every column for every Fn over its whole range
// — the requests the cache serves — plus random ones.
func wholeColumnRequests(rng *rand.Rand, numCols int) []Request {
	var reqs []Request
	for c := 0; c < numCols; c++ {
		for _, fn := range allFns {
			reqs = append(reqs,
				Request{Cols: []ColQuery{{Col: c, Fn: fn, ExcludeNull: true}}},
				Request{Cols: []ColQuery{{Col: c, Fn: fn, Ranges: []Range{FullRange()}}}})
		}
	}
	for i := 0; i < 32; i++ {
		reqs = append(reqs, randomRequest(rng, numCols))
	}
	return reqs
}

// assertSPNCacheMatchesScan evaluates reqs on s and on a deep copy of s
// whose leaves all scan, bit for bit. The copy must be deep: a Clone
// shares its leaves with s, and marking those stale would change s.
func assertSPNCacheMatchesScan(t *testing.T, s *SPN, reqs []Request, label string) {
	t.Helper()
	ref := deepClone(s)
	markStale(ref.Root)
	got, want := make([]float64, len(reqs)), make([]float64, len(reqs))
	if err := s.EvaluateBatch(reqs, got); err != nil {
		t.Fatal(err)
	}
	if err := ref.EvaluateBatch(reqs, want); err != nil {
		t.Fatal(err)
	}
	for i := range reqs {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: request %d: cached %v != scan %v", label, i, got[i], want[i])
		}
	}
}

// TestSPNCacheThroughWritePath: learning, Clone, per-tuple Insert/Delete
// and a BeginBatch/EndBatch window each leave every leaf's cache fresh and
// every answer bit-identical to the scan; inside the batch window the
// touched leaves are stale.
func TestSPNCacheThroughWritePath(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	s := learnedSPN(t, 31)
	reqs := wholeColumnRequests(rng, len(s.Columns))
	if n := staleLeaves(s.Root); n != 0 {
		t.Fatalf("%d stale leaves after learning", n)
	}
	assertSPNCacheMatchesScan(t, s, reqs, "learned")

	c := s.Clone()
	if n := staleLeaves(c.Root); n != 0 {
		t.Fatalf("%d stale leaves after Clone", n)
	}
	assertSPNCacheMatchesScan(t, c, reqs, "clone")

	for _, m := range randomMutations(rand.New(rand.NewSource(32)), 20) {
		var err error
		if m.Delete {
			err = c.Delete(m.Tuple)
		} else {
			err = c.Insert(m.Tuple)
		}
		if err != nil {
			t.Fatal(err)
		}
		if n := staleLeaves(c.Root); n != 0 {
			t.Fatalf("%d stale leaves after a per-tuple update", n)
		}
	}
	assertSPNCacheMatchesScan(t, c, reqs, "per-tuple updates")

	c.BeginBatch()
	for _, m := range randomMutations(rand.New(rand.NewSource(33)), 20) {
		if err := c.Insert(m.Tuple); err != nil {
			t.Fatal(err)
		}
	}
	if staleLeaves(c.Root) == 0 {
		t.Fatal("inserts inside a batch left no leaf stale")
	}
	c.EndBatch()
	if n := staleLeaves(c.Root); n != 0 {
		t.Fatalf("%d stale leaves after EndBatch", n)
	}
	assertSPNCacheMatchesScan(t, c, reqs, "batched updates")
	assertSPNCacheMatchesScan(t, s, reqs, "source after clone updates")
}

// pairwiseMass is the full-range mass summed by recursive halving — the
// same terms as the scan, reassociated.
func pairwiseMass(l *Leaf, fn Fn, lo, hi int) float64 {
	switch hi - lo {
	case 0:
		return 0
	case 1:
		return l.Freq[lo] * fn.apply(l.Vals[lo])
	}
	mid := (lo + hi) / 2
	return pairwiseMass(l, fn, lo, mid) + pairwiseMass(l, fn, mid, hi)
}

// TestLeafCacheSeesSummationOrder is the must-fail twin: a cache filled by
// pairwise summation differs from the scan on some generated leaf, so the
// bitwise comparisons above would catch a cache that reassociates.
func TestLeafCacheSeesSummationOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		l := cacheLeaf(rng)
		reassociated := *l
		for fn := range reassociated.full {
			reassociated.full[fn] = pairwiseMass(l, Fn(fn), 0, len(l.Vals))
		}
		for _, fn := range allFns {
			q := ColQuery{Fn: fn, ExcludeNull: true}
			if math.Float64bits(reassociated.Moment(q)) != math.Float64bits(uncached(l).Moment(q)) {
				return
			}
		}
	}
	t.Fatal("pairwise summation matched the scan on every leaf: the comparison cannot see summation order")
}
