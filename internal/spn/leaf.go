// Package spn implements Sum-Product Networks: tree-structured deep
// probabilistic models whose internal nodes are sums (row clusters) and
// products (independent column groups) and whose leaves model single
// attributes. Learning follows the MSPN recipe the paper builds on
// (Molina et al., AAAI 2018): RDC-based independence tests for column
// splits and KMeans for row clusters. Inference computes arbitrary
// products of per-column moments restricted by range predicates in one
// bottom-up pass, which is exactly what DeepDB's probabilistic query
// compilation needs.
//
// The leaf representation follows Section 3.2 of the DeepDB paper: every
// distinct value and its frequency is stored exactly, with NULL as a
// dedicated value; when the number of distinct values exceeds a limit the
// leaf switches to equi-width bins that carry enough per-bin aggregates to
// answer all supported moments.
package spn

import (
	"math"
	"sort"
)

// Fn selects the per-column function whose expectation a query needs.
type Fn int

const (
	// FnOne is the constant 1 (probabilities / indicator expectations).
	FnOne Fn = iota
	// FnIdent is f(x) = x (plain expectations, SUM/AVG numerators).
	FnIdent
	// FnSquare is f(x) = x^2 (Koenig-Huygens variance terms).
	FnSquare
	// FnInv is f(x) = 1/max(x, 1). The clamp implements both the paper's
	// "F' is at least 1" invariant on full-outer-join tuple factors and the
	// outer-join rule that zero factors act as one.
	FnInv
	// FnInvSquare is f(x) = 1/max(x, 1)^2 (variance of factor-normalized
	// aggregates).
	FnInvSquare
	// FnMax1 is f(x) = max(x, 1): the outer-join tuple-factor rule of
	// Section 4.2 ("tuple factors with value zero have to be handled as
	// value one").
	FnMax1
)

// numFns is the number of Fn values, the size of a leaf's full-mass cache.
const numFns = FnMax1 + 1

// apply evaluates the function at a non-NULL value.
func (f Fn) apply(x float64) float64 {
	switch f {
	case FnOne:
		return 1
	case FnIdent:
		return x
	case FnSquare:
		return x * x
	case FnInv:
		if x < 1 {
			x = 1
		}
		return 1 / x
	case FnInvSquare:
		if x < 1 {
			x = 1
		}
		return 1 / (x * x)
	case FnMax1:
		if x < 1 {
			return 1
		}
		return x
	default:
		return 0
	}
}

// Range is a half-open-configurable interval constraint on a column value.
type Range struct {
	Lo, Hi         float64
	LoIncl, HiIncl bool
}

// FullRange covers every non-NULL value.
func FullRange() Range {
	return Range{Lo: math.Inf(-1), Hi: math.Inf(1), LoIncl: true, HiIncl: true}
}

// PointRange matches exactly v.
func PointRange(v float64) Range {
	return Range{Lo: v, Hi: v, LoIncl: true, HiIncl: true}
}

// ColQuery is the per-column part of an inference request: the expectation
// E[Fn(X) * 1(X in Ranges)] with NULL contributing only when the column is
// fully unconstrained (Fn == FnOne, no ranges, IncludeNull).
type ColQuery struct {
	Col    int // scope column index
	Fn     Fn
	Ranges []Range // nil means unconstrained; multiple ranges are a union
	// ExcludeNull forces NULL values to contribute zero even without
	// ranges. Used for "X IS NOT NULL" denominators of AVG queries.
	ExcludeNull bool
}

// constrained reports whether the query restricts the column at all.
func (q ColQuery) constrained() bool {
	return q.Fn != FnOne || len(q.Ranges) > 0 || q.ExcludeNull
}

// Leaf models a single attribute's distribution. Exact mode stores sorted
// distinct values with frequencies; binned mode stores equi-width bins with
// the aggregates needed for every supported Fn.
type Leaf struct {
	Col  int    // scope column index this leaf models
	Name string // column name, for diagnostics

	// Exact mode.
	Vals []float64
	Freq []float64

	// Binned mode.
	Binned bool
	Edges  []float64 // len(BinW)+1 ascending bin edges, last bin inclusive
	BinW   []float64
	BinSum []float64
	BinSq  []float64
	BinInv []float64 // sum of 1/max(v,1)
	BinIn2 []float64 // sum of 1/max(v,1)^2

	NullW float64
	Total float64 // NullW + all value/bin weights

	// full caches, per Fn, an exact-mode leaf's mass over all its stored
	// values: what exactMass returns whenever its range admits every value,
	// as a SUM column or a NOT NULL denominator does for every group key.
	// Unexported: gob skips it, so the model file is unchanged and a
	// decoded leaf starts stale (fullOK false). A stale leaf scans; Add
	// marks the cache stale and only the write path refills it
	// (refreshFull), so readers never write shared state.
	full   [numFns]float64
	fullOK bool
}

// NewLeaf builds a leaf from raw column data (NaN encodes NULL) using the
// given weights (nil means weight 1 per row). maxDistinct bounds the exact
// mode; beyond it the leaf switches to `bins` equi-width bins.
func NewLeaf(col int, name string, data []float64, maxDistinct, bins int) *Leaf {
	l := &Leaf{Col: col, Name: name}
	counts := make(map[float64]float64)
	var min, max float64
	first := true
	for _, v := range data {
		if math.IsNaN(v) {
			l.NullW++
			l.Total++
			continue
		}
		counts[v]++
		l.Total++
		if first || v < min {
			min = v
		}
		if first || v > max {
			max = v
		}
		first = false
	}
	if len(counts) <= maxDistinct {
		l.Vals = make([]float64, 0, len(counts))
		for v := range counts {
			l.Vals = append(l.Vals, v)
		}
		sort.Float64s(l.Vals)
		l.Freq = make([]float64, len(l.Vals))
		for i, v := range l.Vals {
			l.Freq[i] = counts[v]
		}
		return l
	}
	// Binned mode.
	if bins < 2 {
		bins = 64
	}
	l.Binned = true
	if max == min {
		max = min + 1
	}
	l.Edges = make([]float64, bins+1)
	width := (max - min) / float64(bins)
	for i := range l.Edges {
		l.Edges[i] = min + float64(i)*width
	}
	l.Edges[bins] = max
	l.BinW = make([]float64, bins)
	l.BinSum = make([]float64, bins)
	l.BinSq = make([]float64, bins)
	l.BinInv = make([]float64, bins)
	l.BinIn2 = make([]float64, bins)
	// Accumulate in sorted value order: map iteration order would make the
	// floating-point bin sums differ run to run, and with them every
	// estimate derived from a binned leaf.
	vals := make([]float64, 0, len(counts))
	for v := range counts {
		vals = append(vals, v)
	}
	sort.Float64s(vals)
	for _, v := range vals {
		w := counts[v]
		b := l.binOf(v)
		l.BinW[b] += w
		l.BinSum[b] += w * v
		l.BinSq[b] += w * v * v
		l.BinInv[b] += w * FnInv.apply(v)
		l.BinIn2[b] += w * FnInvSquare.apply(v)
	}
	return l
}

// binOf returns the bin index of value v, clamping to the edge bins.
func (l *Leaf) binOf(v float64) int {
	n := len(l.BinW)
	if v <= l.Edges[0] {
		return 0
	}
	if v >= l.Edges[n] {
		return n - 1
	}
	// Binary search: first edge > v, minus one.
	idx := sort.SearchFloat64s(l.Edges, v)
	if idx > 0 && l.Edges[idx] != v {
		idx--
	}
	if idx >= n {
		idx = n - 1
	}
	return idx
}

// Moment returns E[Fn(X) * 1(X in ranges)] under the leaf distribution,
// where the expectation is over all mass including NULL (NULL contributes
// zero unless the query is fully unconstrained, in which case the result is
// exactly 1 for FnOne).
func (l *Leaf) Moment(q ColQuery) float64 { return l.moment(&q) }

// moment is Moment without the ColQuery copy — the batch evaluator calls
// it once per (leaf, request) pair.
func (l *Leaf) moment(q *ColQuery) float64 {
	if l.Total == 0 {
		return 0
	}
	if !q.constrained() {
		return 1
	}
	acc := 0.0
	if l.Binned {
		ranges := q.Ranges
		if ranges == nil {
			ranges = []Range{FullRange()}
		}
		for _, r := range ranges {
			acc += l.binnedMass(r, q.Fn)
		}
	} else {
		ranges := q.Ranges
		if ranges == nil {
			ranges = []Range{FullRange()}
		}
		for _, r := range ranges {
			acc += l.exactMass(r, q.Fn)
		}
	}
	// NULL contributes only to an unconstrained FnOne query, handled above.
	return acc / l.Total
}

func (l *Leaf) exactMass(r Range, fn Fn) float64 {
	// Locate the first value >= Lo (or > Lo when exclusive).
	var start int
	if r.LoIncl {
		start = searchGE(l.Vals, r.Lo)
	} else {
		start = searchGT(l.Vals, r.Lo)
	}
	// Values ascend, so a scan from index 0 whose last value passes the Hi
	// test adds every stored value in order — exactly the additions the
	// cached mass made.
	if n := len(l.Vals); start == 0 && n > 0 && l.fullOK && fn >= 0 && fn < numFns && !r.pastHi(l.Vals[n-1]) {
		return l.full[fn]
	}
	return l.scanMass(start, r, fn)
}

// scanMass adds Freq*fn over the stored values from index start up to the
// first value past the range's upper bound. It is the one loop both a
// range query and the full-mass cache run, so the two agree bit for bit.
func (l *Leaf) scanMass(start int, r Range, fn Fn) float64 {
	acc := 0.0
	for i := start; i < len(l.Vals); i++ {
		v := l.Vals[i]
		if r.pastHi(v) {
			break
		}
		acc += l.Freq[i] * fn.apply(v)
	}
	return acc
}

// pastHi reports whether v lies above the range's upper bound, where an
// ascending scan stops. A NaN bound stops nothing.
func (r Range) pastHi(v float64) bool { return v > r.Hi || (v == r.Hi && !r.HiIncl) }

// refreshFull refills the full-mass cache with a scan over every stored
// value per Fn. Only the write path (compilation and the once-per-batch
// refresh after updates) calls it.
func (l *Leaf) refreshFull() {
	all := FullRange()
	for fn := range l.full {
		l.full[fn] = l.scanMass(0, all, Fn(fn))
	}
	l.fullOK = true
}

// binnedMass integrates fn over the part of each bin covered by r, assuming
// values are uniformly spread inside a bin (the fraction of overlap scales
// every per-bin aggregate linearly). Only bins overlapping r are visited;
// the skipped bins contributed exactly zero, so the bounded loop sums the
// same terms in the same order.
//
// The two boundary bins take the general partial-overlap path
// (binBoundaryMass); every strictly interior bin is fully covered, so its
// overlap fraction is exactly 1.0 and frac*agg == agg bit for bit — those
// bins run through the unrolled kernels over the contiguous aggregate
// rows. The additions happen in the same ascending bin order as the
// scalar reference loop, so the result is bitwise identical.
func (l *Leaf) binnedMass(r Range, fn Fn) float64 {
	if math.IsNaN(r.Lo) || math.IsNaN(r.Hi) {
		// A NaN bound is an invalid binding; propagate NaN so the root
		// check reports a non-finite result (as the unbounded loop did)
		// instead of silently returning zero mass.
		return math.NaN()
	}
	n := len(l.BinW)
	// A bin [Edges[b], Edges[b+1]] overlaps iff Edges[b+1] >= r.Lo and
	// Edges[b] <= r.Hi.
	start := searchGE(l.Edges, r.Lo) - 1
	if start < 0 {
		start = 0
	}
	end := searchGT(l.Edges, r.Hi) - 1
	if end > n-1 {
		end = n - 1
	}
	if end < start {
		return 0
	}
	acc := l.binBoundaryMass(start, r, fn, 0)
	if end == start {
		return acc
	}
	if lo, hi := start+1, end; lo < hi {
		switch fn {
		case FnOne:
			acc = sumKernel(l.BinW[lo:hi], acc)
		case FnIdent:
			acc = sumKernel(l.BinSum[lo:hi], acc)
		case FnSquare:
			acc = sumKernel(l.BinSq[lo:hi], acc)
		case FnInv:
			acc = sumKernel(l.BinInv[lo:hi], acc)
		case FnInvSquare:
			acc = sumKernel(l.BinIn2[lo:hi], acc)
		case FnMax1:
			acc = sumMax1Kernel(l.BinSum[lo:hi], l.BinW[lo:hi], acc)
		}
	}
	return l.binBoundaryMass(end, r, fn, acc)
}

// binBoundaryMass adds bin b's partial-overlap contribution to acc — the
// scalar reference computation, kept for the (at most two) bins a range
// only partially covers. Skipped (empty or point) overlaps leave acc
// untouched, exactly like the reference loop's continue.
func (l *Leaf) binBoundaryMass(b int, r Range, fn Fn, acc float64) float64 {
	lo, hi := l.Edges[b], l.Edges[b+1]
	overlapLo := math.Max(lo, r.Lo)
	overlapHi := math.Min(hi, r.Hi)
	if overlapHi < overlapLo {
		return acc
	}
	width := hi - lo
	var frac float64
	if width <= 0 {
		frac = 1
	} else {
		frac = (overlapHi - overlapLo) / width
	}
	if frac <= 0 {
		// Point overlap at a shared edge: only counts when the range is
		// a point query matching the edge; approximate as zero mass for
		// binned leaves (consistent with a continuous distribution).
		return acc
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
		// Values below 1 clamp to 1; per-bin the sum is bounded below
		// by the bin weight.
		agg = l.BinSum[b]
		if agg < l.BinW[b] {
			agg = l.BinW[b]
		}
	}
	return acc + frac*agg
}

// Add updates the leaf with one value (NaN = NULL) and weight w (+1 insert,
// -1 delete). Exact-mode leaves insert unseen values in sorted position;
// binned leaves update the covering bin (values outside the edge range are
// clamped into the boundary bins, keeping the structure fixed as Section
// 5.2 prescribes). Any Add leaves the full-mass cache stale until the write
// path refreshes it.
func (l *Leaf) Add(v float64, w float64) {
	l.fullOK = false
	l.Total += w
	if l.Total < 0 {
		l.Total = 0
	}
	if math.IsNaN(v) {
		l.NullW += w
		if l.NullW < 0 {
			l.NullW = 0
		}
		return
	}
	if l.Binned {
		b := l.binOf(v)
		l.BinW[b] += w
		l.BinSum[b] += w * v
		l.BinSq[b] += w * v * v
		l.BinInv[b] += w * FnInv.apply(v)
		l.BinIn2[b] += w * FnInvSquare.apply(v)
		if l.BinW[b] < 0 {
			l.BinW[b], l.BinSum[b], l.BinSq[b], l.BinInv[b], l.BinIn2[b] = 0, 0, 0, 0, 0
		}
		return
	}
	idx := sort.SearchFloat64s(l.Vals, v)
	if idx < len(l.Vals) && l.Vals[idx] == v {
		l.Freq[idx] += w
		if l.Freq[idx] < 0 {
			l.Freq[idx] = 0
		}
		return
	}
	if w <= 0 {
		return // deleting a value the leaf never saw: ignore
	}
	l.Vals = append(l.Vals, 0)
	copy(l.Vals[idx+1:], l.Vals[idx:])
	l.Vals[idx] = v
	l.Freq = append(l.Freq, 0)
	copy(l.Freq[idx+1:], l.Freq[idx:])
	l.Freq[idx] = w
}

// DistinctValues returns the leaf's stored values (bin midpoints in binned
// mode). Classification uses them as MPE candidates.
func (l *Leaf) DistinctValues() []float64 {
	if !l.Binned {
		return append([]float64(nil), l.Vals...)
	}
	out := make([]float64, len(l.BinW))
	for b := range l.BinW {
		if l.BinW[b] > 0 {
			out[b] = l.BinSum[b] / l.BinW[b]
		} else {
			out[b] = (l.Edges[b] + l.Edges[b+1]) / 2
		}
	}
	return out
}
