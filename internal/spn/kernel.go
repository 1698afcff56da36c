package spn

// kernel.go holds the bounds-check-free inner kernels of the binned-leaf
// moment computation. Each binned leaf keeps its per-bin aggregates in
// dense parallel slices (one per moment order, see Leaf), which both the
// tree walk and the compiled form read in place, so the kernels below run
// over contiguous float64 rows with no pointer chasing.
//
// Bitwise contract: every kernel accumulates into a SINGLE accumulator in
// ascending index order — the same floating-point additions in the same
// order as the scalar reference loop it replaces. The 4-way unrolling only
// removes loop and bounds-check overhead; it never reassociates the sum.

// searchGE returns the smallest index i with a[i] >= x, or len(a).
// Identical to sort.SearchFloat64s(a, x) (same predicate, same probe
// sequence semantics), hand-rolled to avoid the closure call per probe.
func searchGE(a []float64, x float64) int {
	lo, hi := 0, len(a)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if a[mid] >= x {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// searchGT returns the smallest index i with a[i] > x, or len(a) —
// sort.Search(len(a), func(i int) bool { return a[i] > x }) without the
// closure.
func searchGT(a []float64, x float64) int {
	lo, hi := 0, len(a)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if a[mid] > x {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// sumKernel adds every element of a to acc in ascending order and returns
// the result. Used for the fully-covered interior bins of a range, whose
// overlap fraction is exactly 1.0 (frac*agg == agg bit for bit).
func sumKernel(a []float64, acc float64) float64 {
	i := 0
	for ; i+4 <= len(a); i += 4 {
		acc += a[i]
		acc += a[i+1]
		acc += a[i+2]
		acc += a[i+3]
	}
	for ; i < len(a); i++ {
		acc += a[i]
	}
	return acc
}

// sumMax1Kernel adds max(s[i], w[i]) for every index to acc in ascending
// order — the FnMax1 per-bin aggregate (a bin's sum clamped below by its
// weight), with the same comparison the scalar reference uses.
func sumMax1Kernel(s, w []float64, acc float64) float64 {
	if len(w) < len(s) {
		return acc // unreachable: the per-bin slices are parallel
	}
	i := 0
	for ; i+4 <= len(s); i += 4 {
		v0, v1, v2, v3 := s[i], s[i+1], s[i+2], s[i+3]
		if v0 < w[i] {
			v0 = w[i]
		}
		acc += v0
		if v1 < w[i+1] {
			v1 = w[i+1]
		}
		acc += v1
		if v2 < w[i+2] {
			v2 = w[i+2]
		}
		acc += v2
		if v3 < w[i+3] {
			v3 = w[i+3]
		}
		acc += v3
	}
	for ; i < len(s); i++ {
		v := s[i]
		if v < w[i] {
			v = w[i]
		}
		acc += v
	}
	return acc
}
