package stats

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// Ranks returns the fractional (average-tie) ranks of xs, read off their
// tie groups.
func Ranks(xs []float64) []float64 {
	group, avg := tieGroups(xs)
	ranks := make([]float64, len(xs))
	for i, g := range group {
		ranks[i] = avg[g]
	}
	return ranks
}

// ECDF returns the empirical copula transform of xs: each value is mapped to
// its fractional rank divided by n, yielding values in (0, 1]. PrepareRDC
// computes the same values through the tie groups.
func ECDF(xs []float64) []float64 {
	ranks := Ranks(xs)
	n := float64(len(xs))
	out := make([]float64, len(xs))
	for i, r := range ranks {
		out[i] = r / n
	}
	return out
}

// ranksRef is Ranks as it was before tie groups were recorded: the same
// sort.Slice call, each group's average rank written to its members.
func ranksRef(xs []float64) []float64 {
	n := len(xs)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	ranks := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && xs[idx[j+1]] == xs[idx[i]] {
			j++
		}
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			ranks[idx[k]] = avg
		}
		i = j + 1
	}
	return ranks
}

// dotRef is the per-cell dot product the covariance loops used: a[i]*b[i]
// summed in index order, skipping the terms whose a[i] is 0.
func dotRef(a, b []float64) float64 {
	s := 0.0
	for i, v := range a {
		if v == 0 {
			continue
		}
		s += v * b[i]
	}
	return s
}

// prepareSideRef is prepareSide as it was before tie groups and batched
// dots: one sine per row of the copula values and one dotRef per cell of
// the covariance.
func prepareSideRef(cop []float64, f sineFeatures) *rdcSide {
	n, k := len(cop), len(f.w)
	feat := make([]float64, k*n)
	for j := 0; j < k; j++ {
		row := feat[j*n : (j+1)*n]
		w, b := f.w[j], f.b[j]
		mean := 0.0
		for i, u := range cop {
			row[i] = math.Sin(w*u + b)
			mean += row[i]
		}
		mean /= float64(n)
		for i := range row {
			row[i] -= mean
		}
	}
	inv := 1.0 / float64(n-1)
	cov := make([]float64, k*k)
	for a := 0; a < k; a++ {
		ra := feat[a*n : (a+1)*n]
		for b := a; b < k; b++ {
			c := dotRef(ra, feat[b*n:(b+1)*n]) * inv
			cov[a*k+b], cov[b*k+a] = c, c
		}
		cov[a*k+a] += ridge
	}
	return &rdcSide{k: k, feat: feat, rinv: choleskyInverse(cov, k)}
}

// crossCovarianceRef is the per-cell loop crossCovariance replaced.
func crossCovarianceRef(x, y *rdcSide, n int) []float64 {
	kx, ky := x.k, y.k
	inv := 1.0 / float64(n-1)
	cxy := make([]float64, kx*ky)
	for i := 0; i < kx; i++ {
		ri := x.feat[i*n : (i+1)*n]
		for j := 0; j < ky; j++ {
			cxy[i*ky+j] = dotRef(ri, y.feat[j*n:(j+1)*n]) * inv
		}
	}
	return cxy
}

// kernelColumn is a random column of n values drawn from a few levels, so
// it has ties, with zeros, -Inf and NaN mixed in.
func kernelColumn(n int, rng *rand.Rand) []float64 {
	out := make([]float64, n)
	for i := range out {
		switch r := rng.Intn(20); {
		case r == 0:
			out[i] = math.NaN()
		case r == 1:
			out[i] = math.Inf(-1)
		case r < 5:
			out[i] = 0
		case r < 12:
			out[i] = float64(rng.Intn(6))
		default:
			out[i] = rng.NormFloat64()
		}
	}
	return out
}

// sameBits reports whether a and b hold the same float64 bits.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestRanksMatchReference: Ranks, now read off the tie groups, equals the
// old loop bit for bit, NaN placement included.
func TestRanksMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 2, 7, 100, 2000} {
		xs := kernelColumn(n, rng)
		if got, want := Ranks(xs), ranksRef(xs); !sameBits(got, want) {
			t.Fatalf("n=%d: Ranks differs from the reference", n)
		}
	}
}

// dotsCases returns a random vector a of n values (zeros, ties, -Inf and
// NaN included) and rows of c random vectors of n values each.
func dotsCases(n, c int, rng *rand.Rand) (a, rows []float64) {
	a = kernelColumn(n, rng)
	for i := 0; i < c; i++ {
		rows = append(rows, kernelColumn(n, rng)...)
	}
	return a, rows
}

// dotsMismatch returns the first (n, cells) at which kernel disagrees with
// dotRef on some cell, or ok when it agrees on all; the shapes cover every
// remainder of four and lengths on both sides of a loop's unroll.
func dotsMismatch(kernel func(out, a, rows []float64)) (n, cells int, ok bool) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{0, 1, 3, 4, 5, 17, 200, 1500} {
		for cells := 1; cells <= 10; cells++ {
			a, rows := dotsCases(n, cells, rng)
			got := make([]float64, cells)
			kernel(got, a, rows)
			for c := range got {
				if math.Float64bits(got[c]) != math.Float64bits(dotRef(a, rows[c*n:(c+1)*n])) {
					return n, cells, false
				}
			}
		}
	}
	return 0, 0, true
}

// TestDotsMatchPerCellDot: four cells per pass give every cell the bits
// of its own dotRef.
func TestDotsMatchPerCellDot(t *testing.T) {
	if n, cells, ok := dotsMismatch(dots); !ok {
		t.Fatalf("dots differs from the per-cell dot at n=%d, %d cells", n, cells)
	}
}

// dotsTwoAccumulators is dots with each sum split over two accumulators,
// even and odd terms, added at the end: the same terms in another order.
func dotsTwoAccumulators(out, a, rows []float64) {
	n := len(a)
	for c := range out {
		b := rows[c*n : (c+1)*n]
		var even, odd float64
		for i, v := range a {
			if v == 0 {
				continue
			}
			if i%2 == 0 {
				even += v * b[i]
			} else {
				odd += v * b[i]
			}
		}
		out[c] = even + odd
	}
}

// TestTwoAccumulatorDotsDiffer is the must-fail twin of the dots test: a
// kernel that adds the same terms in another order does not pass it.
func TestTwoAccumulatorDotsDiffer(t *testing.T) {
	if _, _, ok := dotsMismatch(dotsTwoAccumulators); ok {
		t.Fatal("two accumulators matched the per-cell dot everywhere: the dots test cannot tell summation orders apart")
	}
}

// TestPreparedSidesMatchReference: a column prepared through its tie
// groups and batched dots holds the old per-row features and per-cell
// covariance factor bit for bit, and the cross covariance of two columns
// equals the per-cell loop's, on columns with ties, zeros, -Inf and NaN.
func TestPreparedSidesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{4, 5, 40, 1000} {
		cols := append(rdcCases(n, rng), kernelColumn(n, rng), kernelColumn(n, rng))
		for _, cfg := range rdcConfigs {
			fx, fy := projections(cfg)
			prepared := make([]*RDCColumn, len(cols))
			for i, c := range cols {
				p := PrepareRDC(c, RoleX|RoleY, cfg)
				prepared[i] = p
				cop := ECDF(c)
				if !sameBits(p.cop, cop) {
					t.Fatalf("n=%d column %d: copula values differ from ECDF", n, i)
				}
				for _, side := range []struct {
					got, want *rdcSide
				}{{p.x, prepareSideRef(cop, fx)}, {p.y, prepareSideRef(cop, fy)}} {
					if !sameBits(side.got.feat, side.want.feat) || !sameBits(side.got.rinv, side.want.rinv) {
						t.Fatalf("n=%d K=%d column %d: prepared side differs from the reference", n, cfg.K, i)
					}
				}
			}
			for i := range cols {
				x, y := prepared[i], prepared[(i+1)%len(cols)]
				if !sameBits(crossCovariance(x.x, y.y, n), crossCovarianceRef(x.x, y.y, n)) {
					t.Fatalf("n=%d K=%d pair (%d,%d): cross covariance differs from the reference", n, cfg.K, i, (i+1)%len(cols))
				}
			}
		}
	}
}

// kmeansRef is KMeans as it was over one slice per point, sequential,
// kept as the reference the flat, split form must match bit for bit.
func kmeansRef(points [][]float64, k int, maxIter int, rng *rand.Rand) KMeansResult {
	n := len(points)
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	if maxIter <= 0 {
		maxIter = 30
	}
	centroids := kmeansppInitRef(points, k, rng)
	assign := make([]int, n)
	sizes := make([]int, k)
	for iter := 0; iter < maxIter; iter++ {
		changed := false
		for i := range sizes {
			sizes[i] = 0
		}
		for i, p := range points {
			best, bestD := 0, math.MaxFloat64
			for c, cen := range centroids {
				d := sqDist(p, cen)
				if d < bestD {
					best, bestD = c, d
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
			sizes[best]++
		}
		dims := len(points[0])
		sums := make([][]float64, k)
		for c := range sums {
			sums[c] = make([]float64, dims)
		}
		for i, p := range points {
			c := assign[i]
			for d, v := range p {
				sums[c][d] += v
			}
		}
		for c := 0; c < k; c++ {
			if sizes[c] == 0 {
				centroids[c] = append([]float64(nil), points[rng.Intn(n)]...)
				changed = true
				continue
			}
			for d := range sums[c] {
				sums[c][d] /= float64(sizes[c])
			}
			centroids[c] = sums[c]
		}
		if !changed && iter > 0 {
			break
		}
	}
	return KMeansResult{Assignments: assign, Centroids: centroids, Sizes: sizes}
}

func kmeansppInitRef(points [][]float64, k int, rng *rand.Rand) [][]float64 {
	n := len(points)
	centroids := make([][]float64, 0, k)
	first := rng.Intn(n)
	centroids = append(centroids, append([]float64(nil), points[first]...))
	dist := make([]float64, n)
	for len(centroids) < k {
		total := 0.0
		last := centroids[len(centroids)-1]
		for i, p := range points {
			d := sqDist(p, last)
			if len(centroids) == 1 || d < dist[i] {
				dist[i] = d
			}
			total += dist[i]
		}
		if total == 0 {
			centroids = append(centroids, append([]float64(nil), points[rng.Intn(n)]...))
			continue
		}
		r := rng.Float64() * total
		acc := 0.0
		pick := n - 1
		for i, d := range dist {
			acc += d
			if acc >= r {
				pick = i
				break
			}
		}
		centroids = append(centroids, append([]float64(nil), points[pick]...))
	}
	return centroids
}

// flatten lays points out row-major, as KMeans takes them.
func flatten(points [][]float64) []float64 {
	var out []float64
	for _, p := range points {
		out = append(out, p...)
	}
	return out
}

// kmeansPoints returns n points of d dimensions around k centers, every
// fifth a duplicate of an earlier point; with special set, some
// coordinates are 0, -Inf or NaN.
func kmeansPoints(n, d, k int, special bool, rng *rand.Rand) [][]float64 {
	centers := make([][]float64, k)
	for c := range centers {
		centers[c] = make([]float64, d)
		for j := range centers[c] {
			centers[c][j] = rng.Float64()
		}
	}
	points := make([][]float64, n)
	for i := range points {
		if i > 0 && rng.Intn(5) == 0 {
			points[i] = append([]float64(nil), points[rng.Intn(i)]...)
			continue
		}
		c := centers[rng.Intn(k)]
		p := make([]float64, d)
		for j := range p {
			p[j] = c[j] + 0.1*rng.NormFloat64()
			if special {
				switch rng.Intn(2000) {
				case 0:
					p[j] = 0
				case 1:
					p[j] = math.Inf(-1)
				case 2:
					p[j] = math.NaN()
				}
			}
		}
		points[i] = p
	}
	return points
}

// TestKMeansMatchesReference: the flat KMeans equals the per-point
// reference bit for bit — assignments, sizes, centroids and what it drew
// from the rng — at every worker count, with n on both sides of
// KMeansParallelPoints and with ties, zeros, -Inf and NaN among the points.
func TestKMeansMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, c := range []struct {
		n, d, k int
		special bool
	}{
		{50, 2, 2, false},
		{300, 3, 5, true},
		{KMeansParallelPoints - 1, 3, 2, false},
		{KMeansParallelPoints, 2, 3, true},
		{KMeansParallelPoints + 1001, 4, 2, false},
		{KMeansParallelPoints + 1001, 4, 2, true},
	} {
		points := kmeansPoints(c.n, c.d, c.k, c.special, rng)
		refRng := rand.New(rand.NewSource(int64(c.n)))
		want := kmeansRef(points, c.k, 30, refRng)
		wantNext := refRng.Int63()
		flat := flatten(points)
		for _, workers := range []int{1, 2, 3, 4} {
			r := rand.New(rand.NewSource(int64(c.n)))
			got := KMeans(flat, c.d, c.k, 30, r, workers)
			same := len(got.Assignments) == len(want.Assignments) && len(got.Centroids) == len(want.Centroids) &&
				len(got.Sizes) == len(want.Sizes) && r.Int63() == wantNext
			for i := 0; same && i < len(got.Assignments); i++ {
				same = got.Assignments[i] == want.Assignments[i]
			}
			for i := 0; same && i < len(got.Sizes); i++ {
				same = got.Sizes[i] == want.Sizes[i] && sameBits(got.Centroids[i], want.Centroids[i])
			}
			if !same {
				t.Fatalf("n=%d d=%d k=%d special=%v workers=%d: KMeans differs from the reference", c.n, c.d, c.k, c.special, workers)
			}
		}
	}
}

// assignCase draws n points and k centroids of d dimensions from a small
// grid, so distances tie exactly, with every other centroid a duplicate of
// the one before it, and with NaN, ±Inf and the −0.5 NULL sentinel among
// the points and the centroids. assign starts random.
func assignCase(n, d, k int, rng *rand.Rand) (points []float64, centroids [][]float64, assign []int) {
	value := func() float64 {
		switch rng.Intn(40) {
		case 0:
			return math.NaN()
		case 1:
			return math.Inf(1)
		case 2:
			return math.Inf(-1)
		case 3, 4:
			return -0.5
		}
		return float64(rng.Intn(3))
	}
	points = make([]float64, n*d)
	for i := range points {
		points[i] = value()
	}
	for c := 0; c < k; c++ {
		if c%2 == 1 {
			centroids = append(centroids, append([]float64(nil), centroids[c-1]...))
			continue
		}
		cen := make([]float64, d)
		for j := range cen {
			cen[j] = value()
		}
		centroids = append(centroids, cen)
	}
	assign = make([]int, n)
	for i := range assign {
		assign[i] = rng.Intn(k)
	}
	return points, centroids, assign
}

// assignRanges runs assignNearest over [0, n) the way KMeans splits a pass:
// in two ranges from KMeansParallelPoints points on, in one below.
func assignRanges(points []float64, d int, centroids [][]float64, assign []int) (sizes []int, changed bool) {
	n, k := len(assign), len(centroids)
	parts := 1
	if n >= KMeansParallelPoints {
		parts = 2
	}
	sizes = make([]int, k)
	part := make([]int, k)
	for p := 0; p < parts; p++ {
		changed = assignNearest(points, d, n*p/parts, n*(p+1)/parts, centroids, assign, part) || changed
		for c, m := range part {
			sizes[c] += m
		}
	}
	return sizes, changed
}

// assignRef assigns every point to the centroid nearest picks, counting
// sizes and changes like assignNearest.
func assignRef(points []float64, d int, centroids [][]float64, assign []int,
	nearest func(point []float64, centroids [][]float64) int) (sizes []int, changed bool) {
	sizes = make([]int, len(centroids))
	for i := range assign {
		best := nearest(points[i*d:(i+1)*d], centroids)
		changed = changed || assign[i] != best
		assign[i] = best
		sizes[best]++
	}
	return sizes, changed
}

// assignMismatch reports the first case, k = 1..4 and d = 1..20 with n on
// both sides of KMeansParallelPoints, where the fused pass and a loop of
// nearest disagree on an assignment, a size or whether a pass changed
// anything, over a pass from random assignments and a second one from the
// first's.
func assignMismatch(nearest func(point []float64, centroids [][]float64) int) (string, bool) {
	rng := rand.New(rand.NewSource(49))
	for _, n := range []int{KMeansParallelPoints - 1, KMeansParallelPoints + 1} {
		for k := 1; k <= 4; k++ {
			for d := 1; d <= 20; d++ {
				points, centroids, assign := assignCase(n, d, k, rng)
				ref := slices.Clone(assign)
				for pass := 0; pass < 2; pass++ {
					gotSizes, gotChanged := assignRanges(points, d, centroids, assign)
					wantSizes, wantChanged := assignRef(points, d, centroids, ref, nearest)
					if !slices.Equal(assign, ref) || !slices.Equal(gotSizes, wantSizes) || gotChanged != wantChanged {
						return fmt.Sprintf("n=%d k=%d d=%d pass %d", n, k, d, pass), true
					}
				}
			}
		}
	}
	return "", false
}

// TestAssignNearestMatchesNearestCentroid: the fused assignment pass
// equals a NearestCentroid loop bit for bit — assignments, sizes and
// changed — with exact ties, duplicate centroids, NaN, ±Inf and the NULL
// sentinel, for k = 1..4 and d = 1..20, in one range and in two.
func TestAssignNearestMatchesNearestCentroid(t *testing.T) {
	if c, bad := assignMismatch(NearestCentroid); bad {
		t.Fatalf("%s: the fused pass differs from NearestCentroid", c)
	}
}

// TestAssignComparisonSeesTies is the must-fail twin: a loop that keeps
// the last of equally near centroids (<= for <) differs from the fused
// pass on these inputs.
func TestAssignComparisonSeesTies(t *testing.T) {
	lastOfTies := func(point []float64, centroids [][]float64) int {
		best, bestD := 0, math.MaxFloat64
		for c, cen := range centroids {
			if d := sqDist(point, cen); d <= bestD {
				best, bestD = c, d
			}
		}
		return best
	}
	if _, bad := assignMismatch(lastOfTies); !bad {
		t.Fatal("keeping the last of tied centroids changed no assignment")
	}
}
