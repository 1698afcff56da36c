package stats

import (
	"math"
	"math/rand"

	"repro/internal/parallel"
)

// KMeansResult holds the outcome of a KMeans run: per-point cluster
// assignments and the final centroids. Centroids are retained by RSPN sum
// nodes so that incremental updates (Algorithm 1 in the paper) can route new
// tuples to the nearest existing cluster.
type KMeansResult struct {
	Assignments []int       // len == number of points
	Centroids   [][]float64 // K x dims
	Sizes       []int       // points per cluster
}

// KMeansParallelPoints is the point count from which KMeans splits each
// nearest-centroid pass over its workers. Below it a pass is too short to
// repay starting them.
const KMeansParallelPoints = 8192

// KMeans clusters n points of d dimensions, given row-major in points
// (len n*d), into k clusters using kmeans++ initialization and Lloyd
// iterations. The rng makes runs reproducible. Empty clusters are
// re-seeded from a random point. From KMeansParallelPoints points on, each
// iteration's nearest-centroid pass runs in contiguous ranges on up to
// workers goroutines; every point's nearest centroid and every cluster
// size is the same at any worker count, and the centroid sums, the
// re-seeds and the initialization run in point order, so the count never
// changes the result.
func KMeans(points []float64, d, k, maxIter int, rng *rand.Rand, workers int) KMeansResult {
	n := len(points) / d
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	if maxIter <= 0 {
		maxIter = 30
	}
	parts := 1
	if n >= KMeansParallelPoints && workers > 1 {
		parts = workers
	}
	centroids := kmeansppInit(points, d, k, rng)
	assign := make([]int, n)
	sizes := make([]int, k)
	partSizes := make([]int, parts*k)
	partChanged := make([]bool, parts)
	for iter := 0; iter < maxIter; iter++ {
		// The ranges' own closures return no error.
		_ = parallel.ForEach(parts, parts, func(p int) error {
			partChanged[p] = assignNearest(points, d, n*p/parts, n*(p+1)/parts, centroids, assign, partSizes[p*k:(p+1)*k])
			return nil
		})
		changed := false
		for c := range sizes {
			sizes[c] = 0
		}
		for p := 0; p < parts; p++ {
			changed = changed || partChanged[p]
			for c, m := range partSizes[p*k : (p+1)*k] {
				sizes[c] += m
			}
		}
		// Recompute centroids.
		sums := make([][]float64, k)
		for c := range sums {
			sums[c] = make([]float64, d)
		}
		for i, c := range assign {
			sum := sums[c]
			for j, v := range points[i*d : (i+1)*d] {
				sum[j] += v
			}
		}
		for c := 0; c < k; c++ {
			if sizes[c] == 0 {
				// Re-seed an empty cluster from a random point so every
				// cluster stays populated.
				i := rng.Intn(n)
				centroids[c] = append([]float64(nil), points[i*d:(i+1)*d]...)
				changed = true
				continue
			}
			for j := range sums[c] {
				sums[c][j] /= float64(sizes[c])
			}
			centroids[c] = sums[c]
		}
		if !changed && iter > 0 {
			break
		}
	}
	return KMeansResult{Assignments: assign, Centroids: centroids, Sizes: sizes}
}

// assignNearest assigns each point of [lo, hi) to its nearest centroid,
// counts the range's points per cluster into sizes and reports whether an
// assignment changed. It is NearestCentroid with two centroids measured
// per sweep over a point, each summed in index order as sqDist does.
func assignNearest(points []float64, d, lo, hi int, centroids [][]float64, assign, sizes []int) bool {
	clear(sizes)
	changed := false
	for i := lo; i < hi; i++ {
		p := points[i*d : (i+1)*d]
		best, bestD := 0, math.MaxFloat64
		for c, k := 0, len(centroids); c < k; c += 2 {
			// An odd last centroid is paired with itself: its second
			// distance equals its first, so it never wins the strict <.
			a, b := centroids[c][:len(p)], centroids[min(c+1, k-1)][:len(p)]
			sa, sb := 0.0, 0.0
			for j, v := range p {
				da, db := v-a[j], v-b[j]
				sa += da * da
				sb += db * db
			}
			if sa < bestD {
				best, bestD = c, sa
			}
			if sb < bestD {
				best, bestD = c+1, sb
			}
		}
		changed = changed || assign[i] != best
		assign[i] = best
		sizes[best]++
	}
	return changed
}

// kmeansppInit picks k initial centroids with the kmeans++ D^2 weighting.
func kmeansppInit(points []float64, d, k int, rng *rand.Rand) [][]float64 {
	n := len(points) / d
	row := func(i int) []float64 { return points[i*d : (i+1)*d] }
	centroids := make([][]float64, 0, k)
	first := rng.Intn(n)
	centroids = append(centroids, append([]float64(nil), row(first)...))
	dist := make([]float64, n)
	for len(centroids) < k {
		total := 0.0
		last := centroids[len(centroids)-1]
		for i := range dist {
			dd := sqDist(row(i), last)
			if len(centroids) == 1 || dd < dist[i] {
				dist[i] = dd
			}
			total += dist[i]
		}
		if total == 0 {
			// All remaining points coincide with centroids; duplicate one.
			centroids = append(centroids, append([]float64(nil), row(rng.Intn(n))...))
			continue
		}
		r := rng.Float64() * total
		acc := 0.0
		pick := n - 1
		for i, dd := range dist {
			acc += dd
			if acc >= r {
				pick = i
				break
			}
		}
		centroids = append(centroids, append([]float64(nil), row(pick)...))
	}
	return centroids
}

func sqDist(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// NearestCentroid returns the index of the centroid closest to point in
// Euclidean distance. It is the routing primitive of the RSPN update
// algorithm (Algorithm 1, line 5).
func NearestCentroid(point []float64, centroids [][]float64) int {
	best, bestD := 0, math.MaxFloat64
	for c, cen := range centroids {
		d := sqDist(point, cen)
		if d < bestD {
			best, bestD = c, d
		}
	}
	return best
}
