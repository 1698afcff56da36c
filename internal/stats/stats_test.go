package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRanksSimple(t *testing.T) {
	got := Ranks([]float64{30, 10, 20})
	want := []float64{3, 1, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Ranks = %v, want %v", got, want)
		}
	}
}

func TestRanksTies(t *testing.T) {
	got := Ranks([]float64{5, 5, 1, 9})
	// ranks: 1 -> 1, the two 5s share (2+3)/2 = 2.5, 9 -> 4
	want := []float64{2.5, 2.5, 1, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Ranks = %v, want %v", got, want)
		}
	}
}

func TestRanksPermutationInvariant(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		ranks := Ranks(xs)
		// Sum of ranks must equal n(n+1)/2 regardless of ties.
		sum := 0.0
		for _, r := range ranks {
			sum += r
		}
		n := float64(len(xs))
		return math.Abs(sum-n*(n+1)/2) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestECDFRange(t *testing.T) {
	xs := []float64{4, 8, 15, 16, 23, 42}
	cs := ECDF(xs)
	for i, c := range cs {
		if c <= 0 || c > 1 {
			t.Fatalf("ECDF[%d] = %v out of (0,1]", i, c)
		}
	}
	if cs[5] != 1 {
		t.Fatalf("max element must map to 1, got %v", cs[5])
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestMatrixInverse(t *testing.T) {
	m := NewMatrix(3, 3)
	vals := [][]float64{{4, 7, 2}, {3, 6, 1}, {2, 5, 3}}
	for i := range vals {
		for j := range vals[i] {
			m.Set(i, j, vals[i][j])
		}
	}
	inv, err := m.Inverse()
	if err != nil {
		t.Fatal(err)
	}
	prod := m.Mul(inv)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if math.Abs(prod.At(i, j)-want) > 1e-9 {
				t.Fatalf("M*M^-1 not identity: %v", prod)
			}
		}
	}
}

func TestMatrixInverseSingular(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Set(0, 0, 1)
	m.Set(0, 1, 2)
	m.Set(1, 0, 2)
	m.Set(1, 1, 4)
	if _, err := m.Inverse(); err == nil {
		t.Fatal("expected error inverting singular matrix")
	}
}

func TestSymmetricEigen(t *testing.T) {
	// Matrix [[2,1],[1,2]] has eigenvalues 1 and 3; the general solver
	// must find them off the diagonal too.
	m := NewMatrix(2, 2)
	m.Set(0, 0, 2)
	m.Set(0, 1, 1)
	m.Set(1, 0, 1)
	m.Set(1, 1, 2)
	eig, err := EigenvaluesGeneral(m)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := math.Min(eig[0], eig[1]), math.Max(eig[0], eig[1])
	if math.Abs(lo-1) > 1e-8 || math.Abs(hi-3) > 1e-8 {
		t.Fatalf("eigenvalues = %v, want [1 3]", eig)
	}
}

func TestEigenvaluesGeneralDiagonal(t *testing.T) {
	m := NewMatrix(3, 3)
	m.Set(0, 0, 5)
	m.Set(1, 1, 2)
	m.Set(2, 2, 0.5)
	eig, err := EigenvaluesGeneral(m)
	if err != nil {
		t.Fatal(err)
	}
	max := 0.0
	for _, e := range eig {
		if e > max {
			max = e
		}
	}
	if math.Abs(max-5) > 1e-6 {
		t.Fatalf("max eigenvalue = %v, want 5", max)
	}
}

func TestRDCIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 2000
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		xs[i] = rng.NormFloat64()
		ys[i] = rng.NormFloat64()
	}
	rdc := RDC(xs, ys, DefaultRDCConfig())
	if rdc > 0.25 {
		t.Fatalf("RDC of independent noise = %v, want small", rdc)
	}
}

func TestRDCLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 2000
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		xs[i] = rng.NormFloat64()
		ys[i] = 3*xs[i] + 0.01*rng.NormFloat64()
	}
	rdc := RDC(xs, ys, DefaultRDCConfig())
	if rdc < 0.9 {
		t.Fatalf("RDC of linear relation = %v, want near 1", rdc)
	}
}

func TestRDCNonlinear(t *testing.T) {
	// RDC's selling point: it detects non-monotonic dependence that
	// Pearson misses entirely.
	rng := rand.New(rand.NewSource(11))
	n := 2000
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		xs[i] = rng.Float64()*4 - 2
		ys[i] = xs[i]*xs[i] + 0.05*rng.NormFloat64()
	}
	rdc := RDC(xs, ys, DefaultRDCConfig())
	if rdc < 0.5 {
		t.Fatalf("RDC of quadratic relation = %v, want > 0.5", rdc)
	}
	if p := math.Abs(Pearson(xs, ys)); p > 0.2 {
		t.Fatalf("Pearson of symmetric quadratic = %v, expected near 0", p)
	}
}

func TestRDCDeterministicAcrossRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 500
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		xs[i] = rng.Float64()
		ys[i] = rng.Float64()
	}
	a := RDC(xs, ys, DefaultRDCConfig())
	b := RDC(xs, ys, DefaultRDCConfig())
	if a != b {
		t.Fatalf("RDC not deterministic: %v vs %v", a, b)
	}
}

func TestKMeansSeparatesClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var points [][]float64
	for i := 0; i < 100; i++ {
		points = append(points, []float64{rng.NormFloat64() * 0.1, rng.NormFloat64() * 0.1})
	}
	for i := 0; i < 100; i++ {
		points = append(points, []float64{10 + rng.NormFloat64()*0.1, 10 + rng.NormFloat64()*0.1})
	}
	res := KMeans(points, 2, 50, rng)
	// All of the first 100 points must share a cluster, all of the last 100
	// the other.
	c0 := res.Assignments[0]
	for i := 1; i < 100; i++ {
		if res.Assignments[i] != c0 {
			t.Fatalf("point %d assigned %d, want %d", i, res.Assignments[i], c0)
		}
	}
	c1 := res.Assignments[100]
	if c1 == c0 {
		t.Fatal("clusters not separated")
	}
	for i := 101; i < 200; i++ {
		if res.Assignments[i] != c1 {
			t.Fatalf("point %d assigned %d, want %d", i, res.Assignments[i], c1)
		}
	}
}

func TestKMeansKLargerThanN(t *testing.T) {
	points := [][]float64{{1}, {2}}
	res := KMeans(points, 10, 10, rand.New(rand.NewSource(1)))
	if len(res.Centroids) != 2 {
		t.Fatalf("k should clamp to n: got %d centroids", len(res.Centroids))
	}
}

func TestNearestCentroid(t *testing.T) {
	cents := [][]float64{{0, 0}, {10, 10}}
	if got := NearestCentroid([]float64{1, 1}, cents); got != 0 {
		t.Fatalf("NearestCentroid = %d, want 0", got)
	}
	if got := NearestCentroid([]float64{9, 9}, cents); got != 1 {
		t.Fatalf("NearestCentroid = %d, want 1", got)
	}
}

func TestNormalQuantileRoundTrip(t *testing.T) {
	for _, p := range []float64{0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.975, 0.999} {
		x := NormalQuantile(p)
		back := 0.5 * math.Erfc(-x/math.Sqrt2) // the standard normal CDF
		if math.Abs(back-p) > 1e-6 {
			t.Errorf("round trip p=%v -> x=%v -> %v", p, x, back)
		}
	}
}

func TestConfidenceZ(t *testing.T) {
	if z := ConfidenceZ(0.95); math.Abs(z-1.95996) > 1e-3 {
		t.Fatalf("ConfidenceZ(0.95) = %v, want 1.96", z)
	}
	if z := ConfidenceZ(0.99); math.Abs(z-2.5758) > 1e-3 {
		t.Fatalf("ConfidenceZ(0.99) = %v, want 2.576", z)
	}
}

func TestProductVariance(t *testing.T) {
	// For constants (zero variance) the product variance must be zero.
	if v := ProductVariance(3, 0, 4, 0); v != 0 {
		t.Fatalf("ProductVariance of constants = %v", v)
	}
	// V(XY) >= V(X)*E(Y)^2 for independent variables.
	v := ProductVariance(2, 1, 3, 0.5)
	if v < 1*9 {
		t.Fatalf("ProductVariance = %v, want >= 9", v)
	}
}

func TestBinomialVariance(t *testing.T) {
	if v := BinomialVariance(0.5, 100); math.Abs(v-0.0025) > 1e-12 {
		t.Fatalf("BinomialVariance = %v, want 0.0025", v)
	}
	if v := BinomialVariance(-1, 100); v != 0 {
		t.Fatalf("clamped p<0 should give 0, got %v", v)
	}
	if v := BinomialVariance(0.5, 0); v != 0 {
		t.Fatalf("n=0 should give 0, got %v", v)
	}
}

func TestPearsonPerfect(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{2, 4, 6, 8}
	if p := Pearson(xs, ys); math.Abs(p-1) > 1e-12 {
		t.Fatalf("Pearson = %v, want 1", p)
	}
	neg := []float64{8, 6, 4, 2}
	if p := Pearson(xs, neg); math.Abs(p+1) > 1e-12 {
		t.Fatalf("Pearson = %v, want -1", p)
	}
}

func TestMaxCanonicalCorrelationIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n, k := 200, 5
	x := NewMatrix(n, k)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	rho, err := MaxCanonicalCorrelation(x, x.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if rho < 0.999 {
		t.Fatalf("CCA of identical matrices = %v, want ~1", rho)
	}
}
